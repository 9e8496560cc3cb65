"""The differential manifest: the SHA-256 of every cell's trace bytes.

A cell is a bundled demo run for 200 cycles in one mode at one seed, with
at most one knob edit (``EDITS``).  Three more cells run generated models: two
200-fact ``mm_scale_document`` models (from ``bench/workloads.py``) for 60
cycles with every entry forming a production, and a noisy linked-facts
model for 200.
``differential.json`` beside this file maps each cell name to its digest;
``test_differential.py`` recomputes every cell once, names each one that
differs, and checks the learner's rules on the same traces.  A change that
alters any cell lists the cells and the reason in CHANGES.md, as a golden
re-pin does.

    PYTHONPATH=src python tests/differential.py          # name the differing cells
    PYTHONPATH=src python tests/differential.py --write  # rewrite the manifest
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "differential.json"
sys.path.append(str(HERE.parent / "bench"))  # for workloads.mm_scale_document

from mmarch import demos  # noqa: E402
from mmarch.model import ModelDefinition, parse_model  # noqa: E402
from mmarch.runtime import run  # noqa: E402
from mmarch.trace import Trace, trace_to_bytes  # noqa: E402
from test_runtime import linked_facts_doc  # noqa: E402
from workloads import mm_scale_document  # noqa: E402

CYCLES = 200
SEEDS = (0, 1, 5)
FORMED_CYCLES = 60  # every entry forms a production: the costliest cells per cycle
REWARDS = [{"cycle": 17, "amount": 2.0}, {"cycle": 60, "amount": -1.0},
           {"cycle": 61, "amount": 3.0}, {"cycle": 150, "amount": 0.5}]


def _set(section: str, key: str, value):
    def edit(doc: dict) -> None:
        doc.setdefault(section, {})[key] = value
    return edit


def _rewards(doc: dict) -> None:
    doc["rewards"] = REWARDS


def _costly_rewards(doc: dict) -> None:
    _rewards(doc)
    _set("learning", "time_cost", 0.7)(doc)


# Knob edits: name -> (edit of the model document, modes it can change).
# The time cost (0 by default) acts only through rewards, so its cell also
# schedules them.  Formation, pruning and the shadow step order act only in
# mm mode; the order is reversed only where a model has several systems.
EDITS = {
    "base": (None, ("mm", "pipeline")),
    "formation_threshold=-1": (_set("middle_memory", "formation_threshold", -1.0), ("mm",)),
    "formation_threshold=0.5": (_set("middle_memory", "formation_threshold", 0.5), ("mm",)),
    "provisional_ttl_s=0.5": (_set("learning", "provisional_ttl_s", 0.5), ("mm",)),
    "rewards": (_rewards, ("mm", "pipeline")),
    "rewards+time_cost=0.7": (_costly_rewards, ("mm", "pipeline")),
    "reversed": (None, ("mm",)),
}


def _run(doc: dict, mode: str, seed: int, reverse: bool = False,
         cycles: int = CYCLES) -> tuple[ModelDefinition, Trace]:
    model = parse_model(doc)
    order = list(range(len(model.shadow_systems)))[::-1] if reverse else None
    return model, run(model, cycles, mode=mode, seed=seed, shadow_step_order=order)


def cells() -> dict:
    """Cell name -> a function returning that cell's ``(model, trace)``."""
    out = {}
    for name in demos.names():
        source = demos.path(name).read_text(encoding="utf-8")
        systems = len(json.loads(source)["shadow_systems"])
        for mode in ("mm", "pipeline"):
            for seed in SEEDS:
                for label, (edit, modes) in EDITS.items():
                    if mode not in modes or (label == "reversed" and systems < 2):
                        continue

                    def cell(source=source, edit=edit, mode=mode, seed=seed,
                             reverse=label == "reversed"):
                        doc = json.loads(source)
                        if edit is not None:
                            edit(doc)
                        return _run(doc, mode, seed, reverse)
                    out[f"{name}/{mode}/seed{seed}/{label}"] = cell
    for seed in (0, 1):
        out[f"mm-scale-200/mm/seed{seed}/formation_threshold=-100"] = (
            lambda seed=seed: _run(mm_scale_document(seed, 200, -100.0), "mm", seed,
                                   cycles=FORMED_CYCLES))
    out["linked-facts/mm/seed5/noise=0.5"] = (
        lambda: _run(linked_facts_doc(seed=5, noise=0.5), "mm", 5))
    return out


def digest(trace: Trace) -> str:
    return hashlib.sha256(trace_to_bytes(trace)).hexdigest()


def digests() -> dict[str, str]:
    return {name: digest(cell()[1]) for name, cell in cells().items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the manifest from this tree")
    args = parser.parse_args(argv)
    current = digests()
    if args.write:
        MANIFEST.write_text(json.dumps(current, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {len(current)} cells to {MANIFEST.name}")
        return 0
    pinned = json.loads(MANIFEST.read_text(encoding="utf-8"))
    differing = sorted(name for name in pinned.keys() | current.keys()
                       if pinned.get(name) != current.get(name))
    for name in differing:
        print(name)
    print(f"{len(differing)} of {len(pinned)} cells differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
