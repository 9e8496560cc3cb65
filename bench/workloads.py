"""Benchmark workloads: what each one runs, how big it is, and its pinned trace.

Every workload is a fixed number of cycles of one model in one mode, so a
repetition always does the same simulated work and its trace bytes can be
pinned.  The seed given to the benchmark changes the inputs (the session
seed, and for ``mm-scale`` the generated model) but not their size.

Why these three:

* ``wordloop-long`` is the write-heavy use of middle memory: one deposit per
  cycle into three entries whose presentation histories grow for the whole
  run, so base-level work grows with run length.
* ``bottleneck-pipeline`` bypasses middle memory entirely; the central
  matcher scans inflow lists that grow by three chunks a cycle.  It is the
  "predict no change" workload for middle-memory work, and the one where
  matching dominates.
* ``mm-scale`` is the read-heavy use of middle memory: hundreds of linked
  facts with short histories, a declarative shadow answering a walk of
  central queries, and a second shadow whose predictor deposits, forgets and
  forms productions every few cycles.
"""

from __future__ import annotations

import importlib
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import ``mmarch`` from this checkout's ``src`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mmarch  # noqa: F401  (imported for its side effect on sys.modules)
    origin = Path(mmarch.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"mmarch was imported from {origin}, not from {SRC}")
    return mmarch


REFERENCE_SEED = 0
HELD_OUT_SEED = 90210

# SHA-256 of the canonical trace bytes of one repetition at REFERENCE_SEED.
# mm-scale is pinned with its shadow systems stepped in reverse order, which
# must not change a byte.
PINNED = {
    "wordloop-long": "7b0a6ace86dfd675c556e761c39434f85df3dd000cf9f031db6c340ddd34cc3e",
    "bottleneck-pipeline": "450bbb05d13becc0c2dfb99aff998463ad3d239c5078a8c4e45b2ad2a7d4b84a",
    "mm-scale": "91a02611cbdd1500eb2be90c031ede12523094a04d5035f14a7f2943031d1140",
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str
    warmup: int  # cycles run inside set-up, before timing starts
    cycles: int  # timed cycles per repetition
    memory_cycles: int  # timed cycles measured with tracemalloc
    cal_every: int  # timed cycles between calibration samples (about 50 ms)
    demo: str | None = None  # bundled demo name, or None for the generated model
    size: int = 0  # mm-scale fact count

    def inputs(self, seed: int):
        """What set-up loads: a demo file path, or a generated model document."""
        import_program()
        if self.demo is not None:
            return importlib.import_module("mmarch.demos").path(self.demo)
        return mm_scale_document(seed, self.size)

    def shadow_order(self, reverse: bool) -> list[int] | None:
        if not reverse or self.demo is not None:
            return None
        return [1, 0]


WORKLOADS = {
    w.name: w for w in (
        Workload("wordloop-long",
                 "bundled wordloop in mm mode for 3000 cycles: one deposit a cycle "
                 "into 3 entries whose histories grow, so base-level work grows",
                 mode="mm", warmup=50, cycles=2950, memory_cycles=1000, cal_every=50,
                 demo="wordloop"),
        Workload("bottleneck-pipeline",
                 "bundled bottleneck in pipeline mode for 2000 cycles: no middle "
                 "memory, the central matcher scans inflows growing 3 chunks a cycle",
                 mode="pipeline", warmup=50, cycles=1950, memory_cycles=1000,
                 cal_every=20, demo="bottleneck"),
        Workload("mm-scale",
                 "generated model with 800 linked facts: a declarative shadow answers "
                 "a walk of queries while a predictor deposits, forgets and forms",
                 mode="mm", warmup=5, cycles=155, memory_cycles=30, cal_every=2,
                 size=800),
    )
}


def mm_scale_document(seed: int, size: int, formation_threshold: float = 2.5) -> dict:
    """A model with ``size`` linked ``fact`` entries, generated from ``seed``.

    The facts form one ring through their ``next`` slot, in an order drawn
    from the seed.  The central system walks the ring: each answer from the
    declarative shadow names the next fact to ask for, so every second cycle
    the shadow scans all facts.  An associative predictor maps the facts
    near the walk to ``cue`` percepts; the attention shadow reads the most
    active one back, frequently presented cues form provisional retrieval
    productions that are pruned after two seconds, and cues the walk has
    left behind decay below the forgetting threshold.

    The default thresholds keep every fact retrievable and below the
    formation threshold for the length of a repetition, so the fact count
    stays ``size``.  A low ``formation_threshold`` makes every entry form a
    production (the scaling report uses this).
    """
    rng = random.Random(seed)
    order = list(range(size))
    rng.shuffle(order)
    successor = {order[i]: order[(i + 1) % size] for i in range(size)}
    facts = []
    for i in range(size):
        history = sorted(round(-rng.uniform(2.0, 6.0), 3)
                         for _ in range(rng.randint(4, 5)))
        links = sorted({rng.randrange(size) for _ in range(2)} - {i})
        facts.append({
            "tag": "semantic",
            "chunk": {"isa": "fact", "slots": {
                "name": f"f{i}", "next": f"f{successor[i]}", "kind": f"k{i % 8}"}},
            "presentations": history,
            "links": links,
        })
    first = f"f{order[0]}"
    goal = {"isa": "goal", "slots": {"state": "walk", "domain": "fact"}}
    return {
        "name": f"mm-scale-{size}",
        "codebook": {"dimension": 1024, "seed": seed % 100_000},
        "middle_memory": {"spread_weight": 1.5, "retrieval_threshold": 0.3,
                          "forget_threshold": 0.3,
                          "formation_threshold": formation_threshold},
        "learning": {"provisional_ttl_s": 2.0},
        "buffers": [{"name": "goal", "owner": "central"},
                    {"name": "declarative", "owner": "declarative"},
                    {"name": "attention", "owner": "attention"}],
        "shadow_systems": [
            {"name": "declarative", "buffer": "declarative",
             "subscriptions": ["semantic"], "productions": []},
            {"name": "attention", "buffer": "attention", "subscriptions": ["percept"],
             "productions": [{
                 "name": "notice",
                 "conditions": [{"mm_tags": ["percept"],
                                 "pattern": {"isa": "percept", "slots": {"value": "?"}}}],
                 "actions": [{"kind": "write-buffer", "target": "attention",
                              "chunk": {"isa": "percept",
                                        "slots": {"value": "?value"}}}]}]},
        ],
        "central_productions": [
            {"name": "walk",
             "conditions": [
                 {"buffer": "goal", "pattern": {"isa": "goal", "slots": {"state": "walk"}}},
                 {"buffer": "declarative",
                  "pattern": {"isa": "fact", "slots": {"name": "?", "next": "?"}}}],
             "actions": [
                 {"kind": "post-query", "target": "declarative",
                  "query": {"isa": "fact", "slots": {"name": "?next", "next": "?"}}},
                 {"kind": "write-buffer", "target": "goal",
                  "chunk": {"isa": "goal", "slots": {"state": "walk", "domain": "fact",
                                                     "at": "?name"}}}]},
            {"name": "recover",
             "conditions": [
                 {"buffer": "goal", "pattern": {"isa": "goal", "slots": {"state": "walk"}}},
                 {"buffer": "declarative",
                  "pattern": {"isa": "retrieval-failure", "slots": {}}}],
             "actions": [
                 {"kind": "post-query", "target": "declarative",
                  "query": {"isa": "fact", "slots": {"name": first, "next": "?"}}}]},
        ],
        # Cue names sort before fact names, so ties in the predictor go to a
        # cue for a fact near the walk rather than back to a fact name.
        "predictors": [{"name": "sensor", "kind": "associative", "tag": "percept",
                        "pairs": [[f"f{i}", f"cue{i}"] for i in range(size)],
                        "emit_isa": "percept", "emit_slot": "value"}],
        "initial_wm": [
            {"buffer": "goal", "chunk": goal},
            {"buffer": "declarative",
             "query": {"isa": "fact", "slots": {"name": first, "next": "?"}}},
            {"buffer": "attention", "chunk": {"isa": "percept", "slots": {"value": "none"}}},
        ],
        "initial_mm": facts,
    }
