"""Paired A/B timing of two source trees, in one process, on one benchmark workload.

    python tools/ab.py --base DIR --change DIR --workload wordloop-long --seed 3
    python tools/ab.py --base DIR --change DIR --workload mm-scale --setup --rounds 40
    python tools/ab.py --base DIR --change DIR --workload mm-scale --seed 0 --rounds 2

Each tree's ``src/mmarch`` is imported under its own package name (the
sources import one another only relatively), so both trees run in one
process on the same host at the same moment.  A round builds one session per
tree, runs the workload's warm-up, then steps the two sessions through the
timed cycles in alternating blocks of ``--block`` cycles.  Each block of the
change, over the same cycles' block of the base, is one pair's ratio.  With
``--setup`` a round times the build instead (parse or load, ``Session()``
and the warm-up), and its one pair's ratio is the change's build time over
the base's; nothing is stepped after the warm-up.  A ``gc.collect()`` runs
before every build, so that neither tree pays for the other's garbage, and
each imported copy builds once untimed before the first round, so that no
round pays for the process's first build (lazy imports, cold caches).

Position is balanced: within a round the tree that steps first alternates
from pair to pair, and from round to round which tree is built first
alternates, and so does the copy of each tree's modules it runs (each tree
is imported twice, the copies in the order base, change, change, base).  A
tree that held one position throughout would carry that position's cost
into every ratio.  Run an even number of rounds, so that each tree holds
each position equally often.

The report gives the median ratio with a bootstrap 95% interval (resampled
from a fixed seed), the number of pairs in which the change was slower, and
each tree's trace digest (SHA-256 of its canonical trace bytes; with
``--setup``, of the trace as the warm-up leaves it).  The
process exits 1 if the two trees' traces differ.  A run of the workload's
full cycles at the reference seed (``--seed 0``, with neither ``--cycles``
nor ``--setup``) also checks each digest against the workload's pin,
``PINNED`` in ``bench/workloads.py``: a tree whose digest differs has its
line marked ``PIN DIFFERS``, and the process exits 1.  Workloads are those
of ``bench/workloads.py`` in this checkout; ``bench/run.py`` remains the
benchmark, and no number here gates anything.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import random
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("base", "change")
RESAMPLES = 2000
RESAMPLE_SEED = 0


def _import(name: str, path: Path, search: list[str] | None = None):
    """Import the file ``path`` as the module ``name`` (a package, given ``search``)."""
    spec = importlib.util.spec_from_file_location(name, path,
                                                  submodule_search_locations=search)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


workloads = _import("ab_workloads", ROOT / "bench" / "workloads.py")


def load_tree(root: Path, name: str):
    """Import ``root/src/mmarch`` as the package ``name``, with its submodules,
    in place of any package imported under that name before."""
    source = Path(root) / "src" / "mmarch"
    if not (source / "__init__.py").is_file():
        raise FileNotFoundError(f"no mmarch package under {root}")
    for stale in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[stale]
    package = _import(name, source / "__init__.py", [str(source)])
    for module in ("demos", "model", "runtime", "trace"):
        importlib.import_module(f"{name}.{module}")
    return package


def load_trees(base: Path, change: Path) -> dict[str, list]:
    """Each tree imported twice, as ``ab_<tree>_<copy>``, in the order
    base, change, change, base."""
    order = [("base", 0), ("change", 0), ("change", 1), ("base", 1)]
    roots = {"base": base, "change": change}
    loaded = {tree: [None, None] for tree in TREES}
    for tree, copy in order:
        loaded[tree][copy] = load_tree(roots[tree], f"ab_{tree}_{copy}")
    return loaded


def build(package, workload, seed: int):
    """A session of ``workload`` at ``seed`` from ``package``, warmed up."""
    if workload.demo is not None:
        model = package.model.load_model(package.demos.path(workload.demo))
    else:
        model = package.model.parse_model(workloads.mm_scale_document(seed, workload.size))
    session = package.runtime.Session(model, mode=workload.mode, seed=seed)
    for _ in range(workload.warmup):
        session.step()
    return session


def digest(package, session) -> str:
    session.finish()
    return hashlib.sha256(package.trace.trace_to_bytes(session.trace)).hexdigest()


def bootstrap_median(ratios: list[float], resamples: int = RESAMPLES,
                     seed: int = RESAMPLE_SEED) -> tuple[float, float]:
    """The 2.5th and 97.5th percentiles of the median of resampled ratios."""
    draw = random.Random(seed).choices
    medians = sorted(statistics.median(draw(ratios, k=len(ratios))) for _ in range(resamples))
    return medians[int(0.025 * resamples)], medians[int(0.975 * resamples) - 1]


@dataclass
class Report:
    workload: str
    seed: int
    rounds: int
    block: int
    ratios: list[float]  # change seconds / base seconds, one per pair
    digests: dict[str, str]  # tree -> trace digest, the same in every round
    setup: bool = False  # the pairs time builds, not blocks of cycles
    pinned: str | None = None  # the digest both trees must have, when one is pinned

    @property
    def equal(self) -> bool:
        return self.digests["base"] == self.digests["change"]

    def differs(self, tree: str) -> bool:
        """Whether ``tree``'s digest is not the pinned one."""
        return self.pinned is not None and self.digests[tree] != self.pinned

    @property
    def passed(self) -> bool:
        return self.equal and not any(map(self.differs, TREES))

    def lines(self) -> list[str]:
        low, high = bootstrap_median(self.ratios)
        slower = sum(ratio > 1.0 for ratio in self.ratios)
        timed = "set-ups" if self.setup else f"up to {self.block} cycles"
        return [
            f"{self.workload} seed {self.seed}: {self.rounds} rounds, {len(self.ratios)} pairs "
            f"of {timed}",
            f"change/base median {statistics.median(self.ratios):.3f}, 95% interval "
            f"[{low:.3f}, {high:.3f}], change slower in {slower} of {len(self.ratios)} pairs",
            f"base digest   {self.digests['base']}"
            + ("  PIN DIFFERS" if self.differs("base") else ""),
            f"change digest {self.digests['change']}"
            + ("" if self.equal else "  TRACES DIFFER")
            + ("  PIN DIFFERS" if self.differs("change") else ""),
        ]


def compare(trees: dict[str, list], workload_name: str, seed: int, *, rounds: int = 4,
            block: int | None = None, cycles: int | None = None, setup: bool = False,
            clock=time.perf_counter) -> Report:
    """Time ``trees`` (from :func:`load_trees`) against each other: blocks
    of cycles, or with ``setup`` each round's builds.

    ``cycles`` shortens a round's timed part (its trace is then not the
    workload's); ``block`` defaults to a thirtieth of the timed cycles.
    The workload's full cycles at the reference seed carry its pin.
    """
    workload = workloads.WORKLOADS[workload_name]
    pinned = (workloads.PINNED[workload_name]
              if seed == workloads.REFERENCE_SEED and cycles is None and not setup else None)
    cycles = 0 if setup else workload.cycles if cycles is None else cycles
    block = block or max(1, cycles // 30)
    ratios: list[float] = []
    digests: dict[str, set[str]] = {tree: set() for tree in TREES}
    if setup:  # untimed: a process's first build costs more than any later one
        for copies in trees.values():
            for package in copies:
                build(package, workload, seed)
    for round_ in range(rounds):
        copy = round_ % 2
        built_first = TREES if round_ % 2 == 0 else TREES[::-1]
        sessions, built = {}, {}
        for tree in built_first:
            gc.collect()
            began = clock()
            sessions[tree] = build(trees[tree][copy], workload, seed)
            built[tree] = clock() - began
        if setup:
            ratios.append(built["change"] / built["base"])
        for start in range(0, cycles, block):
            steps = min(block, cycles - start)
            first = TREES if len(ratios) % 2 == 0 else TREES[::-1]
            seconds = {}
            for tree in first:
                step = sessions[tree].step
                began = clock()
                for _ in range(steps):
                    step()
                seconds[tree] = clock() - began
            ratios.append(seconds["change"] / seconds["base"])
        for tree in TREES:
            digests[tree].add(digest(trees[tree][copy], sessions[tree]))
    for tree, seen in digests.items():
        if len(seen) != 1:
            raise RuntimeError(f"the {tree} tree's trace differs between rounds")
    return Report(workload_name, seed, rounds, block, ratios,
                  {tree: seen.pop() for tree, seen in digests.items()}, setup, pinned)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the base tree")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout of the changed tree")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=4,
                        help="sessions built per tree; an even count balances positions")
    parser.add_argument("--block", type=int, default=None,
                        help="cycles per block (default: a thirtieth of the timed cycles)")
    parser.add_argument("--cycles", type=int, default=None,
                        help="timed cycles per round (default: the workload's)")
    parser.add_argument("--setup", action="store_true",
                        help="time each round's builds (parse, Session() and warm-up) "
                             "instead of its cycles")
    args = parser.parse_args(argv)
    if args.rounds < 1 or (args.block is not None and args.block < 1) or (
            args.cycles is not None and args.cycles < 1):
        parser.error("--rounds, --block and --cycles must be positive")
    report = compare(load_trees(args.base, args.change), args.workload, args.seed,
                     rounds=args.rounds, block=args.block, cycles=args.cycles,
                     setup=args.setup)
    print("\n".join(report.lines()))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
