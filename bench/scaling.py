"""Scaling report: where per-cycle cost grows faster than the work asked for.

    python3 bench/scaling.py [--seed 1]

Prints three tables, none of them gated:

* ``cycle_ms`` against the ``mm-scale`` fact count N;
* ``cycle_ms`` per block of 1000 cycles of ``wordloop`` (presentation
  histories grow by one entry a cycle);
* ``cycle_ms`` against N when every entry forms a retrieval production,
  each of which scans all of middle memory every cycle.

All times are host ms per simulated 50 ms cycle, untraced, one repetition
per point.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import statistics
import sys
import time

from workloads import WORKLOADS, import_program, mm_scale_document

SIZES = (100, 200, 400, 800, 1600)
WORDLOOP_CYCLES = 5000
BLOCK = 1000
FORMED_SIZES = (100, 200, 300)
FORMED_CYCLES = 40


def timed_steps(session, cycles: int, each=None) -> list[float]:
    samples = []
    for _ in range(cycles):
        start = time.perf_counter()
        session.step()
        samples.append(time.perf_counter() - start)
        if each is not None:
            each(session)
    return samples


def mm_scale_session(seed: int, size: int, formation_threshold: float = 2.5):
    workload = WORKLOADS["mm-scale"]
    model = importlib.import_module("mmarch.model").parse_model(
        mm_scale_document(seed, size, formation_threshold))
    session = importlib.import_module("mmarch.runtime").Session(
        model, mode=workload.mode, seed=seed)
    timed_steps(session, workload.warmup)
    return session


def by_size(seed: int) -> None:
    cycles = WORKLOADS["mm-scale"].cycles
    print(f"mm-scale: cycle_ms against fact count N ({cycles} timed cycles each)")
    print(f"{'N':>6} {'cycle_ms':>10} {'us/entry':>10} {'rtf':>8}")
    for size in SIZES:
        session = mm_scale_session(seed, size)
        samples = timed_steps(session, cycles)
        median_ms = statistics.median(samples) * 1000.0
        print(f"{size:6d} {median_ms:10.3f} {median_ms * 1000.0 / size:10.2f} "
              f"{50.0 * len(samples) / (sum(samples) * 1000.0):8.2f}")


def by_history(seed: int) -> None:
    workload = dataclasses.replace(WORKLOADS["wordloop-long"], warmup=0)
    source = workload.inputs(seed)
    model = importlib.import_module("mmarch.model").load_model(source)
    session = importlib.import_module("mmarch.runtime").Session(
        model, mode=workload.mode, seed=seed)
    print(f"wordloop: cycle_ms per block of {BLOCK} cycles")
    print(f"{'cycles':>12} {'cycle_ms':>10} {'longest history':>16}")
    for block in range(WORDLOOP_CYCLES // BLOCK):
        samples = timed_steps(session, BLOCK)
        longest = max(len(e.presentations) for e in session.mm.entries.values())
        print(f"{block * BLOCK:5d}-{(block + 1) * BLOCK:<6d} "
              f"{statistics.median(samples) * 1000.0:10.3f} {longest:16d}")


def by_formed(seed: int) -> None:
    print(f"mm-scale, every entry forming a production: cycle_ms against N "
          f"({FORMED_CYCLES} timed cycles each)")
    print(f"{'N':>6} {'formed':>7} {'alive (mean)':>13} {'cycle_ms':>10}")
    for size in FORMED_SIZES:
        session = mm_scale_session(seed, size, formation_threshold=-100.0)
        alive = []
        samples = timed_steps(session, FORMED_CYCLES, lambda s: alive.append(
            sum(not p.permanent for system in s.systems for p in system.productions)))
        formed = sum(1 for e in session.trace.events if e.kind == "form")
        print(f"{size:6d} {formed:7d} {statistics.fmean(alive):13.1f} "
              f"{statistics.median(samples) * 1000.0:10.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    by_size(args.seed)
    print()
    by_history(args.seed)
    print()
    by_formed(args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
