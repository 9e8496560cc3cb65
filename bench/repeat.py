"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/repeat.py --runs 10 --workload mm-scale --out bench/results/x.json

Each run is ``bench/run.py`` in its own process with seed ``first-seed + i``.
For every metric the summary gives the median, the quartiles as
``statistics.quantiles(values, n=4)`` computes them, and the spread: the
distance between the quartiles as a share of the median.  ``--out`` writes
the values, the summary and the provenance of the first run as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, provenance) of one benchmark run."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                          cwd=BENCH.parent)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    prov = next((json.loads(line.split(" ", 1)[1]) for line in lines
                 if line.startswith("provenance ")), {})
    return json.loads(lines[-1]), prov


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="repeatable; default every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write values and summary to this JSON file")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workload or sorted(WORKLOADS):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        failed = attempted = 0
        provenance = None
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        for seed in seeds:
            result, prov = run_once(workload, seed, args.seconds, args.trace)
            provenance = provenance or prov
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        summary = {name: summarise(v) for name, v in values.items()}
        print(f"{workload}: {len(seeds)} runs, seeds {seeds[0]}..{seeds[-1]}, "
              f"failed {failed}/{attempted} sessions")
        for name, s in summary.items():
            print(f"  {name:36s} median {s['median']:12.6f} {units[name]:12s} "
                  f"q1 {s['q1']:12.6f} q3 {s['q3']:12.6f} spread {s['spread']:7.2%}")
        report["workloads"][workload] = {
            "seeds": seeds, "failed": failed, "attempted": attempted, "units": units,
            "values": values, "summary": summary, "provenance": provenance}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
