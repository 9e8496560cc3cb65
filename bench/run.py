"""Cycle-loop benchmark for mm-arch.

    python3 bench/run.py --workload mm-scale --seed 3 --seconds 15 --trace 0

One process, no threads, a closed loop: each ``Session.step`` starts when the
previous one returns.  A repetition is set-up (load the model, build the
session, run the warm-up cycles), the timed cycles, and the report pass
(``trace_to_bytes`` plus ``metrics``).  Repetitions start while at least
half a repetition's time is left of ``--seconds``.  Every time is host
time; the simulated cycle is always 50 ms.

Host speed on a shared machine drifts by up to about 1.8x over seconds to
minutes, so every timing is calibrated: a fixed pure-Python kernel runs
between cycles (about every 50 ms, at fixed cycles so that allocation and
garbage collection stay repeatable) and around each set-up and report pass, and
each time is scaled by ``CAL_REF_S`` / (the kernel's time nearby).  Times
are therefore host ms on a host where the kernel takes ``CAL_REF_S``; the
raw values are printed too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions (see ``layers.py``) and reports per-layer
self time and exact work counts, normalised per timed cycle unless the
name says per run.

Every run is checked: repetitions of one seed must give identical trace
bytes, a fresh child process must reproduce them, and the workload at its
reference seed must reproduce the pinned SHA-256 (``mm-scale`` with its
shadow systems stepped in reverse order).  Traced bytes must equal untraced
bytes.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from layers import Tracer, layer_self_s, window
from workloads import PINNED, REFERENCE_SEED, ROOT, SRC, WORKLOADS, Workload, import_program

REPORT_PASSES = 9  # report passes per repetition
MIN_SETUPS = 9  # set-ups per run at least; setup_s is their median
EXTRA_SETUPS = 2  # set-ups after each repetition, beyond its own
MIN_TIMED_CYCLES = 100  # so the 90th percentile has ten samples beyond it
CHILD_TIMEOUT_S = 150
CAL_NEAREST = 3  # calibration samples that set one cycle's scale
CAL_WARMUP = 20  # kernel runs before the first measurement
CAL_BRACKET = 3  # kernel runs on each side of a set-up or report pass
# The calibration kernel's time on the reference host (Xeon, 2.1 GHz, Python
# 3.11) when nothing else competes for the core.  Changing the kernel or
# this constant changes every reported time.
CAL_REF_S = 0.00075


def calibration_kernel() -> float:
    """Host seconds for a fixed piece of set, tuple and float work."""
    start = time.perf_counter()
    total = 0.0
    for i in range(1500):
        if frozenset((i, i + 1, i + 2)) & {i + 1}:
            total += (i + 1.5) ** -0.5
    return time.perf_counter() - start


def bracket_kernel() -> float:
    """Calibration around a short timing: the median of ``CAL_BRACKET`` kernels."""
    return statistics.median(calibration_kernel() for _ in range(CAL_BRACKET))


def _program(name: str):
    import_program()
    return importlib.import_module(f"mmarch.{name}")


@dataclass
class Rep:
    """One repetition's raw host times, calibration samples and trace digest."""

    samples: list[float]  # seconds of each timed Session.step
    cal: list[tuple[int, float]]  # (timed cycle index, kernel seconds)
    setup_s: float
    setup_cal: float  # kernel seconds around the set-up
    report_s: list[float]
    report_cal: list[float]  # kernel seconds around each report pass
    cycle_s: float  # simulated seconds per cycle
    digest: str  # SHA-256 of the canonical trace bytes
    data: bytes = b""  # the trace bytes themselves
    sizes: list[int] = field(default_factory=list)  # middle-memory entries per cycle

    def scaled_samples(self) -> list[float]:
        """Each cycle's time scaled by the calibration samples nearest to it."""
        where = [i for i, _ in self.cal]
        out = []
        for i, sample in enumerate(self.samples):
            at = bisect.bisect_left(where, i)
            near = sorted(self.cal[max(0, at - CAL_NEAREST):at + CAL_NEAREST],
                          key=lambda c: abs(c[0] - i))[:CAL_NEAREST]
            out.append(sample * CAL_REF_S / statistics.median(k for _, k in near))
        return out

    def scaled_setup(self) -> float:
        return self.setup_s * CAL_REF_S / self.setup_cal

    def scaled_reports(self) -> list[float]:
        return [s * CAL_REF_S / k for s, k in zip(self.report_s, self.report_cal)]

    def scale(self) -> float:
        """Calibration factor for the whole timed loop."""
        return CAL_REF_S / statistics.median(k for _, k in self.cal)


def setup(workload: Workload, seed: int, reverse: bool = False):
    """Load the model, build the session, run the warm-up; returns (session, s)."""
    source = workload.inputs(seed)  # the benchmark's input, made before timing
    model_mod, runtime = _program("model"), _program("runtime")
    start = time.perf_counter()
    if isinstance(source, Path):
        model = model_mod.load_model(source)
    else:
        model = model_mod.parse_model(source)
    session = runtime.Session(model, mode=workload.mode, seed=seed,
                              shadow_step_order=workload.shadow_order(reverse))
    for _ in range(workload.warmup):
        session.step()
    return session, time.perf_counter() - start


def scaled_setup(workload: Workload, seed: int) -> float:
    before = bracket_kernel()
    _, seconds = setup(workload, seed)
    return seconds * CAL_REF_S / statistics.fmean((before, bracket_kernel()))


def run_rep(workload: Workload, seed: int, *, reverse: bool = False,
            report_passes: int = REPORT_PASSES, mark=None,
            record_sizes: bool = False, cycles: int | None = None) -> Rep:
    """One repetition; ``mark(label)`` is called at each window boundary.

    ``cycles`` shortens the timed part; such a repetition's trace is not the
    workload's, and with ``report_passes=0`` its bytes are not rendered.
    """
    mark = mark or (lambda label: None)
    trace_mod, metrics_mod = _program("trace"), _program("metrics")
    clock = time.perf_counter
    before = bracket_kernel()
    mark("setup")
    session, setup_s = setup(workload, seed, reverse)
    mark("timed")
    setup_cal = statistics.fmean((before, bracket_kernel()))
    cal = [(0, setup_cal)]
    step = session.step
    samples, sizes = [], []
    for i in range(workload.cycles if cycles is None else cycles):
        start = clock()
        step()
        end = clock()
        samples.append(end - start)
        if record_sizes:
            sizes.append(len(session.mm))
        if (i + 1) % workload.cal_every == 0:
            cal.append((i, calibration_kernel()))
    cal.append((len(samples), calibration_kernel()))
    mark("timed_end")
    session.finish()
    data, report_s, report_cal = b"", [], []
    for _ in range(report_passes):
        before = bracket_kernel()
        mark("report")
        start = clock()
        data = trace_mod.trace_to_bytes(session.trace)
        metrics_mod.metrics(session.trace)
        report_s.append(clock() - start)
        mark("report_end")
        report_cal.append(statistics.fmean((before, bracket_kernel())))
    return Rep(samples, cal, setup_s, setup_cal, report_s, report_cal,
               session.model.cycle_length_ms / 1000.0,
               hashlib.sha256(data).hexdigest(), data, sizes)


class Checks:
    """Sessions attempted and failed; a failure is an exception or wrong bytes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def attempt(self, what: str, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception:  # a session that raised is a failed run, not a crash
            self.failed += 1
            self.notes.append(f"{what}: raised")
            traceback.print_exc(file=sys.stderr)
            return None

    def expect(self, what: str, ok: bool) -> None:
        if not ok:
            self.failed += 1
            self.notes.append(f"{what}: trace bytes differ")

    def reference(self, workload: Workload) -> None:
        """The reference seed must reproduce the pinned trace hash."""
        rep = self.attempt("reference", lambda: run_rep(
            workload, REFERENCE_SEED, reverse=True, report_passes=1))
        if rep is not None:
            self.expect(f"reference seed {REFERENCE_SEED} vs pinned hash",
                        rep.digest == PINNED[workload.name])


def child_run(workload: Workload, seed: int, checks: Checks) -> tuple[Rep, float] | None:
    """One repetition in a fresh process: the repetition and its peak RSS in MB."""
    checks.attempted += 1
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload.name, "--seed", str(seed)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        checks.failed += 1
        checks.notes.append(f"child process: {exc!r}")
        return None
    if done.returncode != 0:
        checks.failed += 1
        checks.notes.append(f"child process exited {done.returncode}")
        sys.stderr.write(done.stderr)
        return None
    maxrss_kb = result.pop("maxrss_kb")
    result["cal"] = [tuple(c) for c in result["cal"]]
    return Rep(**result), maxrss_kb / 1024.0


def peak_rss_kb() -> int:
    """This process's peak resident set size in KB.

    ``VmHWM`` belongs to the process image, so unlike ``ru_maxrss`` it does
    not inherit the peak of the parent that spawned this process.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def child_main(workload: Workload, seed: int) -> int:
    rep = run_rep(workload, seed, report_passes=1)
    maxrss_kb = peak_rss_kb()
    fields = {name: getattr(rep, name) for name in (
        "samples", "cal", "setup_s", "setup_cal", "report_s", "report_cal",
        "cycle_s", "digest")}
    print(json.dumps({"maxrss_kb": maxrss_kb, **fields}))
    return 0


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(workload: Workload, seed: int, seconds: float, checks: Checks):
    """Repetitions until ``seconds`` have passed, one more in a fresh process.

    Each timed cycle's cost is the fastest of the repetitions at that cycle,
    after calibration; the cycle metrics describe the distribution of those
    per-cycle floors over the timed cycles.  Set-ups (``EXTRA_SETUPS`` more
    after each repetition) and report passes are spread over the run; their
    medians are reported.
    """
    reps: list[Rep] = []
    setups: list[float] = []
    deadline = time.perf_counter() + seconds
    last_s = 0.0  # host seconds of the last repetition
    while not reps or time.perf_counter() + last_s / 2 < deadline:
        started = time.perf_counter()
        rep = checks.attempt("repetition", lambda: run_rep(workload, seed))
        last_s = time.perf_counter() - started
        if rep is None:
            if checks.failed >= 3:
                break
            continue
        if reps:
            checks.expect("repeated seed", rep.digest == reps[0].digest)
        reps.append(rep)
        setups.append(rep.scaled_setup())
        for _ in range(EXTRA_SETUPS):
            got = checks.attempt("set-up", lambda: scaled_setup(workload, seed))
            if got is not None:
                setups.append(got)
    if not reps:
        return None, {}
    while len(setups) < MIN_SETUPS:
        got = checks.attempt("set-up", lambda: scaled_setup(workload, seed))
        if got is None:
            break
        setups.append(got)
    child = child_run(workload, seed, checks)
    peak_rss_mb = None
    if child is not None:
        checks.expect("fresh process", child[0].digest == reps[0].digest)
        reps.append(child[0])
        setups.append(child[0].scaled_setup())
        peak_rss_mb = child[1]
    if seed == REFERENCE_SEED:
        checks.expect("pinned hash", reps[0].digest == PINNED[workload.name])
    checks.reference(workload)

    floors = [min(column) for column in zip(*(r.scaled_samples() for r in reps))]
    if len(floors) < MIN_TIMED_CYCLES:
        raise SystemExit(f"only {len(floors)} timed cycles; need {MIN_TIMED_CYCLES}")
    metrics = {
        "cycle_ms": (statistics.median(floors) * 1000.0, "ms"),
        "cycle_ms_p90": (statistics.quantiles(floors, n=10)[-1] * 1000.0, "ms"),
        "rtf": (reps[0].cycle_s * len(floors) / sum(floors), "x"),
        "setup_s": (statistics.median(setups), "s"),
        "report_s": (statistics.median(s for r in reps for s in r.scaled_reports()), "s"),
    }
    if peak_rss_mb is not None:
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    raw = [s for r in reps for s in r.samples]
    facts = {"repetitions": len(reps), "timed_cycles": len(floors),
             "setups": len(setups), "digest": reps[0].digest,
             "raw_cycle_ms_median": statistics.median(raw) * 1000.0,
             "raw_setup_s_median": statistics.median(r.setup_s for r in reps),
             "calibration_kernel_ms_median": statistics.median(
                 k for r in reps for _, k in r.cal) * 1000.0}
    return metrics, facts


def _timed_window_bytes(data: bytes, trace_events, first: int, last: int) -> int:
    """Bytes of the trace lines whose event falls in cycles [first, last)."""
    lines = data.split(b"\n")[1:]  # line 0 is the header
    return sum(len(line) + 1 for line, event in zip(lines, trace_events)
               if first <= event.cycle < last)


def traced_rep(workload: Workload, seed: int) -> tuple[Rep, dict]:
    """One repetition with the tracer installed; returns its per-layer metrics."""
    marks: dict[str, list[dict]] = {}
    with Tracer() as tracer:
        rep = run_rep(workload, seed, record_sizes=True,
                      mark=lambda label: marks.setdefault(label, []).append(
                          tracer.snapshot()))
    setup_w = window(marks["setup"][0], marks["timed"][0])
    w = window(marks["timed"][0], marks["timed_end"][0])
    report_ws = [window(a, b) for a, b in zip(marks["report"], marks["report_end"])]
    cycles = workload.cycles
    entries = statistics.fmean(rep.sizes)
    trace = _program("trace").read_trace(io.BytesIO(rep.data))
    first, last = workload.warmup, workload.warmup + workload.cycles
    candidates = [e.data["candidates"] for e in trace.events
                  if e.kind in ("central-fire", "idle") and first <= e.cycle < last]
    loop_scale = rep.scale() * 1000.0 / cycles  # raw seconds -> calibrated ms/cycle
    setup_scale = CAL_REF_S / rep.setup_cal * 1000.0

    def per_cycle(key):
        return w.get(key, 0) / cycles

    def ms(span):
        return w.get(f"{span}.self_s", 0.0) * loop_scale

    def ratio(num, den):
        return num / den if den else 0.0

    def report_ms(key):
        return _median([r.get(key, 0.0) * CAL_REF_S / k * 1000.0
                        for r, k in zip(report_ws, rep.report_cal)])

    evals = per_cycle("memory.activation.calls")
    answers = w.get("shadows.decide.answer", 0)
    counts = {
        "memory.activation.evals": (evals, "count/cycle"),
        "memory.activation.evals_per_entry": (ratio(evals, entries), "count/entry"),
        "memory.base_level.terms": (per_cycle("memory.base_level.terms"), "count/cycle"),
        "memory.retrieve.calls": (per_cycle("memory.retrieve.calls"), "count/cycle"),
        "memory.retrieve.scanned": (per_cycle("memory.retrieve.scanned"), "count/cycle"),
        "memory.retrieve.hit_ratio": (ratio(w.get("memory.retrieve.hits", 0),
                                            w.get("memory.retrieve.scanned", 0)), "ratio"),
        "memory.retrievable.calls": (per_cycle("memory.retrievable.calls"), "count/cycle"),
        "memory.deposit.calls": (per_cycle("memory.deposit.calls"), "count/cycle"),
        "memory.size": (entries, "count"),
        "codec.pack.calls": (per_cycle("codec.pack.calls"), "count/cycle"),
        "codec.fft_calls": (per_cycle("codec.fft"), "count/cycle"),
        "codec.pack.repeat_ratio": (ratio(w.get("codec.pack.repeats", 0),
                                          w.get("codec.pack.calls", 0)), "ratio"),
        "productions.match_tests": (per_cycle("chunks.match_query"), "count/cycle"),
        "productions.central_candidates": (sum(candidates) / cycles, "count/cycle"),
        "productions.conflict_ratio": (ratio(w.get("productions.matched", 0),
                                             w.get("productions.tested", 0)), "ratio"),
        "productions.fire.calls": (per_cycle("productions.fire.calls"), "count/cycle"),
        "productions.formed": (per_cycle("productions.formed"), "count/cycle"),
        "shadows.decide.calls": (per_cycle("shadows.decide.calls"), "count/cycle"),
        "shadows.answer_ratio": (ratio(answers, answers + w.get("shadows.decide.miss", 0)),
                                 "ratio"),
        "predictors.deliver.calls": (per_cycle("predictors.deliver.calls"), "count/cycle"),
        "predictors.predictions": (per_cycle("predictors.predictions"), "count/cycle"),
        "trace.events": (per_cycle("trace.append.calls"), "count/cycle"),
        "trace.bytes": (_timed_window_bytes(rep.data, trace.events, first, last) / cycles,
                        "B/cycle"),
    }
    times = {
        "memory.spreading.ms": (ms("memory.spreading"), "ms/cycle"),
        "memory.base_level.ms": (ms("memory.base_level"), "ms/cycle"),
        "memory.retrievable.ms": (ms("memory.retrievable"), "ms/cycle"),
        "memory.sweep.ms": (ms("memory.sweep"), "ms/cycle"),
        "memory.context.ms": (ms("memory.context"), "ms/cycle"),
        "memory.deposit.ms": (ms("memory.deposit"), "ms/cycle"),
        "codec.pack.ms": (ms("codec.pack"), "ms/cycle"),
        "productions.match_all.ms": (ms("productions.match_all"), "ms/cycle"),
        "shadows.decide.ms": (ms("shadows.decide"), "ms/cycle"),
        "predictors.deliver.ms": (ms("predictors.deliver"), "ms/cycle"),
        "trace.append.ms": (ms("trace.append"), "ms/cycle"),
        "runtime.step.self_ms": (ms("runtime.step"), "ms/cycle"),
        "trace.to_bytes_ms": (report_ms("trace.to_bytes.total_s"), "ms"),
        "metrics.ms": (report_ms("metrics.metrics.total_s"), "ms"),
        "model.load_ms": (setup_w.get("model.load.self_s", 0.0) * setup_scale, "ms"),
        "runtime.session_init_ms": (
            setup_w.get("runtime.session_init.total_s", 0.0) * setup_scale, "ms"),
    }
    spans = {key[:-len(".self_s")]: value * loop_scale
             for key, value in w.items() if key.endswith(".self_s") and value}
    layers = {name: value * loop_scale for name, value in layer_self_s(w).items() if value}
    return rep, {"counts": counts, "times": times, "spans": spans, "layers": layers}


def retained_kb_per_cycle(workload: Workload, seed: int) -> float:
    """Python memory allocated and still live, per cycle, over a prefix.

    tracemalloc makes every allocation about ten times slower, so it runs
    only over the first ``workload.memory_cycles`` timed cycles of a
    separate repetition, started after set-up.
    """
    seen = {}

    def mark(label):
        if label == "timed":
            tracemalloc.start()
            seen[label] = tracemalloc.get_traced_memory()[0]
        elif label == "timed_end":
            seen[label] = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()

    try:
        run_rep(workload, seed, report_passes=0, mark=mark,
                cycles=workload.memory_cycles)
    finally:
        tracemalloc.stop()
    return (seen["timed_end"] - seen["timed"]) / 1024.0 / workload.memory_cycles


def per_layer(workload: Workload, seed: int, seconds: float, checks: Checks):
    """Untraced and traced repetitions alternately, then one tracemalloc prefix."""
    plain: list[Rep] = []
    traced: list[tuple[Rep, dict]] = []
    deadline = time.perf_counter() + seconds
    last_s = 0.0  # host seconds of the last repetition
    while not (plain and traced) or time.perf_counter() + last_s / 2 < deadline:
        started = time.perf_counter()
        if len(plain) <= len(traced):
            rep = checks.attempt("untraced repetition", lambda: run_rep(
                workload, seed, report_passes=1))
            if rep is not None:
                plain.append(rep)
        else:
            got = checks.attempt("traced repetition", lambda: traced_rep(workload, seed))
            if got is not None:
                traced.append(got)
        last_s = time.perf_counter() - started
        if checks.failed >= 3 and not (plain and traced):
            return None, {}
    memory = checks.attempt("tracemalloc repetition",
                            lambda: retained_kb_per_cycle(workload, seed))
    checks.reference(workload)

    first = plain[0].digest
    for rep in plain[1:]:
        checks.expect("repeated seed", rep.digest == first)
    for rep, _ in traced:
        checks.expect("traced vs untraced", rep.digest == first)
    if seed == REFERENCE_SEED:
        checks.expect("pinned hash", first == PINNED[workload.name])
    for _, layers in traced[1:]:
        if layers["counts"] != traced[0][1]["counts"]:
            checks.failed += 1
            checks.notes.append("work counts differ between traced repetitions")

    untraced_ms = statistics.median(s for r in plain for s in r.scaled_samples())
    traced_ms = statistics.median(s for r, _ in traced for s in r.scaled_samples())
    metrics = dict(traced[0][1]["counts"])
    for name, (_, unit) in traced[0][1]["times"].items():
        metrics[name] = (_median([layers["times"][name][0] for _, layers in traced]), unit)
    if memory is not None:
        metrics["memory.retained_kb_per_cycle"] = (memory, "KB/cycle")
    metrics["trace.overhead_ratio"] = (traced_ms / untraced_ms, "ratio")
    spans = {name: _median([layers["spans"].get(name, 0.0) for _, layers in traced])
             for name in traced[0][1]["spans"]}
    layer_ms = {name: _median([layers["layers"].get(name, 0.0) for _, layers in traced])
                for name in traced[0][1]["layers"]}
    dominant = max(spans, key=spans.get)
    facts = {"untraced_repetitions": len(plain), "traced_repetitions": len(traced),
             "digest": first, "dominant_self_time": dominant,
             "dominant_share_of_traced_step": spans[dominant] / sum(spans.values()),
             "span_self_ms_per_cycle": spans, "layer_self_ms_per_cycle": layer_ms}
    return metrics, facts


def provenance(workload: Workload, seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        features = np._core._multiarray_umath.__cpu_features__
        simd = sorted(name for name, on in features.items() if on)
    except AttributeError:
        simd = []
    commit, dirty = None, None
    if (ROOT / ".git").exists():
        git = ["git", f"--git-dir={ROOT / '.git'}", f"--work-tree={ROOT}"]
        try:
            commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
            status = subprocess.run(git + ["status", "--porcelain", "--", "src"],
                                    capture_output=True, text=True, timeout=30).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "mmarch").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            source.update(str(path.relative_to(SRC)).encode())
            source.update(path.read_bytes())
    return {
        "cpu": cpu, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__, "simd": simd,
        "git_commit": commit, "git_dirty": dirty, "source_sha256": source.hexdigest(),
        "workload": workload.name, "mode": workload.mode, "seed": seed,
        "reference_seed": REFERENCE_SEED, "warmup_cycles": workload.warmup,
        "timed_cycles_per_repetition": workload.cycles, "size": workload.size or None,
        "calibration_reference_ms": CAL_REF_S * 1000.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    for _ in range(CAL_WARMUP):  # the interpreter specialises the kernel's code
        calibration_kernel()
    if args.child:
        return child_main(workload, args.seed)

    checks = Checks()
    if args.trace:
        metrics, facts = per_layer(workload, args.seed, args.seconds, checks)
    else:
        metrics, facts = end_to_end(workload, args.seed, args.seconds, checks)
    if metrics is None:
        print("no repetition completed: " + "; ".join(checks.notes), file=sys.stderr)
        return 1

    print(f"workload {workload.name} ({workload.mode} mode), seed {args.seed}: {workload.why}")
    print("provenance " + json.dumps(provenance(workload, args.seed), sort_keys=True))
    print("run " + json.dumps(facts, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6f} {unit}")
    failed_frac = checks.failed / checks.attempted
    print(f"{'failed_frac':36s} {failed_frac:14.6f} fraction of {checks.attempted} sessions")
    for note in checks.notes:
        print(f"FAILED {note}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
