"""Command-line front end: run, step, inspect, and the bundled demos."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import MMArchError, ModelValidationError
from .memory import CENTRAL
from .metrics import metrics, write_metrics
from .model import ModelDefinition, load_model
from .runtime import Session, run_session
from .trace import write_trace
from . import demos


def _resolve_model(ref: str) -> ModelDefinition:
    path = Path(ref)
    if path.exists():
        return load_model(path)
    bundled = demos.path(ref)
    if bundled is not None:
        return load_model(bundled)
    raise ModelValidationError([("", f"no model file {ref!r} and no bundled demo "
                                     f"by that name (have: {', '.join(demos.names())})")])


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True,
                        help="model file path or bundled demo name")
    parser.add_argument("--cycles", type=_non_negative_int, default=200,
                        help="number of cycles to execute (default 200)")
    parser.add_argument("--mode", choices=("mm", "pipeline"), default="mm")
    parser.add_argument("--seed", type=_non_negative_int, default=0)
    parser.add_argument("--trace", help="write the run trace to this file")
    parser.add_argument("--metrics", help="write run metrics JSON to this file")


def _execute(args, after_step=None) -> Session:
    session = Session(_resolve_model(args.model), mode=args.mode, seed=args.seed)
    return run_session(session, args.cycles, after_step)


def _write(write, artifact, path: str) -> None:
    try:
        write(artifact, path)
    except OSError as exc:
        raise MMArchError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit_artifacts(session: Session, args) -> None:
    if args.trace:
        _write(write_trace, session.trace, args.trace)
    if args.metrics:
        _write(write_metrics, metrics(session.trace), args.metrics)


def _format_content(content) -> str:
    if content is None:
        return "(empty)"
    suffix = f" #{content.id}"
    return f"{content}{suffix}"


def format_state(session: Session, top: int = 5) -> str:
    """Stable, golden-testable dump of the session state."""
    lines = [f"model: {session.model.name}",
             f"mode: {session.mode}",
             f"cycle: {session.cycle}",
             f"time_ms: {session.now_ms}"]
    lines.append("wm:")
    for name in sorted(session.wm.buffers):
        buf = session.wm.buffers[name]
        urgent = " urgent" if buf.urgent else ""
        lines.append(f"  {name} [{buf.owner}]{urgent} {_format_content(buf.content)}")
    mm = session.mm
    table = mm.activations(session.wm, session._cycle_time(session.cycle + 1))
    ranked = sorted(table.items(), key=lambda item: (-item[1], item[0]))
    lines.append(f"mm: top {min(top, len(ranked))} of {len(ranked)}")
    for entry_id, act in ranked[:top]:
        entry = mm.entries[entry_id]
        payload = str(entry.chunk) if entry.chunk is not None else "<vector>"
        lines.append(f"  #{entry.id} act={act:.5f} tag={entry.tag} {payload} "
                     f"pres={len(entry.presentations)}")
    lines.append("conflict:")
    snapshot = session.conflict_snapshot()
    for engine in [CENTRAL] + [s.name for s in session.systems]:
        names = snapshot.get(engine, [])
        lines.append(f"  {engine}: {', '.join(names) if names else '-'}")
    lines.append("utilities:")
    rows = [(CENTRAL, p) for p in session.central_productions]
    for system in session.systems:
        rows.extend((system.name, p) for p in system.productions)
    for owner, production in sorted(rows, key=lambda r: (r[0], r[1].name)):
        flag = "" if production.permanent else " (provisional)"
        lines.append(f"  {owner}/{production.name} = {production.utility:g}{flag}")
    return "\n".join(lines) + "\n"


def cmd_run(args) -> int:
    session = _execute(args)
    _emit_artifacts(session, args)
    summary = metrics(session.trace)
    print(f"{session.model.name}: {summary['cycles']} cycles, "
          f"{summary['central_firings']} central firings, "
          f"mean candidates {summary['central_candidates']['mean']:.2f}, "
          f"mm size {summary['mm_size']['final']}")
    return 0


def cmd_step(args) -> int:
    def show(session: Session) -> None:
        print(format_state(session, top=args.top), end="")

    session = _execute(args, show if args.verbose else None)
    _emit_artifacts(session, args)
    if not args.verbose:
        show(session)
    return 0


def cmd_demos(args) -> int:
    for name in demos.names():
        print(f"{name}\t{demos.path(name)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mm-arch",
        description="Deterministic production-system runtime over a middle memory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a model and write artifacts")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_step = sub.add_parser("step", help="execute cycle by cycle, then dump state")
    _add_common(p_step)
    p_step.add_argument("--top", type=_non_negative_int, default=5,
                        help="middle-memory rows shown")
    p_step.add_argument("--verbose", action="store_true",
                        help="dump state after every cycle")
    p_step.set_defaults(func=cmd_step)

    p_inspect = sub.add_parser("inspect", help="run N cycles and dump state")
    _add_common(p_inspect)
    p_inspect.add_argument("--top", type=_non_negative_int, default=5,
                           help="middle-memory rows shown")
    p_inspect.set_defaults(func=cmd_step, cycles=0, verbose=False)

    p_demos = sub.add_parser("demos", help="list bundled demo models")
    p_demos.set_defaults(func=cmd_demos)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MMArchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
