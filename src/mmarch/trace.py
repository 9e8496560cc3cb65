"""Append-only run traces and their newline-delimited JSON file format.

The trace is the substrate for every metric and invariant check: one
header line, then one JSON object per event, totally ordered by
(cycle, sequence number).  Serialization is canonical (fixed key order,
UTF-8, LF), so identical runs produce byte-identical files.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from pathlib import Path

from .chunks import Chunk, Query
from .errors import TraceFormatError, UnsupportedTraceVersion

TRACE_VERSION = 1

EVENT_KINDS = frozenset({
    "deposit", "shadow-fire", "central-fire", "idle", "wm-write", "forget",
    "reward", "utility-update", "interrupt", "delivery", "error", "halt",
    "form", "prune",
})


@dataclass
class TraceEvent:
    cycle: int
    seq: int
    kind: str
    data: dict


@dataclass
class Trace:
    seed: int
    mode: str
    cycle_length_ms: int
    events: list[TraceEvent] = field(default_factory=list)

    def append(self, cycle: int, kind: str, data: dict) -> TraceEvent:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind {kind!r}")
        event = TraceEvent(cycle=cycle, seq=len(self.events), kind=kind, data=data)
        self.events.append(event)
        return event

    def by_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def last_cycle(self) -> int:
        return self.events[-1].cycle if self.events else 0


def content_data(content: Chunk | Query | None) -> dict | None:
    """Trace encoding of a chunk, a query (marked ``"query": true``) or None."""
    if content is None:
        return None
    data = {"id": content.id, "isa": content.ctype, "slots": dict(content.slots)}
    if isinstance(content, Query):
        data["query"] = True
    return data


def _dump_line(payload: dict) -> str:
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":"))


def trace_to_bytes(trace: Trace) -> bytes:
    """Canonical byte rendering; equal traces render equal bytes."""
    out = io.StringIO()
    header = {"version": TRACE_VERSION, "seed": trace.seed, "mode": trace.mode,
              "cycle_length_ms": trace.cycle_length_ms}
    out.write(_dump_line(header))
    out.write("\n")
    for event in trace.events:
        record = {"cycle": event.cycle, "seq": event.seq, "kind": event.kind,
                  "data": event.data}
        out.write(_dump_line(record))
        out.write("\n")
    return out.getvalue().encode("utf-8")


def write_trace(trace: Trace, destination) -> None:
    """Write a trace to a path or binary file object."""
    data = trace_to_bytes(trace)
    if hasattr(destination, "write"):
        destination.write(data)
    else:
        Path(destination).write_bytes(data)


def read_trace(source) -> Trace:
    """Parse a trace from a path or file object.

    Raises :class:`UnsupportedTraceVersion` on a version mismatch and
    :class:`TraceFormatError` (naming the last good line) on damage,
    including an event whose cycle or seq is not an int or whose data is
    not an object.
    """
    if hasattr(source, "read"):
        text = source.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    else:
        text = Path(source).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise TraceFormatError("empty trace file", line=0)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError:
        raise TraceFormatError("malformed header; no good lines before it", line=1) from None
    version = header.get("version")
    if version != TRACE_VERSION:
        raise UnsupportedTraceVersion(
            f"trace version {version!r} unsupported (expected {TRACE_VERSION})")
    for key in ("seed", "mode", "cycle_length_ms"):
        if key not in header:
            raise TraceFormatError(f"header missing {key!r}", line=1)
    trace = Trace(seed=header["seed"], mode=header["mode"],
                  cycle_length_ms=header["cycle_length_ms"])
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            event = TraceEvent(cycle=record["cycle"], seq=record["seq"],
                               kind=record["kind"], data=record["data"])
            if event.kind not in EVENT_KINDS:
                raise KeyError("kind")
            if not (type(event.cycle) is int and type(event.seq) is int
                    and isinstance(event.data, dict)):
                raise TypeError("cycle, seq or data")
        except (json.JSONDecodeError, KeyError, TypeError):
            raise TraceFormatError(
                f"malformed event; last good line was {number - 1}", line=number) from None
        trace.events.append(event)
    return trace
