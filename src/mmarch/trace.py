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
        # Exact, as read_trace requires, so trace_to_bytes's %d is JSON's.
        if type(cycle) is not int:
            raise TypeError(f"trace cycle must be an int, not {type(cycle).__name__}")
        event = TraceEvent(cycle=cycle, seq=len(self.events), kind=kind, data=data)
        self.events.append(event)
        return event

    def by_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]


def content_data(content: Chunk | Query | None) -> dict | None:
    """Trace encoding of a chunk, a query (marked ``"query": true``) or None."""
    if content is None:
        return None
    data = {"id": content.id, "isa": content.ctype, "slots": dict(content.slots)}
    if isinstance(content, Query):
        data["query"] = True
    return data


# One compact JSON line, non-ASCII kept raw, for the trace file and the wire
# alike: the text of ``json.dumps(obj, ensure_ascii=False,
# separators=(",", ":"))``.  ``JSONEncoder.encode`` builds a new C encoder on
# every call, so one is built here and reused.  Its ``markers`` is None: a
# shared markers dict keeps stale ids after a failed encode, and nothing
# encoded here can be circular.  Its ``default`` is the stock one, so an
# unserializable value raises the usual "is not JSON serializable".  It
# needs CPython's ``_json`` accelerator, which every CPython build has.
_ENCODER = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring, None,
    ":", ",", False, False, True)


def encode_line(obj) -> str:
    return "".join(_ENCODER(obj, 0))


def trace_to_bytes(trace: Trace) -> bytes:
    """Canonical byte rendering: the header, then one event a line, each
    the :func:`encode_line` text of its ``{"cycle","seq","kind","data"}``
    record, LF-terminated, UTF-8.  Equal traces render equal bytes.  Each
    event's cycle and seq must be ints and its kind one of
    :data:`EVENT_KINDS`, as :meth:`Trace.append` and :func:`read_trace`
    ensure."""
    out = io.StringIO()
    header = {"version": TRACE_VERSION, "seed": trace.seed, "mode": trace.mode,
              "cycle_length_ms": trace.cycle_length_ms}
    out.write(encode_line(header))
    out.write("\n")
    for event in trace.events:
        # Only data goes through the encoder: cycle and seq are exact ints
        # and kind a known name, so %d and %s print what it would.
        out.write('{"cycle":%d,"seq":%d,"kind":"%s","data":'
                  % (event.cycle, event.seq, event.kind)
                  + encode_line(event.data) + "}\n")
    return out.getvalue().encode("utf-8")


def write_trace(trace: Trace, destination) -> None:
    """Write a trace to a path or binary file object."""
    data = trace_to_bytes(trace)
    if hasattr(destination, "write"):
        destination.write(data)
    else:
        Path(destination).write_bytes(data)


def _of(*types):
    return lambda value: type(value) in types  # exact, so a bool is not an int


def _objects_with(key: str, test):
    return lambda items: isinstance(items, list) and all(
        isinstance(item, dict) and test(item.get(key)) for item in items)


# The fields metrics() reads of each event kind, with the test each value
# must pass.  An absent field reads as [], which only the list fields pass.
_METRIC_FIELDS = {
    "idle": {"candidates": _of(int)},
    "central-fire": {"candidates": _of(int), "matched": _objects_with("chunk", _of(int)),
                     "consumed": _objects_with("system", _of(str))},
    "interrupt": {"chunk": _of(int)},
    "deposit": {"new": _of(bool)},
    "utility-update": {"owner": _of(str), "production": _of(str), "new": _of(int, float)},
}


def read_trace(source) -> Trace:
    """Parse a trace from a path or file object.

    Raises :class:`UnsupportedTraceVersion` on a version mismatch and
    :class:`TraceFormatError` (naming the last good line) on damage,
    including bytes that are not UTF-8, a header that is not an object, and
    an event whose cycle or seq is not an int, whose data is not an object,
    whose data lacks a field that metrics read or holds it with the wrong
    type, whose seq is not its position, or whose cycle is below the cycle
    of the event before it.
    """
    raw = source.read() if hasattr(source, "read") else Path(source).read_bytes()
    try:
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"not UTF-8: {exc}", line=0) from None
    if not text:
        raise TraceFormatError("empty trace file", line=0)
    # LF only: str.splitlines() also breaks at U+0085, U+2028 and U+2029,
    # which JSON strings hold raw.
    lines = text.split("\n")
    try:
        header = json.loads(lines[0])
        if not isinstance(header, dict):
            raise TypeError("header")
    except (ValueError, RecursionError, TypeError):  # a JSONDecodeError too
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
            for key, test in _METRIC_FIELDS.get(event.kind, {}).items():
                if not test(event.data.get(key, [])):
                    raise TypeError(key)
            if event.seq != len(trace.events) or (
                    trace.events and event.cycle < trace.events[-1].cycle):
                raise ValueError("out of order")
        except (ValueError, RecursionError, KeyError, TypeError):  # a JSONDecodeError too
            raise TraceFormatError(
                f"malformed event; last good line was {number - 1}", line=number) from None
        trace.events.append(event)
    return trace
