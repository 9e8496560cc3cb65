"""Trace file format: canonical bytes, round-trip, damage handling."""

import io

import pytest

from mmarch.errors import TraceFormatError, UnsupportedTraceVersion
from mmarch.model import parse_model
from mmarch.runtime import run
from mmarch.trace import Trace, read_trace, trace_to_bytes, write_trace


def _sample_trace():
    trace = Trace(seed=7, mode="mm", cycle_length_ms=50)
    trace.append(0, "deposit", {"entry": 1, "tag": "vision", "new": True,
                                "source": "initial", "salience": None,
                                "content": {"id": 0, "isa": "percept",
                                            "slots": {"value": "blip"}},
                                "has_vector": False})
    trace.append(0, "idle", {"candidates": 0, "conflict": []})
    trace.append(1, "central-fire", {"production": "p", "bindings": {"x": "y"},
                                     "candidates": 3, "conflict": ["p"],
                                     "matched": [], "consumed": []})
    trace.append(1, "halt", {"reason": "cycles-exhausted"})
    return trace


def test_round_trip_equality(tmp_path):
    trace = _sample_trace()
    path = tmp_path / "run.trace"
    write_trace(trace, path)
    assert read_trace(path) == trace


def test_round_trip_through_file_object():
    trace = _sample_trace()
    buffer = io.BytesIO()
    write_trace(trace, buffer)
    buffer.seek(0)
    assert read_trace(buffer) == trace


def test_header_first_line_fixed_keys(tmp_path):
    path = tmp_path / "run.trace"
    write_trace(_sample_trace(), path)
    first = path.read_text().splitlines()[0]
    assert first == '{"version":1,"seed":7,"mode":"mm","cycle_length_ms":50}'


def test_bytes_are_lf_utf8(tmp_path):
    data = trace_to_bytes(_sample_trace())
    assert b"\r" not in data
    assert data.endswith(b"\n")
    data.decode("utf-8")


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "run.trace"
    path.write_text('{"version":99,"seed":0,"mode":"mm","cycle_length_ms":50}\n')
    with pytest.raises(UnsupportedTraceVersion):
        read_trace(path)


def test_truncated_line_names_last_good_line(tmp_path):
    trace = _sample_trace()
    path = tmp_path / "run.trace"
    write_trace(trace, path)
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1][: len(lines[-1]) // 2]  # chop the final event
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError) as err:
        read_trace(path)
    assert f"last good line was {len(lines) - 1}" in str(err.value)


@pytest.mark.parametrize("event", [
    '{"cycle":"x","seq":0,"kind":"idle","data":{}}',
    '{"cycle":0,"seq":1.5,"kind":"idle","data":{}}',
    '{"cycle":true,"seq":0,"kind":"idle","data":{}}',
    '{"cycle":0,"seq":0,"kind":"idle","data":5}',
    '{"cycle":0,"seq":0,"kind":"idle","data":null}',
])
def test_mistyped_event_fields_rejected(tmp_path, event):
    path = tmp_path / "run.trace"
    write_trace(_sample_trace(), path)
    lines = path.read_text().splitlines()
    lines.insert(2, event)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError) as err:
        read_trace(path)
    assert err.value.line == 3
    assert "last good line was 2" in str(err.value)


@pytest.mark.parametrize("event", [
    '{"cycle":0,"seq":0,"kind":"idle","data":{}}',
    '{"cycle":0,"seq":0,"kind":"idle","data":{"candidates":"x","conflict":[]}}',
    '{"cycle":0,"seq":0,"kind":"idle","data":{"candidates":true,"conflict":[]}}',
    '{"cycle":0,"seq":0,"kind":"central-fire","data":{"candidates":1,"matched":[{}]}}',
    '{"cycle":0,"seq":0,"kind":"central-fire","data":{"candidates":1,"consumed":[5]}}',
    '{"cycle":0,"seq":0,"kind":"interrupt","data":{"system":"s","buffer":"b"}}',
    '{"cycle":0,"seq":0,"kind":"deposit","data":{"entry":1,"new":"yes"}}',
    '{"cycle":0,"seq":0,"kind":"utility-update","data":{"production":"p","new":1.0}}',
    '{"cycle":0,"seq":0,"kind":"utility-update","data":{"production":"p","owner":"o",'
    '"new":"1"}}',
])
def test_event_missing_a_metric_field_rejected(tmp_path, event):
    """``read_trace`` refuses any event that :func:`metrics` could not read."""
    path = tmp_path / "run.trace"
    write_trace(_sample_trace(), path)
    lines = path.read_text().splitlines()
    lines.insert(2, event)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError) as err:
        read_trace(path)
    assert err.value.line == 3


def test_non_ascii_symbols_stay_raw_end_to_end(tmp_path):
    """A non-ASCII symbol crosses predictor, middle memory, both engines and
    the trace file as raw UTF-8, never as a ``\\u`` escape."""
    doc = {
        "name": "accents",
        "codebook": {"dimension": 64, "seed": 3},
        "buffers": [{"name": "goal", "owner": "central"},
                    {"name": "sight", "owner": "vision"}],
        "shadow_systems": [
            {"name": "vision", "buffer": "sight", "subscriptions": ["vision"],
             "productions": [
                 {"name": "see",
                  "conditions": [{"mm_tags": ["vision"],
                                  "pattern": {"isa": "percept", "slots": {"value": "?"}}}],
                  "actions": [{"kind": "write-buffer", "target": "sight",
                               "chunk": {"isa": "percept", "slots": {"value": "?value"}}}]}]},
        ],
        "central_productions": [
            {"name": "note",
             "conditions": [{"buffer": "sight",
                             "pattern": {"isa": "percept", "slots": {"value": "?"}}}],
             "actions": [{"kind": "write-buffer", "target": "goal",
                          "chunk": {"isa": "goal", "slots": {"seen": "?value"}}}]},
        ],
        "predictors": [
            {"name": "vision-net", "kind": "associative", "tag": "vision",
             "pairs": [["watch", "café"]], "emit_isa": "percept", "emit_slot": "value"},
        ],
        "initial_wm": [
            {"buffer": "goal", "chunk": {"isa": "goal", "slots": {"state": "watch"}}},
        ],
    }
    trace = run(parse_model(doc), 6, mode="mm", seed=0)
    writes = [e.data["content"]["slots"] for e in trace.by_kind("wm-write")]
    assert {"seen": "café"} in writes
    data = trace_to_bytes(trace)
    assert "café".encode("utf-8") in data
    assert b"\\u00e9" not in data
    path = tmp_path / "run.trace"
    path.write_bytes(data)
    assert read_trace(path) == trace


@pytest.mark.parametrize("line", [1, 2])
def test_nesting_deeper_than_the_parser_rejected(tmp_path, line):
    """A header or event nested past the JSON parser's recursion limit is
    damage like any other, not a ``RecursionError``."""
    path = tmp_path / "run.trace"
    write_trace(_sample_trace(), path)
    lines = path.read_text().splitlines()
    lines[line - 1] = "[" * 100_000 + "]" * 100_000
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError) as err:
        read_trace(path)
    assert err.value.line == line


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "run.trace"
    path.write_text("")
    with pytest.raises(TraceFormatError):
        read_trace(path)


@pytest.mark.parametrize("header", [b"[1]\n", b"5\n", b'"v"\n'])
def test_header_that_is_not_an_object_rejected(tmp_path, header):
    path = tmp_path / "run.trace"
    path.write_bytes(header)
    with pytest.raises(TraceFormatError) as err:
        read_trace(path)
    assert err.value.line == 1


def test_non_utf8_trace_rejected(tmp_path):
    path = tmp_path / "run.trace"
    path.write_bytes(b"\xff\xfe" + trace_to_bytes(_sample_trace()))
    with pytest.raises(TraceFormatError, match="not UTF-8"):
        read_trace(path)
    with pytest.raises(TraceFormatError, match="not UTF-8"):
        read_trace(io.BytesIO(path.read_bytes()))


def test_unknown_event_kind_rejected():
    trace = _sample_trace()
    with pytest.raises(ValueError):
        trace.append(2, "mystery", {})
