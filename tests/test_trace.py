"""Trace file format: canonical bytes, round-trip, damage handling."""

import io

import pytest

from mmarch.errors import TraceFormatError, UnsupportedTraceVersion
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


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "run.trace"
    path.write_text("")
    with pytest.raises(TraceFormatError):
        read_trace(path)


def test_unknown_event_kind_rejected():
    trace = _sample_trace()
    with pytest.raises(ValueError):
        trace.append(2, "mystery", {})
