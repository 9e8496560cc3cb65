"""Trace file format: canonical bytes, round-trip, damage handling."""

import io
import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from mmarch import demos
from mmarch.errors import TraceFormatError, UnsupportedTraceVersion
from mmarch.model import load_model, parse_model
from mmarch.runtime import run
from mmarch.trace import (
    EVENT_KINDS, Trace, encode_line, read_trace, trace_to_bytes, write_trace,
)


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
    '{"cycle":"x","seq":1,"kind":"idle","data":{}}',
    '{"cycle":0,"seq":1.5,"kind":"idle","data":{}}',
    '{"cycle":true,"seq":1,"kind":"idle","data":{}}',
    '{"cycle":0,"seq":1,"kind":"idle","data":5}',
    '{"cycle":0,"seq":1,"kind":"idle","data":null}',
    '{"cycle":0,"seq":1,"kind":"mystery","data":{}}',
    '{"cycle":0,"seq":' + "1" * 5000 + ',"kind":"idle","data":{}}',  # past int()'s digit limit
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


@pytest.mark.parametrize("key,value", [
    ("seed", "x"), ("seed", -1), ("seed", True), ("seed", 7.0), ("mode", 5), ("mode", "fast"),
    ("cycle_length_ms", None), ("cycle_length_ms", 0), ("cycle_length_ms", 50.0),
    ("cycle_length_ms", True)])
def test_mistyped_header_field_rejected(key, value):
    header = {"version": 1, "seed": 7, "mode": "mm", "cycle_length_ms": 50, key: value}
    with pytest.raises(TraceFormatError, match=f"header {key} ") as err:
        read_trace(io.BytesIO(json.dumps(header).encode() + b"\n"))
    assert err.value.line == 1


def test_negative_first_event_cycle_rejected():
    event = '{"cycle":-5,"seq":0,"kind":"idle","data":{"candidates":0,"conflict":[]}}'
    with pytest.raises(TraceFormatError) as err:
        read_trace(_damaged([event]))
    assert err.value.line == 2


@pytest.mark.parametrize("event", [
    '{"cycle":0,"seq":1,"kind":"idle","data":{}}',
    '{"cycle":0,"seq":1,"kind":"idle","data":{"candidates":"x","conflict":[]}}',
    '{"cycle":0,"seq":1,"kind":"idle","data":{"candidates":true,"conflict":[]}}',
    '{"cycle":0,"seq":1,"kind":"central-fire","data":{"candidates":1,"matched":[{}]}}',
    '{"cycle":0,"seq":1,"kind":"central-fire","data":{"candidates":1,"consumed":[5]}}',
    '{"cycle":0,"seq":1,"kind":"interrupt","data":{"system":"s","buffer":"b"}}',
    '{"cycle":0,"seq":1,"kind":"deposit","data":{"entry":1,"new":"yes"}}',
    '{"cycle":0,"seq":1,"kind":"utility-update","data":{"production":"p","new":1.0}}',
    '{"cycle":0,"seq":1,"kind":"utility-update","data":{"production":"p","owner":"o",'
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


def _events(trace):
    return trace_to_bytes(trace).decode("utf-8").splitlines()[1:]


def _damaged(lines):
    header = '{"version":1,"seed":7,"mode":"mm","cycle_length_ms":50}'
    return io.BytesIO(("\n".join([header, *lines]) + "\n").encode("utf-8"))


@pytest.mark.parametrize("damage, bad_line", [
    # two events swapped: the second event line holds seq 2
    (lambda lines: [lines[0], lines[2], lines[1], lines[3]], 3),
    # the last event's seq skips ahead
    (lambda lines: [*lines[:3], lines[3].replace('"seq":3', '"seq":7')], 5),
    # the last event's cycle falls from 1 to 0, every seq in place
    (lambda lines: [*lines[:3], lines[3].replace('"cycle":1', '"cycle":0')], 5),
])
def test_events_out_of_order_rejected(damage, bad_line):
    """Events are read in (cycle, seq) order: each seq is its position and
    no cycle falls below the one before it."""
    lines = _events(_sample_trace())
    assert read_trace(_damaged(lines)) == _sample_trace()
    with pytest.raises(TraceFormatError) as err:
        read_trace(_damaged(damage(lines)))
    assert err.value.line == bad_line
    assert f"last good line was {bad_line - 1}" in str(err.value)


def test_header_missing_cycle_length_rejected():
    source = io.BytesIO(b'{"version":1,"seed":7,"mode":"mm"}\n')
    with pytest.raises(TraceFormatError, match="header missing 'cycle_length_ms'") as err:
        read_trace(source)
    assert err.value.line == 1


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


def test_header_number_past_the_digit_limit_rejected():
    """``json.loads`` raises a plain ``ValueError`` for an int longer than
    ``int()``'s digit limit; in a header it is damage like any other."""
    source = io.BytesIO(b'{"version":' + b"1" * 5000 + b"}\n")
    with pytest.raises(TraceFormatError, match="malformed header") as err:
        read_trace(source)
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


@pytest.mark.parametrize("cycle", [1.0, True, "1", None])
def test_cycle_that_is_not_an_int_rejected(cycle):
    trace = _sample_trace()
    before = list(trace.events)
    with pytest.raises(TypeError):
        trace.append(cycle, "idle", {"candidates": 0, "conflict": []})
    assert trace.events == before


def test_line_separators_inside_strings_round_trip(tmp_path):
    """JSON keeps U+0085, U+2028 and U+2029 raw inside strings; a line ends at
    LF only, so a refused peer line holding them reads back."""
    trace = _sample_trace()
    payload = '{"type":"prediction","tag":"a\u0085b\u2028c\u2029d"}'
    trace.append(1, "error", {"message": "unknown tag", "predictor": "peer",
                              "payload": payload})
    path = tmp_path / "run.trace"
    write_trace(trace, path)
    assert "\u2028".encode("utf-8") in path.read_bytes()
    assert read_trace(path) == trace


def _dumps(value):
    return json.dumps(value, ensure_ascii=False, separators=(",", ":"))


_TEXT = st.text(st.one_of(
    st.characters(codec="utf-8"),
    st.sampled_from(['"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f",
                     "\u0085", "\u2028", "\u2029", "é", "日", "😀"])))
_LEAVES = st.one_of(
    st.none(), st.booleans(), _TEXT,
    st.integers(), st.integers(min_value=2**64, max_value=2**80),
    st.integers(min_value=-2**80, max_value=-2**64),
    st.floats(), st.sampled_from([math.inf, -math.inf, math.nan, -0.0]))
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=20)
_EVENTS = st.lists(st.tuples(st.integers(min_value=0, max_value=2**40),
                             st.sampled_from(sorted(EVENT_KINDS)),
                             st.dictionaries(_TEXT, _VALUES, max_size=4)),
                   max_size=5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_VALUES)
def test_encode_line_is_compact_json_dumps(value):
    assert encode_line(value) == _dumps(value)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_EVENTS)
def test_trace_lines_are_compact_json_dumps_of_their_records(events):
    trace = Trace(seed=3, mode="mm", cycle_length_ms=50)
    for cycle, kind, data in events:
        trace.append(cycle, kind, data)
    lines = trace_to_bytes(trace).decode("utf-8").split("\n")
    assert lines[-1] == ""
    assert lines[0] == _dumps({"version": 1, "seed": 3, "mode": "mm",
                               "cycle_length_ms": 50})
    assert lines[1:-1] == [
        _dumps({"cycle": e.cycle, "seq": e.seq, "kind": e.kind, "data": e.data})
        for e in trace.events]


def test_unserializable_value_raises_and_leaves_the_encoder_clean():
    clean = trace_to_bytes(_sample_trace())
    bad = _sample_trace()
    bad.append(2, "error", {"message": "m", "predictor": "p",
                            "payload": {"nested": [object()]}})
    with pytest.raises(TypeError, match="is not JSON serializable"):
        trace_to_bytes(bad)
    assert trace_to_bytes(_sample_trace()) == clean


class _Pieces:
    """A destination with nothing but ``write(bytes)``."""

    def __init__(self):
        self.pieces = []

    def write(self, data):
        self.pieces.append(data)


def _long_trace():
    trace = _sample_trace()
    for cycle in range(2, 1000):
        trace.append(cycle, "error", {"message": f"caf\u00e9 {cycle}", "predictor": "p",
                                      "payload": None})
    return trace


def test_write_trace_streams_into_any_object_with_write():
    trace = _long_trace()
    sink = _Pieces()
    write_trace(trace, sink)
    assert len(sink.pieces) > 1
    assert b"".join(sink.pieces) == trace_to_bytes(trace)


def test_write_trace_leaves_a_file_object_open(tmp_path):
    with (tmp_path / "run.trace").open("wb") as out:
        write_trace(_sample_trace(), out)
        assert not out.closed
        out.write(b"more")
    assert (tmp_path / "run.trace").read_bytes() == trace_to_bytes(_sample_trace()) + b"more"


def test_write_trace_leaves_no_partial_file_when_rendering_raises(tmp_path):
    """Neither the path nor anything beside it gets a byte, and a file
    already at the path keeps its bytes."""
    bad = _long_trace()
    bad.append(1000, "error", {"message": "m", "predictor": "p", "payload": object()})
    fresh, old = tmp_path / "fresh.trace", tmp_path / "old.trace"
    old.write_bytes(b"before")
    for path in (fresh, old):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            write_trace(bad, path)
    assert [p.name for p in tmp_path.iterdir()] == ["old.trace"]
    assert old.read_bytes() == b"before"


@pytest.fixture(scope="module")
def wordloop_trace():
    return run(load_model(demos.path("wordloop")), 3000, mode="mm", seed=7)


def _peak_above_start(render):
    """``render()``'s result and the most memory it held at once beyond what
    was live when it was called, by tracemalloc."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = render()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_rendering_holds_about_one_copy_of_the_bytes(wordloop_trace):
    """Also once an ellipsis, and then an emoji, would widen a whole-trace
    string to two and four bytes a character."""
    trace = Trace(wordloop_trace.seed, wordloop_trace.mode, wordloop_trace.cycle_length_ms,
                  list(wordloop_trace.events))
    for text in (None, "clipped\u2026end", "\U0001f600"):
        if text is not None:
            trace.append(3000, "error", {"message": text, "predictor": "p", "payload": None})
        data, peak = _peak_above_start(lambda: trace_to_bytes(trace))
        assert len(data) > 3_000_000
        assert peak <= 1.25 * len(data), (text, peak / len(data))


def test_writing_a_file_holds_a_small_part_of_its_bytes(wordloop_trace, tmp_path):
    path = tmp_path / "run.trace"
    _, peak = _peak_above_start(lambda: write_trace(wordloop_trace, path))
    size = path.stat().st_size
    assert size > 3_000_000
    assert peak < 0.05 * size, peak / size
