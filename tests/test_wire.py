"""External predictor wire protocol: framing, validation, child processes."""

import dataclasses
import json
import math
import socket
import sys
import threading
import time
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmarch import demos, predictors
from mmarch.chunks import ChunkFactory
from mmarch.errors import ChunkError
from mmarch.model import load_model, parse_model
from mmarch.predictors import ExternalPredictor, decode_prediction, encode_context
from mmarch.runtime import Session
from pins import SILENT_PEER, context_lines, digest, pinned

# A minimal peer: answers every context line with one fixed prediction,
# plus one malformed line when asked via argv.
ECHO_PEER = r"""
import json, sys
emit_junk = len(sys.argv) > 1 and sys.argv[1] == "junk"
for line in sys.stdin:
    msg = json.loads(line)
    if msg.get("type") != "context":
        continue
    if emit_junk:
        sys.stdout.write("this is not json\n")
    out = {"type": "prediction", "tag": "vision", "salience": 0.8,
           "chunk": {"isa": "percept", "slots": {"value": "blip"}},
           "extra_field": "ignored"}
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
"""

# Chunk symbols a peer might send, legal half the time; the rest are the
# wildcard, a reference, and values that are not symbols at all.
_WIRE_SYMBOLS = (st.sampled_from(["percept", "bear", "isa"])
                 | st.sampled_from(["?", "?x", "", "a b", "a:b", 3, 1.5, True, None, [], {}]))
# Slot names: legal, the reserved type slot, or not symbols.
_WIRE_SLOT_NAMES = (st.sampled_from(["value", "isa"])
                    | st.sampled_from(["?", "?x", "", "a b", "a:b"]))



def _vector_line(first: str, dim: int) -> bytes:
    """A vector prediction whose first entry is the raw JSON text ``first``."""
    return ('{"type":"prediction","tag":"language","vector":['
            + first + ",0.0" * (dim - 1) + "]}").encode()


# Peer lines the wire must reject, by the dimension they target: an entry
# too large for a float, a string or a boolean where a number belongs,
# nesting deeper than the JSON parser recurses, and a byte that is not UTF-8.
_BAD_PEER_LINES = {
    "huge-int": lambda dim: _vector_line("1" + "0" * 400, dim),
    "string": lambda dim: _vector_line('"1.5"', dim),
    "bool": lambda dim: _vector_line("true", dim),
    "deep": lambda dim: b"[" * 100_000 + b"]" * 100_000,
    "not-utf8": lambda dim: _vector_line("1.5", dim).replace(b"language", b"lang\xffuage"),
}


class TestFraming:
    def test_context_line_shape(self):
        line = encode_context(3, np.array([0.5, -0.25]), ["a", "b"])
        msg = json.loads(line)
        assert msg == {"type": "context", "cycle": 3, "dim": 2,
                       "vector": [0.5, -0.25], "symbols": ["a", "b"]}
        assert "\n" not in line

    def test_context_line_keeps_non_ascii_symbols_raw(self):
        line = encode_context(0, np.array([1.0, 0.0]), ["café"])
        assert '"symbols":["café"]' in line
        assert "\\u00e9" not in line
        assert json.loads(line)["symbols"] == ["café"]

    def test_decode_chunk_prediction_ignores_unknown_fields(self):
        line = json.dumps({"type": "prediction", "tag": "vision",
                           "salience": 0.8, "mystery": 1,
                           "chunk": {"isa": "percept", "slots": {"value": "x"}}})
        out = decode_prediction(line.encode(), dim=8)
        assert out["tag"] == "vision"
        assert out["salience"] == 0.8
        assert out["ctype"] == "percept"
        assert out["slots"] == (("value", "x"),)

    def test_decode_vector_prediction_normalizes(self):
        line = json.dumps({"type": "prediction", "tag": "vision",
                           "salience": 1.0, "vector": [3.0, 4.0]})
        out = decode_prediction(line.encode(), dim=2)
        assert np.linalg.norm(out["vector"]) == pytest.approx(1.0)

    def test_decode_vector_whose_norm_overflows(self):
        """Finite entries whose squared sum overflows still give a unit
        vector; a vector with a finite norm keeps the bits of ``v / |v|``."""
        line = json.dumps({"type": "prediction", "tag": "vision",
                           "vector": [1e308, 1e308]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = decode_prediction(line.encode(), dim=2)
        assert out["vector"].tolist() == pytest.approx([math.sqrt(0.5)] * 2)
        plain = [1e150, -3e150]
        out = decode_prediction(json.dumps({"type": "prediction", "tag": "vision",
                                            "vector": plain}).encode(), dim=2)
        arr = np.array(plain)
        length = math.sqrt(plain[0] * plain[0] + plain[1] * plain[1])  # a left fold
        assert out["vector"].tobytes() == (arr / length).tobytes()

    @pytest.mark.parametrize("line", [
        "not json at all",
        json.dumps({"type": "other"}),
        json.dumps({"type": "prediction"}),  # no tag
        json.dumps({"type": "prediction", "tag": "vision"}),  # no payload
        json.dumps({"type": "prediction", "tag": "vision", "salience": 2.0,
                    "vector": [1.0, 0.0]}),  # salience out of range
        json.dumps({"type": "prediction", "tag": "vision",
                    "vector": [1.0]}),  # wrong dimension
        json.dumps({"type": "prediction", "tag": "vision",
                    "vector": [0.0, 0.0]}),  # zero vector
        json.dumps({"type": "prediction", "tag": "has space",
                    "vector": [1.0, 0.0]}),  # bad symbol
        json.dumps({"type": "prediction", "tag": "vision",
                    "chunk": {"isa": "percept", "slots": {"value": 3}}}),
        json.dumps({"type": "prediction", "tag": "vision",
                    "chunk": {"isa": "percept", "slots": {"isa": "bear"}}}),  # reserved slot
        json.dumps({"type": "prediction", "tag": "vision",
                    "chunk": {"isa": "percept", "slots": {"value": "?"}}}),  # wildcard
        json.dumps({"type": "prediction", "tag": "vision", "salience": True,
                    "vector": [1.0, 0.0]}),  # booleans are not numbers
        '{"type":"prediction","tag":"vision","salience":1' + "0" * 400
        + ',"vector":[1.0,0.0]}',  # an integer too large for a float
        json.dumps({"type": "prediction", "tag": "vision",
                    "vector": {"x": 1.0}}),  # not a list of numbers
    ])
    def test_malformed_lines_raise(self, line):
        with pytest.raises(ValueError):
            decode_prediction(line.encode(), dim=2)

    @pytest.mark.parametrize("line, message", [
        # json.loads reads NaN, which passes as a float
        ('{"type":"prediction","tag":"vision","vector":[NaN,1.0]}',
         "vector entries must be finite"),
        ('{"type":"prediction","tag":"vision","chunk":{"isa":"a","slots":[1]}}',
         "chunk slots must be an object"),
    ])
    def test_malformed_lines_name_their_fault(self, line, message):
        with pytest.raises(ValueError, match=message):
            decode_prediction(line.encode(), dim=2)

    @pytest.mark.parametrize("kind", _BAD_PEER_LINES)
    def test_bad_numbers_and_deep_nesting_raise(self, kind):
        assert decode_prediction(_vector_line("1.5", 2), dim=2)["vector"] is not None
        with pytest.raises(ValueError):
            decode_prediction(_BAD_PEER_LINES[kind](2), dim=2)

    @pytest.mark.parametrize("kind", _BAD_PEER_LINES)
    def test_bad_peer_line_costs_one_error_event(self, kind):
        """The step survives the line: it logs one error event for it and
        deposits nothing from the peer."""
        session = Session(load_model(demos.path("wordloop")), mode="mm", seed=0)
        session.inbox.append(("peer", 0, _BAD_PEER_LINES[kind](session.book.dimension)))
        session.step()
        errors = [e.data["message"] for e in session.trace.by_kind("error")
                  if e.data["predictor"] == "peer"]
        assert len(errors) == 1
        assert errors[0].startswith("dropped malformed prediction: ")
        assert not [e for e in session.trace.by_kind("deposit")
                    if e.data["source"] == "predictor:peer"]
        session.step()
        assert session.cycle == 2 and not session.halted

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(isa=_WIRE_SYMBOLS,
           slots=st.dictionaries(_WIRE_SLOT_NAMES, _WIRE_SYMBOLS, max_size=3))
    def test_wire_accepts_exactly_the_chunks_the_factory_makes(self, isa, slots):
        line = json.dumps({"type": "prediction", "tag": "vision",
                           "chunk": {"isa": isa, "slots": slots}})
        try:
            decode_prediction(line.encode(), dim=2)
            decoded = True
        except ValueError:
            decoded = False
        try:
            ChunkFactory().make(isa, slots)
            made = True
        except ChunkError:
            made = False
        assert decoded == made


def _external_model(command):
    return parse_model({
        "name": "wire-test",
        "codebook": {"dimension": 64, "seed": 1},
        "buffers": [
            {"name": "goal", "owner": "central"},
            {"name": "sight", "owner": "vision"},
        ],
        "shadow_systems": [
            {"name": "vision", "buffer": "sight", "subscriptions": ["vision"],
             "productions": [
                {"name": "see",
                 "conditions": [{"mm_tags": ["vision"],
                                 "pattern": {"isa": "percept", "slots": {"value": "?"}}}],
                 "actions": [{"kind": "write-buffer", "target": "sight",
                              "chunk": {"isa": "percept", "slots": {"value": "?value"}}}]}]}
        ],
        "central_productions": [],
        "predictors": [
            {"name": "peer", "kind": "external", "tag": "vision",
             "command": command}
        ],
        "initial_wm": [
            {"buffer": "goal", "chunk": {"isa": "goal", "slots": {"state": "watch"}}}
        ],
    })


def _step_until(session, predicate, max_cycles=40, settle=0.05):
    for _ in range(max_cycles):
        session.step()
        if predicate(session):
            return True
        time.sleep(settle)
    return False


# A peer whose first line holds a byte that is not UTF-8; it answers every
# context, the first one included, with a good prediction.
BAD_BYTES_PEER = r"""
import json, sys
good = json.dumps({"type": "prediction", "tag": "vision",
                   "chunk": {"isa": "percept", "slots": {"value": "blip"}}}).encode()
sys.stdout.buffer.write(b'{"type":"prediction","tag":"vi\xffsion"}\n')
for line in sys.stdin.buffer:
    sys.stdout.buffer.write(good + b"\n")
    sys.stdout.buffer.flush()
"""

# A peer that ignores SIGTERM, says so, and then sleeps.
STUBBORN_PEER = r"""
import signal, sys, time
signal.signal(signal.SIGTERM, signal.SIG_IGN)
sys.stdout.write("ready\n")
sys.stdout.flush()
time.sleep(60)
"""


class TestChildProcess:
    def test_predictions_arrive_tagged_through_middle_memory(self):
        model = _external_model([sys.executable, "-u", "-c", ECHO_PEER])
        session = Session(model, mode="mm", seed=0)
        try:
            ok = _step_until(
                session, lambda s: any(e.kind == "deposit" and not
                                       e.data["source"].startswith("initial")
                                       for e in s.trace.events))
            assert ok, "no deposit from the external peer"
        finally:
            session.finish()
        deposits = [e for e in session.trace.events if e.kind == "deposit"]
        assert deposits[0].data["tag"] == "vision"
        assert deposits[0].data["source"] == "predictor:peer"
        assert deposits[0].data["content"]["slots"] == {"value": "blip"}
        assert deposits[0].data["salience"] == 0.8
        # the shadow system filtered it into its own buffer
        writes = [e for e in session.trace.events
                  if e.kind == "wm-write" and e.data["writer"] == "vision"]
        assert writes and writes[0].data["buffer"] == "sight"

    def test_malformed_lines_dropped_with_error_event(self):
        model = _external_model([sys.executable, "-u", "-c", ECHO_PEER, "junk"])
        session = Session(model, mode="mm", seed=0)
        try:
            ok = _step_until(
                session, lambda s: any(e.kind == "error" for e in s.trace.events))
            assert ok, "no error event for the malformed line"
        finally:
            session.finish()
        errors = [e for e in session.trace.events if e.kind == "error"]
        assert "malformed" in errors[0].data["message"]
        assert errors[0].data["payload"] == "this is not json"
        # the well-formed sibling line still landed
        assert any(e.kind == "deposit" and e.data["source"] == "predictor:peer"
                   for e in session.trace.events)

    def test_a_line_that_is_not_utf8_costs_one_error_event(self):
        """The reader takes bytes, so a bad byte is caught where the line is
        decoded: the line is dropped and the peer's later lines still land."""
        model = _external_model([sys.executable, "-c", BAD_BYTES_PEER])
        session = Session(model, mode="mm", seed=0)

        def from_peer(s, kind):
            return [e for e in s.trace.by_kind(kind) if e.data.get("predictor") == "peer"
                    or e.data.get("source") == "predictor:peer"]

        try:
            ok = _step_until(
                session, lambda s: from_peer(s, "error") and any(
                    e.cycle > from_peer(s, "error")[0].cycle
                    for e in from_peer(s, "deposit")))
            assert ok, "no deposit from the peer after its bad line"
        finally:
            session.finish()
        errors = from_peer(session, "error")
        assert len(errors) == 1
        assert errors[0].data["message"].startswith("dropped malformed prediction: not UTF-8")
        assert errors[0].data["payload"] == '{"type":"prediction","tag":"vi\\xffsion"}'

    def test_dead_peer_stalls_without_stopping_the_run(self):
        exit_peer = "import sys; sys.exit(0)"
        model = _external_model([sys.executable, "-c", exit_peer])
        session = Session(model, mode="mm", seed=0)
        try:
            ok = _step_until(
                session, lambda s: any(e.kind == "error" and "stalled" in
                                       e.data["message"]
                                       for e in s.trace.events),
                max_cycles=60)
            assert ok, "stall warning never logged"
            session.step()  # the run keeps going
        finally:
            session.finish()
        warnings = [e for e in session.trace.events
                    if e.kind == "error" and "stalled" in e.data["message"]]
        assert len(warnings) == 1  # warned once, not every cycle

    def test_close_reaps_a_peer_that_ignores_sigterm(self):
        lines = []
        peer = ExternalPredictor("stubborn", "vision",
                                 command=[sys.executable, "-c", STUBBORN_PEER])
        peer.start(lines.append)
        try:
            deadline = time.monotonic() + 10
            while not lines and time.monotonic() < deadline:
                peer.poll()
                time.sleep(0.01)
            assert lines == [("stubborn", -1, b"ready")]
        finally:
            peer.close()
        assert peer._proc.returncode is not None

    def test_a_peer_that_stops_reading_stalls_within_the_bound(self, monkeypatch):
        """Context lines of 1,024 floats fill the pipe to a peer that never
        reads within a few cycles; the run must go on without it."""
        monkeypatch.setattr(predictors, "PEER_TIMEOUT_S", 0.2)
        model = _external_model([sys.executable, "-c", "import time; time.sleep(30)"])
        model = dataclasses.replace(
            model, codebook=dataclasses.replace(model.codebook, dimension=1024))
        session = Session(model, mode="mm", seed=0)
        try:
            for _ in range(40):
                session.step()
        finally:
            session.finish()
        assert session.cycle == 40
        assert session.predictors[0]._proc.returncode is not None
        stalls = [e for e in session.trace.by_kind("error") if "stalled" in e.data["message"]]
        assert [e.data["predictor"] for e in stalls] == ["peer"]
        assert "'peer'" in stalls[0].data["message"]
        assert not [e for e in session.trace.by_kind("delivery")
                    if e.data["predictor"] == "peer" and e.seq > stalls[0].seq]


# A peer that first writes one line of 1,000,000 bytes, then answers every
# context line with one prediction.
LONG_LINE_PEER = r"""
import json, sys
sys.stdout.write('{"pad":"' + "x" * 999_990 + '"}\n')
for line in sys.stdin:
    out = {"type": "prediction", "tag": "vision",
           "chunk": {"isa": "percept", "slots": {"value": "blip"}}}
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
"""

_BLIP = json.dumps({"type": "prediction", "tag": "vision",
                    "chunk": {"isa": "percept", "slots": {"value": "blip"}}})

# A peer that writes the same prediction line for as long as it can.
FLOOD_PEER = f"""
import sys
while True:
    sys.stdout.write({_BLIP!r} + "\\n")
"""


def _from_peer(session, kind):
    return [e for e in session.trace.by_kind(kind) if e.data.get("predictor") == "peer"
            or e.data.get("source") == "predictor:peer"]


class TestPeerInput:
    def test_an_over_long_line_costs_one_bounded_event(self, monkeypatch):
        """A line over ``LINE_MAX`` is skipped up to its newline for one
        error event that names the bound; the peer's later lines deposit."""
        monkeypatch.setattr(predictors, "LINE_MAX", 65536)
        session = Session(_external_model([sys.executable, "-c", LONG_LINE_PEER]),
                          mode="mm", seed=0)
        try:
            ok = _step_until(session, lambda s: _from_peer(s, "deposit"), max_cycles=100)
            assert ok, "no deposit after the long line"
        finally:
            session.finish()
        errors = _from_peer(session, "error")
        assert [e.data["message"] for e in errors] == [
            "dropped malformed prediction: line longer than the 65536-byte bound"
            " (predictors.LINE_MAX)"]
        payload = errors[0].data["payload"]
        assert payload.startswith('{"pad":"xxx') and len(payload) <= 257
        assert _from_peer(session, "deposit")[0].cycle >= errors[0].cycle

    def test_a_flooding_peer_hands_over_at_most_the_bound_a_cycle(self, monkeypatch):
        """A peer that writes faster than the runtime drains is held to
        ``LINE_MAX`` bytes a cycle; the rest waits in its pipe."""
        monkeypatch.setattr(predictors, "LINE_MAX", 4096)
        session = Session(_external_model([sys.executable, "-c", FLOOD_PEER]),
                          mode="mm", seed=0)
        try:
            for _ in range(10):
                session.step()
                time.sleep(0.05)
        finally:
            session.finish()
        per_cycle = Counter(e.cycle for e in _from_peer(session, "deposit"))
        most = 4096 // (len(_BLIP) + 1)
        assert most - 1 <= max(per_cycle.values()) <= most
        assert not _from_peer(session, "error")

    def test_a_session_with_a_live_peer_starts_no_thread(self):
        """Peers are read on the runtime's own thread, from construction
        through ``finish()``."""
        before = set(threading.enumerate())
        session = Session(_external_model([sys.executable, "-u", "-c", ECHO_PEER]),
                          mode="mm", seed=0)
        started = set(threading.enumerate()) - before
        try:
            ok = _step_until(session, lambda s: started.update(
                set(threading.enumerate()) - before) or _from_peer(s, "deposit"))
            assert ok, "no deposit from the external peer"
        finally:
            session.finish()
        started |= set(threading.enumerate()) - before
        assert not started


class TestContextLines:
    def test_context_lines_are_unchanged(self):
        """Host-dependent: ``pins.json`` says where ``wire/context-lines`` holds."""
        text = context_lines()
        sent = text.split("\n")
        assert len(sent) == 20
        assert all(json.loads(line)["symbols"] for line in sent)
        assert digest(text) == pinned("wire/context-lines")

    def test_an_infinite_activation_sends_strict_json(self):
        """A base-level sum that overflows makes one activation +inf; the
        context line must still hold only finite numbers."""
        doc = {
            "name": "infinite-context",
            "codebook": {"dimension": 16, "seed": 1},
            "buffers": [{"name": "goal", "owner": "central"}],
            "middle_memory": {"decay": 300},
            "predictors": [{"name": "peer", "kind": "external", "tag": "vision",
                            "command": [sys.executable, "-c", SILENT_PEER]}],
            "initial_mm": [{"tag": "t", "chunk": {"isa": "fact", "slots": {"n": "x"}},
                            "presentations": [0.0]}],
        }
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        sent = context_lines(doc, 3).split("\n")
        assert len(sent) == 3
        for line in sent:
            assert json.loads(line, parse_constant=reject)["symbols"] == ["x"]


class TestTcpTransport:
    def test_a_quiet_socket_peer_is_neither_stalled_nor_given_lines(self):
        """Polling a peer that writes nothing neither waits nor stalls it,
        and its next line is taken as soon as it arrives."""
        lines = []
        with socket.create_server(("127.0.0.1", 0)) as server:
            peer = ExternalPredictor("sock", "vision", host="127.0.0.1",
                                     port=server.getsockname()[1])
            peer.start(lines.append)
            conn, _ = server.accept()
            try:
                for _ in range(20):
                    start = time.monotonic()
                    peer.poll()
                    assert time.monotonic() - start < 0.5
                    time.sleep(0.01)
                assert not peer.stalled and not lines
                conn.sendall(b"hello\n")
                deadline = time.monotonic() + 10
                while not lines and time.monotonic() < deadline:
                    peer.poll()
                    time.sleep(0.01)
                assert lines == [("sock", -1, b"hello")] and not peer.stalled
            finally:
                peer.close()
                conn.close()

    def test_socket_peer_round_trip(self):
        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]
        disconnected = threading.Event()

        def serve():
            conn, _ = server.accept()
            try:
                with conn, conn.makefile("rw", encoding="utf-8", newline="\n") as handle:
                    for line in handle:
                        msg = json.loads(line)
                        if msg.get("type") != "context":
                            continue
                        out = {"type": "prediction", "tag": "vision", "salience": 0.5,
                               "chunk": {"isa": "percept", "slots": {"value": "ping"}}}
                        handle.write(json.dumps(out) + "\n")
                        handle.flush()
            except OSError:  # a reply the client no longer reads may reset the connection
                pass
            disconnected.set()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()

        model = parse_model({
            "name": "tcp-test",
            "codebook": {"dimension": 64, "seed": 1},
            "buffers": [{"name": "goal", "owner": "central"},
                        {"name": "sight", "owner": "vision"}],
            "shadow_systems": [
                {"name": "vision", "buffer": "sight", "subscriptions": ["vision"],
                 "productions": []}],
            "central_productions": [],
            "predictors": [{"name": "sock", "kind": "external", "tag": "vision",
                            "host": "127.0.0.1", "port": port}],
            "initial_wm": [{"buffer": "goal",
                            "chunk": {"isa": "goal", "slots": {"state": "watch"}}}],
        })
        session = Session(model, mode="mm", seed=0)
        try:
            ok = _step_until(
                session, lambda s: any(e.kind == "deposit" and
                                       e.data["source"] == "predictor:sock"
                                       for e in s.trace.events))
            assert ok, "no deposit over TCP"
        finally:
            session.finish()
            server.close()
        # finishing disconnects the peer: the server's read ends
        assert disconnected.wait(1.0)

    def test_a_server_that_stops_reading_stalls_within_the_bound(self, monkeypatch):
        """Sends never block: once neither side's 8 KB buffer has room for
        a line, the line times out and the peer is stalled."""
        monkeypatch.setattr(predictors, "PEER_TIMEOUT_S", 0.2)
        line = encode_context(0, np.ones(256) / 16.0, ["x"])  # about 2 KB
        with socket.socket() as server:
            server.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            server.bind(("127.0.0.1", 0))
            server.listen()
            peer = ExternalPredictor("sock", "vision", host="127.0.0.1",
                                     port=server.getsockname()[1])
            peer.start([].append)
            conn, _ = server.accept()  # and never read from
            try:
                peer._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
                start = time.monotonic()
                sent = [peer.send_context(line, cycle) for cycle in range(200)]
                elapsed = time.monotonic() - start
            finally:
                peer.close()
                conn.close()
        stalled_at = sent.index(False)
        assert 0 < stalled_at and not any(sent[stalled_at:])
        assert peer.stalled and peer.last_context_cycle == stalled_at - 1
        assert elapsed < 2.0
