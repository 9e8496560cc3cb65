"""External predictor wire protocol: framing, validation, child processes."""

import hashlib
import json
import math
import queue
import socket
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmarch import demos
from mmarch.chunks import ChunkFactory
from mmarch.errors import ChunkError
from mmarch.model import load_model, parse_model
from mmarch.predictors import ExternalPredictor, decode_prediction, encode_context
from mmarch.runtime import Session

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



def _vector_line(first: str, dim: int) -> str:
    """A vector prediction whose first entry is the raw JSON text ``first``."""
    return ('{"type":"prediction","tag":"language","vector":['
            + first + ",0.0" * (dim - 1) + "]}")


# Peer lines the wire must reject, by the dimension they target: an entry
# too large for a float, a string or a boolean where a number belongs, and
# nesting deeper than the JSON parser recurses.
_BAD_PEER_LINES = {
    "huge-int": lambda dim: _vector_line("1" + "0" * 400, dim),
    "string": lambda dim: _vector_line('"1.5"', dim),
    "bool": lambda dim: _vector_line("true", dim),
    "deep": lambda dim: "[" * 100_000 + "]" * 100_000,
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
        out = decode_prediction(line, dim=8)
        assert out["tag"] == "vision"
        assert out["salience"] == 0.8
        assert out["ctype"] == "percept"
        assert out["slots"] == (("value", "x"),)

    def test_decode_vector_prediction_normalizes(self):
        line = json.dumps({"type": "prediction", "tag": "vision",
                           "salience": 1.0, "vector": [3.0, 4.0]})
        out = decode_prediction(line, dim=2)
        assert np.linalg.norm(out["vector"]) == pytest.approx(1.0)

    def test_decode_vector_whose_norm_overflows(self):
        """Finite entries whose squared sum overflows still give a unit
        vector; a vector with a finite norm keeps the bits of ``v / |v|``."""
        line = json.dumps({"type": "prediction", "tag": "vision",
                           "vector": [1e308, 1e308]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = decode_prediction(line, dim=2)
        assert out["vector"].tolist() == pytest.approx([math.sqrt(0.5)] * 2)
        plain = [1e150, -3e150]
        out = decode_prediction(json.dumps({"type": "prediction", "tag": "vision",
                                            "vector": plain}), dim=2)
        arr = np.array(plain)
        assert out["vector"].tobytes() == (arr / np.linalg.norm(arr)).tobytes()

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
            decode_prediction(line, dim=2)

    @pytest.mark.parametrize("line, message", [
        # json.loads reads NaN, which passes as a float
        ('{"type":"prediction","tag":"vision","vector":[NaN,1.0]}',
         "vector entries must be finite"),
        ('{"type":"prediction","tag":"vision","chunk":{"isa":"a","slots":[1]}}',
         "chunk slots must be an object"),
    ])
    def test_malformed_lines_name_their_fault(self, line, message):
        with pytest.raises(ValueError, match=message):
            decode_prediction(line, dim=2)

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
        session.inbox.put(("peer", 0, _BAD_PEER_LINES[kind](session.book.dimension)))
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
            decode_prediction(line, dim=2)
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


# A peer that reads every line and answers none, so the run stays deterministic.
SILENT_PEER = "import sys\nfor line in sys.stdin:\n    pass\n"

# SHA-256 of the context lines sent over 20 cycles of the model below,
# captured when the context vector was still a per-entry left fold.
CONTEXT_LINES = "1beaaaf59e40fa37a829fdcefa66f4dc2717a6f89e3fb6735963cf442569c272"


def _record_context_lines(monkeypatch) -> list[str]:
    """Every context line sent to any peer, appended as it is sent."""
    sent = []
    send = ExternalPredictor.send_context

    def recording(self, line, cycle):
        sent.append(line)
        return send(self, line, cycle)

    monkeypatch.setattr(ExternalPredictor, "send_context", recording)
    return sent


class TestContextLines:
    def test_context_lines_are_unchanged(self, monkeypatch):
        doc = {
            "name": "wire-lines",
            "codebook": {"dimension": 64, "seed": 1},
            "buffers": [{"name": "goal", "owner": "central"},
                        {"name": "sight", "owner": "vision"},
                        {"name": "ask", "owner": "central"}],
            "shadow_systems": [
                {"name": "vision", "buffer": "sight", "subscriptions": ["vision"],
                 "productions": [
                    {"name": "see",
                     "conditions": [{"mm_tags": ["vision"],
                                     "pattern": {"isa": "percept",
                                                 "slots": {"value": "?"}}}],
                     "actions": [{"kind": "write-buffer", "target": "sight",
                                  "chunk": {"isa": "percept",
                                            "slots": {"value": "?value"}}}]}]}],
            "predictors": [{"name": "peer", "kind": "external", "tag": "vision",
                            "command": [sys.executable, "-c", SILENT_PEER]}],
            "initial_wm": [
                {"buffer": "goal", "chunk": {"isa": "goal", "slots": {"state": "watch"}}},
                {"buffer": "ask", "query": {"isa": "?", "slots": {"value": "?"}}}],
            "initial_mm": [
                {"tag": "vision", "chunk": {"isa": "percept", "slots": {"value": f"p{i}"}},
                 "presentations": [-0.5 * (i + 1), -0.1 * (i + 1)]}
                for i in range(6)],
        }
        sent = _record_context_lines(monkeypatch)
        session = Session(parse_model(doc), mode="mm", seed=0)
        try:
            for _ in range(20):
                session.step()
        finally:
            session.finish()
        assert len(sent) == 20
        assert all(json.loads(line)["symbols"] for line in sent)
        digest = hashlib.sha256("\n".join(sent).encode("utf-8")).hexdigest()
        assert digest == CONTEXT_LINES

    def test_an_infinite_activation_sends_strict_json(self, monkeypatch):
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

        sent = _record_context_lines(monkeypatch)
        session = Session(parse_model(doc), mode="mm", seed=0)
        try:
            for _ in range(3):
                session.step()
        finally:
            session.finish()
        assert len(sent) == 3
        for line in sent:
            assert json.loads(line, parse_constant=reject)["symbols"] == ["x"]


class TestTcpTransport:
    def test_a_connected_socket_has_no_read_timeout(self):
        """The connect timeout must not stay on the socket, or a peer quiet
        for that long would end the reader and stall the predictor."""
        with socket.create_server(("127.0.0.1", 0)) as server:
            peer = ExternalPredictor("sock", "vision", host="127.0.0.1",
                                     port=server.getsockname()[1])
            peer.start(queue.SimpleQueue().put)
            try:
                assert not peer.stalled
                assert peer._sock.gettimeout() is None
            finally:
                peer.close()

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
        # finishing disconnects the peer: the server's read ends, and so does ours
        assert disconnected.wait(1.0)
        assert not session.predictors[0]._reader_thread.is_alive()
