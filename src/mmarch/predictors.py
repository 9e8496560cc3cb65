"""Generative predictors and the ingestion seam into middle memory.

Predictors consume the per-cycle context broadcast and emit tagged
predictions.  Two small reference predictors are built in and read only its
top-ranked symbols; anything larger runs outside the process, receives the
context vector with the symbols, and speaks a newline-delimited JSON
protocol over a child process's stdio or a TCP socket.  Built-in emissions
and the lines external peers send wait for the runtime, which drains them at
the next cycle boundary in a deterministic order; the engines never see
predictor output except through middle-memory deposits.
"""

from __future__ import annotations

import json
import math
import os
import select
import socket
import subprocess
import threading
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .chunks import pattern_errors, validate_symbol
from .codec import HoloVector
from .errors import ChunkError
from .trace import encode_line

PROTOCOL_CONTEXT = "context"
PROTOCOL_PREDICTION = "prediction"

DEFAULT_ORDER = 2
DEFAULT_EMIT_ISA = "word"
DEFAULT_EMIT_SLOT = "value"

# Seconds a peer gets to take one whole context line, and to exit on close.
PEER_TIMEOUT_S = 2.0

# Contexts a built-in predictor remembers its answer to; at this many it
# forgets them all and refills.
_ANSWERS_CAP = 4096
_UNSEEN = object()


@dataclass
class Prediction:
    """One tagged emission waiting to become a middle-memory deposit."""

    tag: str
    predictor: str
    produced_at_cycle: int
    emission_index: int
    ctype: str | None = None
    slots: tuple[tuple[str, str], ...] = ()
    vector: HoloVector | None = None
    salience: float = 1.0

    def sort_key(self) -> tuple:
        return (self.produced_at_cycle, self.predictor, self.emission_index)


class NgramPredictor:
    """Order-``k`` next-symbol table with backoff.

    The delivered context symbols arrive most-salient-first; prediction
    treats them as a sequence ending at the most salient symbol and finds
    the longest stored context matching that tail, backing off one symbol
    at a time down to the unigram table.  Pure function of the trained
    counts and the context; ties break lexicographically.
    """

    def __init__(self, name: str, tag: str, corpus, order: int = DEFAULT_ORDER,
                 rate: int = 1, emit_ctype: str = DEFAULT_EMIT_ISA,
                 emit_slot: str = DEFAULT_EMIT_SLOT):
        self.name = name
        self.tag = tag
        self.order = order
        self.rate = rate
        self.emit_ctype = emit_ctype
        self.emit_slot = emit_slot
        self._answers: dict[tuple[str, ...], tuple[str, float] | None] = {}
        self._counts: dict[tuple[str, ...], Counter] = {}
        for sequence in corpus:
            sequence = list(sequence)
            for i, nxt in enumerate(sequence):
                for n in range(0, order + 1):
                    if n > i:
                        break
                    context = tuple(sequence[i - n:i])
                    self._counts.setdefault(context, Counter())[nxt] += 1

    def predict(self, symbols: list[str]) -> tuple[str, float] | None:
        """Most probable next symbol after the longest matching suffix."""
        if not self._counts:
            return None
        sequence = list(reversed(symbols))  # most salient symbol last
        for n in range(min(self.order, len(sequence)), -1, -1):
            context = tuple(sequence[len(sequence) - n:]) if n else ()
            bucket = self._counts.get(context)
            if not bucket:
                continue
            total = sum(bucket.values())
            best = min(bucket.items(), key=lambda kv: (-kv[1], kv[0]))
            return best[0], best[1] / total
        return None

    def deliver(self, symbols: list[str], cycle: int) -> list[Prediction]:
        """This cycle's emissions for the context ``symbols``.

        ``predict`` is a pure function of the tables fixed at construction
        and of the symbols in their order, so each distinct context is
        answered once and its answer remembered, keyed by the symbols'
        tuple, until ``_ANSWERS_CAP`` contexts clear the memo.  The
        emissions built from an answer are new on every call.
        """
        key = tuple(symbols)
        got = self._answers.get(key, _UNSEEN)
        if got is _UNSEEN:
            got = self.predict(symbols)
            if len(self._answers) >= _ANSWERS_CAP:
                self._answers.clear()
            self._answers[key] = got
        if got is None or self.rate < 1:
            return []
        symbol, salience = got
        return [Prediction(tag=self.tag, predictor=self.name,
                           produced_at_cycle=cycle, emission_index=i,
                           ctype=self.emit_ctype,
                           slots=((self.emit_slot, symbol),),
                           salience=salience)
                for i in range(self.rate)]


class AssociativePredictor:
    """Co-occurrence lookup: emit the strongest partner of any context symbol.

    Trained from a pair corpus ``[[a, b], ...]`` (an optional third element
    weights the pair).  Salience is the winner's share of all candidate
    co-occurrence mass; ties break lexicographically.
    """

    def __init__(self, name: str, tag: str, pairs, rate: int = 1,
                 emit_ctype: str = DEFAULT_EMIT_ISA, emit_slot: str = DEFAULT_EMIT_SLOT):
        self.name = name
        self.tag = tag
        self.rate = rate
        self.emit_ctype = emit_ctype
        self.emit_slot = emit_slot
        self._answers: dict[tuple[str, ...], tuple[str, float] | None] = {}
        self._table: dict[str, Counter] = {}
        for pair in pairs:
            a, b = pair[0], pair[1]
            weight = int(pair[2]) if len(pair) > 2 else 1
            self._table.setdefault(a, Counter())[b] += weight
            self._table.setdefault(b, Counter())[a] += weight

    def predict(self, symbols: list[str]) -> tuple[str, float] | None:
        scores: dict[str, int] = {}
        for sym in symbols:
            for partner, count in self._table.get(sym, {}).items():
                scores[partner] = scores.get(partner, 0) + count
        if not scores:
            return None
        total = sum(scores.values())
        best = min(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return best[0], best[1] / total

    deliver = NgramPredictor.deliver


def encode_context(cycle: int, vector: HoloVector, symbols: list[str]) -> str:
    """One context line of the wire protocol."""
    payload = {"type": PROTOCOL_CONTEXT, "cycle": cycle,
               "dim": int(vector.shape[0]),
               "vector": vector.tolist(),
               "symbols": list(symbols)}
    return encode_line(payload)


def decode_prediction(line: bytes, dim: int) -> dict:
    """Parse one UTF-8 prediction line; raises ``ValueError`` when malformed.

    Unknown fields are ignored.  The result dict carries ``tag``,
    ``salience``, and either ``ctype``/``slots`` or a validated ``vector``.
    """
    try:
        msg = json.loads(line.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    if not isinstance(msg, dict) or msg.get("type") != PROTOCOL_PREDICTION:
        raise ValueError("missing type:prediction")
    tag = msg.get("tag")
    if not isinstance(tag, str):
        raise ValueError("missing tag")
    try:
        validate_symbol(tag, what="prediction tag")
    except ChunkError as exc:
        raise ValueError(str(exc)) from None
    salience = msg.get("salience", 1.0)
    if type(salience) not in (int, float) or not 0.0 <= salience <= 1.0:
        raise ValueError("salience must be a finite number in [0, 1]")
    out: dict = {"tag": tag, "salience": float(salience)}
    chunk = msg.get("chunk")
    vector = msg.get("vector")
    if chunk is not None:
        if not isinstance(chunk, dict) or not isinstance(chunk.get("isa"), str):
            raise ValueError("chunk payload needs an isa string")
        slots = chunk.get("slots", {})
        if not isinstance(slots, dict):
            raise ValueError("chunk slots must be an object")
        pairs = tuple(slots.items())
        errors = pattern_errors(chunk["isa"], pairs)
        if errors:
            raise ValueError(errors[0][1])
        out["ctype"] = chunk["isa"]
        out["slots"] = pairs
    if vector is not None:
        if not isinstance(vector, list) or any(type(x) not in (int, float) for x in vector):
            raise ValueError("vector must be a list of numbers")
        try:
            arr = np.asarray(vector, dtype=float)
        except OverflowError:  # an integer too large for a float
            raise ValueError("vector entries must be finite") from None
        if arr.shape[0] != dim:
            raise ValueError(f"vector must have dimension {dim}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("vector entries must be finite")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(arr))
        if not math.isfinite(norm):  # finite entries whose squares overflow
            arr = arr / np.abs(arr).max()
            norm = float(np.linalg.norm(arr))
        if norm == 0.0:
            raise ValueError("vector must be non-zero")
        out["vector"] = arr / norm
    if chunk is None and vector is None:
        raise ValueError("prediction needs a chunk or a vector")
    return out


class ExternalPredictor:
    """Bridge to a predictor living in a child process or behind a socket.

    Context lines go out on every broadcast; a background thread hands each
    prediction line, undecoded bytes with the cycle of the last context
    sent, to the sink given to :meth:`start`, and the line is decoded, and
    may become a deposit, only when the runtime drains.  A dead peer, or one
    that takes longer than :data:`PEER_TIMEOUT_S` to take a context line,
    marks the predictor stalled: the run continues and no further sends are
    attempted.
    """

    def __init__(self, name: str, tag: str, *, command: list[str] | None = None,
                 host: str | None = None, port: int | None = None):
        if command is None and (host is None or port is None):
            raise ValueError("external predictor needs a command or host/port")
        self.name = name
        self.tag = tag
        self.command = command
        self.host = host
        self.port = port
        self.stalled = False
        self.last_context_cycle = -1
        self._proc: subprocess.Popen | None = None
        self._sock: socket.socket | None = None
        self._out: int | None = None  # the fd context lines are written to
        self._reader_thread: threading.Thread | None = None
        self._sink = None

    def start(self, sink) -> None:
        """Connect and begin reading; ``sink((name, cycle, line))`` takes each line."""
        self._sink = sink
        try:
            if self.command is not None:
                self._proc = subprocess.Popen(
                    self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL)
                self._out = self._proc.stdin.fileno()
                os.set_blocking(self._out, False)
                reader = self._proc.stdout
            else:
                self._sock = socket.create_connection((self.host, self.port), timeout=5.0)
                self._sock.settimeout(None)  # the bound is for connecting; a peer may be quiet
                self._out = self._sock.fileno()
                reader = self._sock.makefile("rb")
        except OSError:
            self.stalled = True
            return
        self._reader_thread = threading.Thread(
            target=self._read_loop, args=(reader,), daemon=True)
        self._reader_thread.start()

    def _read_loop(self, reader) -> None:
        try:
            with reader:
                for line in reader:
                    line = line.strip()
                    if line:
                        self._sink((self.name, self.last_context_cycle, line))
        except (OSError, ValueError):
            pass
        self.stalled = True

    def send_context(self, line: str, cycle: int) -> bool:
        """Write one whole context line; returns False when the peer is gone.

        A peer that has not taken the whole line within
        :data:`PEER_TIMEOUT_S` is marked stalled too, so a peer that stops
        reading cannot block the run.  Each socket send is non-blocking on
        its own (``MSG_DONTWAIT``): the socket stays blocking, since the
        reader's file shares it.
        """
        if self.stalled or self._out is None:
            return False
        data = memoryview(line.encode("utf-8") + b"\n")
        deadline = time.monotonic() + PEER_TIMEOUT_S
        try:
            while data:
                try:
                    data = data[os.write(self._out, data) if self._sock is None
                                else self._sock.send(data, socket.MSG_DONTWAIT):]
                except BlockingIOError:
                    wait = deadline - time.monotonic()
                    if wait <= 0 or not select.select([], [self._out], [], wait)[1]:
                        break
        except (OSError, ValueError):  # BrokenPipeError among them
            pass
        if data:
            self.stalled = True
            return False
        self.last_context_cycle = cycle
        return True

    def close(self) -> None:
        """Disconnect the peer and wait, briefly, for the reader to end."""
        self._out = None  # its fd number may be reused once closed
        if self._proc is not None:
            try:
                self._proc.stdin.close()
                self._proc.terminate()
                self._proc.wait(timeout=PEER_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired):
                self._proc.kill()
                self._proc.wait()
        if self._sock is not None:
            try:  # the reader's file still holds the socket, so close alone sends nothing
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
        if self._reader_thread is not None:
            self._reader_thread.join(timeout=PEER_TIMEOUT_S)
