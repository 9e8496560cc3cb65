"""Generative predictors and the ingestion seam into middle memory.

Predictors consume the per-cycle context broadcast and emit tagged
predictions.  Two small reference predictors are built in and read only its
top-ranked symbols; anything larger runs outside the process, receives the
context vector with the symbols, and speaks a newline-delimited JSON
protocol over a child process's stdio or a TCP socket.  Built-in emissions
and the lines external peers send wait for the runtime, which drains them at
the next cycle boundary in a deterministic order; the engines never see
predictor output except through middle-memory deposits.  A peer's lines are
read on the runtime's own thread, without waiting, and a peer hands over at
most :data:`LINE_MAX` bytes between two drains.
"""

from __future__ import annotations

import json
import math
import os
import select
import socket
import subprocess
import time
from dataclasses import dataclass

import numpy as np

from .chunks import pattern_errors, remember, validate_symbol
from .codec import HoloVector, norm
from .errors import ChunkError
from .trace import encode_line

PROTOCOL_CONTEXT = "context"
PROTOCOL_PREDICTION = "prediction"

DEFAULT_ORDER = 2
DEFAULT_EMIT_ISA = "word"
DEFAULT_EMIT_SLOT = "value"

# Seconds a peer gets to take one whole context line, and to exit on close.
PEER_TIMEOUT_S = 2.0

# Bytes a peer may hand over between two drains, and the bound on one line,
# its newline counted: 16 MiB holds a vector line at D ≈ 600,000, at about
# 25 bytes a float.  What a peer writes beyond it waits in the pipe or
# socket, so a peer that writes faster than the runtime drains is slowed by
# its own blocked writes instead of growing our memory.
LINE_MAX = 16 * 1024 * 1024
_READ_SIZE = 65536  # bytes one read asks for

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


def _strongest(counts: dict[str, int]) -> tuple[str, float]:
    """The highest count's symbol, the smallest name on a tie, and its share."""
    best, count = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return best, count / sum(counts.values())


def _count(table: dict, key, symbol: str, weight: int) -> None:
    """Add ``weight`` to ``symbol``'s count in ``table``'s row for ``key``.

    Rows are plain dicts, made only for a new key, in first-seen order."""
    row = table.get(key)
    if row is None:
        row = table[key] = {}
    row[symbol] = row.get(symbol, 0) + weight


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
        self._counts: dict[tuple[str, ...], dict[str, int]] = {}
        for sequence in corpus:
            sequence = list(sequence)
            for i, nxt in enumerate(sequence):
                for n in range(0, order + 1):
                    if n > i:
                        break
                    _count(self._counts, tuple(sequence[i - n:i]), nxt, 1)

    def predict(self, symbols: list[str]) -> tuple[str, float] | None:
        """Most probable next symbol after the longest matching suffix."""
        if not self._counts:
            return None
        sequence = list(reversed(symbols))  # most salient symbol last
        for n in range(min(self.order, len(sequence)), -1, -1):
            context = tuple(sequence[len(sequence) - n:]) if n else ()
            bucket = self._counts.get(context)
            if bucket:
                return _strongest(bucket)
        return None

    def deliver(self, symbols: list[str], cycle: int) -> list[Prediction]:
        """This cycle's emissions for the context ``symbols``.

        ``predict`` is a pure function of the tables fixed at construction
        and of the symbols in their order, so each distinct context is
        answered once and its answer remembered, keyed by the symbols'
        tuple, in a memo of at most :data:`.chunks.MEMO_CAP` contexts.  The
        emissions built from an answer are new on every call.
        """
        key = tuple(symbols)
        got = self._answers.get(key, _UNSEEN)
        if got is _UNSEEN:
            got = remember(self._answers, key, self.predict(symbols))
        if got is None or self.rate < 1:
            return []
        symbol, salience = got
        slots = ((self.emit_slot, symbol),)
        # Positional, in field order: a keyword call costs a dict per emission.
        return [Prediction(self.tag, self.name, cycle, i, self.emit_ctype, slots, None,
                           salience)
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
        self._table: dict[str, dict[str, int]] = {}
        for pair in pairs:
            a, b = pair[0], pair[1]
            weight = int(pair[2]) if len(pair) > 2 else 1
            _count(self._table, a, b, weight)
            _count(self._table, b, a, weight)

    def predict(self, symbols: list[str]) -> tuple[str, float] | None:
        scores: dict[str, int] = {}
        for sym in symbols:
            for partner, count in self._table.get(sym, {}).items():
                scores[partner] = scores.get(partner, 0) + count
        return _strongest(scores) if scores else None

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

    A line of :data:`LINE_MAX` bytes or more is too long to parse.  Unknown
    fields are ignored.  The result dict carries ``tag``,
    ``salience``, and either ``ctype``/``slots`` or a validated ``vector``.
    """
    if len(line) >= LINE_MAX:
        raise ValueError(f"line longer than the {LINE_MAX}-byte bound (predictors.LINE_MAX)")
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
            length = norm(arr)
        if not math.isfinite(length):  # finite entries whose squares overflow
            arr = arr / np.abs(arr).max()
            length = norm(arr)
        if length == 0.0:
            raise ValueError("vector must be non-zero")
        out["vector"] = arr / length
    if chunk is None and vector is None:
        raise ValueError("prediction needs a chunk or a vector")
    return out


class ExternalPredictor:
    """Bridge to a predictor living in a child process or behind a socket.

    Context lines go out on every broadcast.  Prediction lines are read on
    the runtime's own thread by :meth:`poll`, which never waits: before each
    send, while a send waits for room, and when the runtime drains.  Each
    line goes to the sink given to :meth:`start` as undecoded bytes with the
    cycle of the last context sent, and is decoded, and may become a
    deposit, only when the runtime drains.  Between two drains a peer hands
    over at most :data:`LINE_MAX` bytes, and a longer line is skipped.  A
    dead peer, or one that takes longer than :data:`PEER_TIMEOUT_S` to take
    a context line, marks the predictor stalled: the run continues and no
    further sends are attempted.
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
        self._in: int | None = None  # the fd lines are read from, until they end
        self._tail = bytearray()  # the unfinished line
        self._skipping = False  # inside a line over LINE_MAX, dropped to its newline
        self._taken = 0  # bytes read since the last drain, the unfinished line's too
        self._sink = None

    def start(self, sink) -> None:
        """Connect; ``sink((name, cycle, line))`` takes each line :meth:`poll` reads."""
        self._sink = sink
        try:
            if self.command is not None:
                self._proc = subprocess.Popen(
                    self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL)
                self._out, self._in = self._proc.stdin.fileno(), self._proc.stdout.fileno()
            else:
                self._sock = socket.create_connection((self.host, self.port), timeout=5.0)
                self._out = self._in = self._sock.fileno()
            os.set_blocking(self._out, False)
            os.set_blocking(self._in, False)
        except OSError:
            self.stalled = True

    def poll(self, drain: bool = False) -> None:
        """Hand the sink each whole line already waiting, without blocking.

        An unfinished line waits for the next call.  At the end of the
        peer's output, or on a read error, it is handed over as a last line
        and the predictor is stalled.  Polls between two drains (``drain``
        marks the runtime's) read at most :data:`LINE_MAX` bytes, the
        unfinished line's included; the rest waits in the pipe or socket.
        """
        while self._in is not None and self._taken < LINE_MAX:
            try:
                data = os.read(self._in, min(_READ_SIZE, LINE_MAX - self._taken))
            except BlockingIOError:
                break
            except OSError:
                data = b""
            if not data:
                self._in = None
                self.stalled = True
                data = b"\n"  # ends the unfinished line
            self._taken += len(data)
            self._take(data)
        if drain:
            self._taken = len(self._tail)

    def _take(self, data: bytes) -> None:
        """Add ``data`` to the unfinished line, handing over each line it ends."""
        *ends, rest = data.split(b"\n")
        for piece in ends:
            if not self._skipping:
                self._tail += piece
                self._hand()
            self._skipping = False
        if not self._skipping:
            self._tail += rest
            if len(self._tail) >= LINE_MAX:
                self._hand()
                self._skipping = True

    def _hand(self) -> None:
        """Hand over the unfinished line as a whole one.  A line of
        :data:`LINE_MAX` bytes or more goes as its first ``LINE_MAX``, which
        :func:`decode_prediction` rejects for its length."""
        del self._tail[LINE_MAX:]
        line, self._tail = bytes(self._tail), bytearray()
        if len(line) < LINE_MAX:
            line = line.strip()
        if line:
            self._sink((self.name, self.last_context_cycle, line))

    def send_context(self, line: str, cycle: int) -> bool:
        """Write one whole context line; returns False when the peer is gone.

        The peer is polled first, and again while a full pipe or socket
        buffer keeps the write waiting, so a peer blocked writing to us can
        still take the line.  A peer that has not taken the whole line
        within :data:`PEER_TIMEOUT_S` is marked stalled too, so a peer that
        stops reading cannot block the run.
        """
        self.poll()
        if self.stalled or self._out is None:
            return False
        data = memoryview(line.encode("utf-8") + b"\n")
        deadline = time.monotonic() + PEER_TIMEOUT_S
        try:
            while data:
                try:
                    data = data[os.write(self._out, data):]
                except BlockingIOError:
                    wait = deadline - time.monotonic()
                    if wait <= 0:
                        break
                    reading = self._in is not None and self._taken < LINE_MAX
                    select.select([self._in] if reading else [], [self._out], [], wait)
                    self.poll()
        except (OSError, ValueError):  # BrokenPipeError among them
            pass
        if data:
            self.stalled = True
            return False
        self.last_context_cycle = cycle
        return True

    def close(self) -> None:
        """Disconnect the peer: terminate a child, killing it if it has not
        exited within :data:`PEER_TIMEOUT_S`, or close the socket."""
        self._out = self._in = None  # their fd numbers may be reused once closed
        if self._proc is not None:
            try:
                self._proc.stdin.close()
                self._proc.terminate()
                self._proc.wait(timeout=PEER_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired):
                self._proc.kill()
                self._proc.wait()
            self._proc.stdout.close()
        if self._sock is not None:
            self._sock.close()
