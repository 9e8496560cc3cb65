"""Working memory and middle memory.

Working memory is a small set of named single-chunk buffers, each with a
unique owning writer.  Middle memory is the activation-ranked store sitting
between generative predictors and the production systems: entries carry an
origin tag, a presentation history, and optional graph links; activation
combines recency/frequency (base-level) with spreading from working memory,
and drives retrieval, forgetting, and the context broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chunks import Chunk, Query, match_query
from .codec import Codebook, HoloVector, normalized, pack, pack_query
from .errors import ChunkError, OwnershipError, TemporalOrderError, UnknownEntryError

CENTRAL = "central"

DEFAULT_CAPACITY = 8
DEFAULT_DECAY = 0.5
DEFAULT_SPREAD_WEIGHT = 1.0
DEFAULT_RETRIEVAL_THRESHOLD = -1.0
DEFAULT_FORGET_THRESHOLD = -2.5


@dataclass
class Buffer:
    """Single-chunk working-memory cell with one owning writer."""

    name: str
    owner: str
    content: Chunk | Query | None = None
    urgent: bool = False


class WorkingMemory:
    """Named buffers; the central engine's entire match surface."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("working-memory capacity must be positive")
        self.capacity = capacity
        self.buffers: dict[str, Buffer] = {}

    def add_buffer(self, name: str, owner: str) -> Buffer:
        if name in self.buffers:
            raise ValueError(f"duplicate buffer name {name!r}")
        if len(self.buffers) >= self.capacity:
            raise ValueError(f"working-memory capacity {self.capacity} exceeded")
        buf = Buffer(name=name, owner=owner)
        self.buffers[name] = buf
        return buf

    def buffer(self, name: str) -> Buffer:
        try:
            return self.buffers[name]
        except KeyError:
            raise KeyError(f"unknown buffer {name!r}") from None

    def write(self, writer: str, buffer: str, content: Chunk | Query | None,
              urgent: bool = False) -> Buffer:
        """Replace a buffer's content, enforcing write ownership.

        The central engine may write any buffer; a shadow system may write
        only the buffer it owns.  ``content=None`` clears the buffer.
        """
        buf = self.buffer(buffer)
        if writer != CENTRAL and writer != buf.owner:
            raise OwnershipError(writer, buffer)
        if urgent and content is None:
            raise ChunkError("an urgent write must carry content")
        buf.content = content
        buf.urgent = urgent if content is not None else False
        return buf

    def non_empty(self) -> list[Buffer]:
        return [b for b in self.buffers.values() if b.content is not None]


@dataclass
class MMEntry:
    """One middle-memory entry: a tagged chunk or prediction vector.

    Identity is (payload content, origin tag); re-depositing the same
    content under the same tag appends a presentation instead of creating
    a new entry.
    """

    id: int
    tag: str
    chunk: Chunk | None = None
    vector: HoloVector | None = None
    presentations: list[float] = field(default_factory=list)
    links: set[int] = field(default_factory=set)
    last_activation: float = 0.0
    salience: float | None = None
    _packed: HoloVector | None = field(default=None, repr=False)

    def content_key(self) -> tuple:
        if self.chunk is not None:
            return ("chunk", self.chunk.content_key(), self.tag)
        return ("vector", self.vector.tobytes(), self.tag)

    def target_symbols(self) -> frozenset[str]:
        if self.chunk is None:
            return frozenset()
        return self.chunk.symbols()

    def payload_vector(self, book: Codebook) -> HoloVector:
        """The entry's vector form, packing the chunk once if needed."""
        if self.vector is not None:
            return self.vector
        if self._packed is None:
            self._packed = pack(self.chunk, book)
        return self._packed


class MiddleMemory:
    """Activation-ranked store of tagged predictions and graph chunks."""

    def __init__(self, decay: float = DEFAULT_DECAY,
                 spread_weight: float = DEFAULT_SPREAD_WEIGHT,
                 retrieval_threshold: float = DEFAULT_RETRIEVAL_THRESHOLD,
                 forget_threshold: float = DEFAULT_FORGET_THRESHOLD,
                 noise: float = 0.0, noise_seed: int = 0):
        if forget_threshold > retrieval_threshold:
            raise ValueError("forgetting threshold must not exceed retrieval threshold")
        if decay <= 0:
            raise ValueError("decay must be positive")
        self.decay = decay
        self.spread_weight = spread_weight
        self.retrieval_threshold = retrieval_threshold
        self.forget_threshold = forget_threshold
        self.noise = noise
        self.entries: dict[int, MMEntry] = {}
        self._by_key: dict[tuple, int] = {}
        self._next_id = 1
        self._rng = np.random.default_rng(noise_seed)

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, entry_id: int) -> MMEntry:
        try:
            return self.entries[entry_id]
        except KeyError:
            raise UnknownEntryError(f"no middle-memory entry {entry_id}") from None

    def deposit(self, now: float, tag: str, chunk: Chunk | None = None,
                vector: HoloVector | None = None,
                salience: float | None = None) -> tuple[int, bool]:
        """Record a presentation of (payload, tag) at time ``now``.

        Returns ``(entry id, created)``; a deposit whose content and tag
        match an existing entry merges into it as a new presentation.
        """
        if chunk is None and vector is None:
            raise ChunkError("a deposit needs a chunk or a vector payload")
        latest = self._latest_timestamp()
        if latest is not None and now < latest:
            raise TemporalOrderError(
                f"deposit at {now} precedes existing presentation at {latest}")
        probe = MMEntry(id=-1, tag=tag, chunk=chunk, vector=vector)
        key = probe.content_key()
        existing = self._by_key.get(key)
        if existing is not None:
            entry = self.entries[existing]
            entry.presentations.append(now)
            if salience is not None:
                entry.salience = salience
            return existing, False
        entry = MMEntry(id=self._next_id, tag=tag, chunk=chunk, vector=vector,
                        presentations=[now], salience=salience)
        self._next_id += 1
        self.entries[entry.id] = entry
        self._by_key[key] = entry.id
        return entry.id, True

    def seed_entry(self, tag: str, chunk: Chunk | None = None,
                   vector: HoloVector | None = None,
                   presentations: list[float] | None = None) -> int:
        """Install an entry with an explicit presentation history.

        Used when populating a model's initial middle memory; histories may
        predate the run (negative times) and must be sorted ascending.
        """
        if chunk is None and vector is None:
            raise ChunkError("an entry needs a chunk or a vector payload")
        presentations = list(presentations or [0.0])
        if not presentations:
            raise ChunkError("presentation history must be non-empty")
        if presentations != sorted(presentations):
            raise TemporalOrderError("presentation history must be sorted ascending")
        entry = MMEntry(id=self._next_id, tag=tag, chunk=chunk, vector=vector,
                        presentations=presentations)
        key = entry.content_key()
        if key in self._by_key:
            raise ChunkError(f"duplicate initial entry for tag {tag!r}")
        self._next_id += 1
        self.entries[entry.id] = entry
        self._by_key[key] = entry.id
        return entry.id

    def _latest_timestamp(self) -> float | None:
        latest = None
        for entry in self.entries.values():
            t = entry.presentations[-1]
            if latest is None or t > latest:
                latest = t
        return latest

    def link(self, id_a: int, id_b: int) -> None:
        """Record a symmetric graph edge; self-links are a no-op."""
        a = self.entry(id_a)
        b = self.entry(id_b)
        if id_a == id_b:
            return
        a.links.add(id_b)
        b.links.add(id_a)

    def base_level(self, entry: MMEntry, now: float) -> float:
        """ln of summed power-law decayed presentation recencies."""
        latest = entry.presentations[-1]
        if now <= latest:
            raise TemporalOrderError(
                f"activation time {now} not after latest presentation {latest}")
        total = 0.0
        for t in entry.presentations:
            total += (now - t) ** (-self.decay)
        return math.log(total)

    def spreading(self, entry: MMEntry, wm: WorkingMemory) -> float:
        """Spread from buffers whose values reach the entry or a neighbor."""
        non_empty = wm.non_empty()
        if not non_empty:
            return 0.0
        targets = entry.target_symbols()
        neighbor_targets: frozenset[str] | None = None
        share = self.spread_weight / len(non_empty)
        total = 0.0
        for buf in non_empty:
            content = buf.content
            if isinstance(content, Chunk):
                sources = frozenset(content.values())
            else:
                sources = frozenset(content.known_values())
            if sources & targets:
                total += share
                continue
            if entry.links:
                if neighbor_targets is None:
                    acc: set[str] = set()
                    for nid in entry.links:
                        other = self.entries.get(nid)
                        if other is not None:
                            acc |= other.target_symbols()
                    neighbor_targets = frozenset(acc)
                if sources & neighbor_targets:
                    total += share
        return total

    def activation(self, entry: MMEntry, wm: WorkingMemory, now: float) -> float:
        """Base-level + spreading + optional seeded logistic noise."""
        act = self.base_level(entry, now) + self.spreading(entry, wm)
        if self.noise > 0.0:
            act += float(self._rng.logistic(0.0, self.noise))
        entry.last_activation = act
        return act

    def retrieve(self, wm: WorkingMemory, now: float, pattern: Query | None = None,
                 tags: frozenset[str] | set[str] | None = None,
                 k: int = 1) -> list[tuple[MMEntry, float, dict[str, str]]]:
        """Ranked retrieval: top-``k`` entries above the retrieval threshold.

        Entries must carry any of ``tags`` (None = all tags) and, when a
        pattern is given, have a decoded chunk the pattern matches;
        vector-only entries are reachable by tag alone.  Result order is
        (activation desc, id asc) and is a total order.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        hits = []
        for entry_id in sorted(self.entries):
            entry = self.entries[entry_id]
            if tags is not None and entry.tag not in tags:
                continue
            bindings: dict[str, str] = {}
            if pattern is not None:
                if entry.chunk is None:
                    continue
                matched = match_query(pattern, entry.chunk)
                if matched is None:
                    continue
                bindings = matched
            act = self.activation(entry, wm, now)
            if act < self.retrieval_threshold:
                continue
            hits.append((entry, act, bindings))
        hits.sort(key=lambda item: (-item[1], item[0].id))
        return hits[:k]

    def sweep(self, wm: WorkingMemory, now: float) -> list[tuple[MMEntry, float]]:
        """Recompute activations and forget entries below the floor.

        Returns the removed entries with their final activation.
        """
        removed = []
        for entry_id in sorted(self.entries):
            entry = self.entries[entry_id]
            act = self.activation(entry, wm, now)
            if act < self.forget_threshold:
                removed.append((entry, act))
        for entry, _ in removed:
            del self.entries[entry.id]
            del self._by_key[entry.content_key()]
            for other in self.entries.values():
                other.links.discard(entry.id)
        return removed

    def retrievable(self, wm: WorkingMemory, now: float) -> list[tuple[MMEntry, float]]:
        """All entries at or above the retrieval threshold, id order."""
        out = []
        for entry_id in sorted(self.entries):
            entry = self.entries[entry_id]
            act = self.activation(entry, wm, now)
            if act >= self.retrieval_threshold:
                out.append((entry, act))
        return out


def context_vector(wm: WorkingMemory, mm: MiddleMemory, book: Codebook,
                   now: float) -> tuple[HoloVector, bool]:
    """Combine working memory and retrievable middle memory into one vector.

    Non-empty buffers contribute their packed content at weight 1.0;
    retrievable entries contribute their vectors weighted by a softmax of
    their activations.  Returns ``(vector, is_zero)``; the zero vector is
    the valid result of an empty state and is flagged for the trace.
    """
    total = np.zeros(book.dimension)
    contributed = False
    for name in sorted(wm.buffers):
        buf = wm.buffers[name]
        if buf.content is None:
            continue
        if isinstance(buf.content, Chunk):
            total = total + pack(buf.content, book)
            contributed = True
        else:
            packed = pack_query(buf.content, book)
            if packed is not None:
                total = total + packed
                contributed = True
    ranked = mm.retrievable(wm, now)
    if ranked:
        acts = np.array([act for _, act in ranked])
        weights = np.exp(acts - acts.max())
        weights = weights / weights.sum()
        for (entry, _), w in zip(ranked, weights):
            total = total + w * entry.payload_vector(book)
        contributed = True
    if not contributed:
        return total, True
    return normalized(total), False


def context_symbols(wm: WorkingMemory, mm: MiddleMemory, now: float,
                    k: int = 5) -> list[str]:
    """Top-``k`` slot-value symbols by context weight, for small predictors.

    Mirrors :func:`context_vector`'s weighting: buffer contents score 1.0,
    retrievable entries score their softmax weight; a symbol accumulates
    the weight of every contributor that carries it.  Ties break by name.
    """
    scores: dict[str, float] = {}

    def credit(symbols, weight: float) -> None:
        for sym in symbols:
            scores[sym] = scores.get(sym, 0.0) + weight

    for name in sorted(wm.buffers):
        buf = wm.buffers[name]
        if buf.content is None:
            continue
        if isinstance(buf.content, Chunk):
            credit(buf.content.values(), 1.0)
        else:
            credit(buf.content.known_values(), 1.0)
    ranked = mm.retrievable(wm, now)
    if ranked:
        acts = np.array([act for _, act in ranked])
        weights = np.exp(acts - acts.max())
        weights = weights / weights.sum()
        for (entry, _), w in zip(ranked, weights):
            if entry.chunk is not None:
                credit(entry.chunk.values(), float(w))
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [sym for sym, _ in ordered[:k]]
