"""Working memory and middle memory.

Working memory is a small set of named single-chunk buffers, each with a
unique owning writer.  Middle memory is the activation-ranked store sitting
between generative predictors and the production systems: entries carry an
origin tag, a presentation history, and optional graph links; activation
combines recency/frequency (base-level) with spreading from working memory,
and drives retrieval, forgetting, and the context broadcast.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from array import array
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .chunks import WILDCARD, Chunk, Query, match_query
from .codec import Codebook, HoloVector, normalized, pack, pack_query
from .errors import ChunkError, OwnershipError, TemporalOrderError, UnknownEntryError

CENTRAL = "central"

DEFAULT_CAPACITY = 8
DEFAULT_DECAY = 0.5
DEFAULT_SPREAD_WEIGHT = 1.0
DEFAULT_RETRIEVAL_THRESHOLD = -1.0
DEFAULT_FORGET_THRESHOLD = -2.5

# From this many entries up, a new base-level column is an array by slot, so
# tables compute spreading, the thresholds and the broadcast's symbol scores
# as numpy columns; a smaller memory loops over its entries in Python,
# because a column read costs some thirty numpy calls whatever its length.
# Both give the same bits.  On a 2-core Xeon (Python 3.11, numpy 2.4),
# generated mm-scale models cost the same per cycle either way at about 45
# entries, and at 3 entries (wordloop) columns cost about a third more.
COLUMN_MIN_ENTRIES = 48
# Presentation times kept per slot in the columns' block, 8 bytes each per
# slot whether used or not.  A longer history leaves the block, and either
# kind of table folds it in numpy from the entry's own array; a history within
# the cap is folded in Python by a per-entry table, which at 16 terms is faster.
# Generated mm-scale histories are 1 to 5 long; wordloop's grow to
# thousands, in a memory too small for columns.
HISTORY_CAP = 16


@dataclass
class Buffer:
    """Single-chunk working-memory cell with one owning writer."""

    name: str
    owner: str
    content: Chunk | Query | None = None
    urgent: bool = False
    # (production, write time) of the shadow write the content is, until
    # the centre uses it or another write replaces it
    credit: tuple[str, float] | None = None
    # (codebook, content kind, type, slots) -> packed vector, for the broadcast
    _packed: tuple | None = field(default=None, repr=False, compare=False)
    # (content, its spreading sources), for spread_sources
    _sources: tuple | None = field(default=None, repr=False, compare=False)


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
        buf.credit = None
        return buf

    def non_empty(self) -> list[Buffer]:
        return [b for b in self.buffers.values() if b.content is not None]


def spread_sources(wm: WorkingMemory) -> tuple[frozenset[str], ...]:
    """Each non-empty buffer's spreading sources, in buffer order.

    A chunk spreads from its slot values and a query from its known values.
    A fully wildcarded query gives an empty set, which still takes its share
    of the spreading weight.  Each buffer keeps its content's set until the
    content changes.
    """
    out = []
    for buf in wm.non_empty():
        content = buf.content
        cached = buf._sources
        if cached is None or cached[0] is not content:
            symbols = frozenset(content.values() if isinstance(content, Chunk)
                                else content.known_values())
            cached = buf._sources = (content, symbols)
        out.append(cached[1])
    return tuple(out)


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
    presentations: array = field(default_factory=lambda: array("d"))  # its one copy
    links: set[int] = field(default_factory=set)
    _packed: HoloVector | None = field(default=None, repr=False)

    def content_key(self) -> tuple:
        if self.chunk is not None:
            return ("chunk", self.chunk.content_key(), self.tag)
        return ("vector", self.vector.tobytes(), self.tag)

    def payload_vector(self, book: Codebook) -> HoloVector:
        """The entry's vector form, packing the chunk once if needed."""
        if self.vector is not None:
            return self.vector
        if self._packed is None:
            self._packed = pack(self.chunk, book)
        return self._packed


@dataclass
class _Table:
    """Every entry's activation at one evaluation point, read by ``_where``.

    ``base`` is the base-level column, which depends on the point's time
    and version only: the tables at one time and version share it, under
    any spreading sources and after forgetting.  ``base`` and ``values``
    are by slot of the memory's :class:`_Columns`, NaN at a forgotten
    entry's slot: lists in a per-entry table, arrays in a column table.
    ``noise`` depends on the whole point, so only a rebuild at the same
    point after forgetting reuses it.
    """

    point: tuple  # (time, version, spreading sources)
    base: list[float] | np.ndarray
    values: list[float] | np.ndarray
    noise: list[float] | None = None  # the point's draws by slot, when noisy


class _Columns:
    """Middle memory's entries by slot, with their postings and symbol codes.

    The slot is the one address of an entry inside middle memory.  The
    memory keeps one ``_Columns`` from its first entry on.  Slots are handed
    out in id order and a forgotten entry leaves its slot empty (None), so
    slot order is id order; the memory builds new columns once empty slots
    outnumber live ones.  Until then a forgotten entry's slot stays in
    every posting, and every table reads NaN there.  ``postings`` maps
    ``(tag,)``, ``(tag, type)`` and ``(tag, slot name, value)`` to the slots
    of the entries filed under it.  ``reach`` maps each symbol to the slots
    whose reach set holds it; the entries whose ids are in ``stale`` have
    reach sets that changed since they were posted.  ``codes`` holds the
    slot values of every chunk as symbol codes, in slot order, with the
    owning slot of each in ``owners``.

    ``times`` is the presentation block: a row per slot holding the entry's
    presentation times, -inf after them, up to :data:`HISTORY_CAP`.  The
    row of an empty slot is NaN, and so is the row of a history that grew
    past the cap; ``long`` holds each such slot, folded from its entry's own
    array.  ``width`` is the longest history in the block (at least 1).  The
    block copies the entry's presentations as ``add`` and ``present`` see
    them, so the memory writes presentation times only through ``deposit``
    and ``seed_entry``.
    """

    def __init__(self, entries: Iterable[MMEntry]):
        self.entries: list[MMEntry | None] = []
        self.times = np.full((8, HISTORY_CAP), -math.inf)
        self.width = 1
        self.long: set[int] = set()  # live slots whose history is past the cap
        self.slot_of: dict[int, int] = {}  # live id -> slot, in id order
        self.postings: dict[tuple, array] = {}
        self.reach: dict[str, array] = {}
        self.posted: list[frozenset[str]] = []  # each slot's reach set as posted
        self.stale: set[int] = set()  # ids to post again
        self.symbols: dict[str, int] = {}  # symbol -> code
        self.names: list[str] = []  # code -> symbol
        self.codes = array("i")
        self.owners = array("i")
        for entry in entries:
            self.add(entry)

    def code(self, symbol: str) -> int:
        code = self.symbols.get(symbol)
        if code is None:
            code = self.symbols[symbol] = len(self.names)
            self.names.append(symbol)
        return code

    def add(self, entry: MMEntry) -> None:
        slot = len(self.entries)
        if slot == len(self.times):
            grown = np.full((2 * slot, self.times.shape[1]), -math.inf)
            grown[:slot] = self.times
            self.times = grown
        history = entry.presentations
        if len(history) <= self.times.shape[1]:
            self.times[slot, :len(history)] = history
            self.width = max(self.width, len(history))
        else:
            self.times[slot] = math.nan
            self.long.add(slot)
        self.entries.append(entry)
        self.posted.append(frozenset())
        self.slot_of[entry.id] = slot
        self.stale.add(entry.id)
        keys = [(entry.tag,)]
        if entry.chunk is not None:
            keys.append((entry.tag, entry.chunk.ctype))
            for name, value in entry.chunk.slots:
                keys.append((entry.tag, name, value))
                self.codes.append(self.code(value))
                self.owners.append(slot)
        for key in keys:
            self.postings.setdefault(key, array("i")).append(slot)

    def remove(self, entry: MMEntry) -> int:
        """Empty ``entry``'s slot and return it."""
        slot = self.slot_of.pop(entry.id)
        self.entries[slot] = None
        self.times[slot] = math.nan
        self.long.discard(slot)
        return slot

    def present(self, entry: MMEntry) -> None:
        """Write ``entry``'s newest presentation into its row, or its slot into ``long``."""
        slot, count = self.slot_of[entry.id], len(entry.presentations)
        if count <= self.times.shape[1]:
            self.times[slot, count - 1] = entry.presentations[-1]
            self.width = max(self.width, count)
        elif count == self.times.shape[1] + 1:  # the history leaves the block
            self.times[slot] = math.nan
            self.long.add(slot)

    def base(self, now: float, decay: float) -> np.ndarray:
        """Each slot's base level at ``now`` from its row, NaN at a slot
        outside the block (empty, or in ``long``).

        ``np.float_power`` calls the C library's ``pow``, as Python's ``**``
        does, and the terms are added a column at a time from the oldest,
        so each value has the bits of :meth:`MiddleMemory.base_level`'s
        left fold; the padding adds +0.0.  ``now`` must be after every
        presentation in the block.
        """
        rows = self.times[:len(self.entries), :self.width]
        total = np.zeros(len(rows))
        with np.errstate(over="ignore"):  # an overflowing term or sum is inf, as in base_level
            terms = np.float_power(now - rows, -decay)
            for column in terms.T:  # not np.sum: pairwise summation changes bits
                total += column
        zero, positive = total == 0.0, total > 0.0
        total[positive] = list(map(math.log, total[positive].tolist()))
        total[zero] = -math.inf
        return total

    def long_base(self, now: float, decay: float) -> dict[int, float]:
        """Each slot in ``long`` with its base level at ``now``.

        The terms are :meth:`base`'s, and ``np.add.accumulate`` adds them
        strictly from the oldest, so each value has the bits of
        :meth:`MiddleMemory.base_level`.  ``now`` must be after every
        history.  No view of a history outlives its expression: an array
        whose buffer is exported cannot grow.
        """
        folded: dict[int, float] = {}
        if not self.long:
            return folded
        with np.errstate(over="ignore"):  # an overflowing term or sum is inf, as in base_level
            for slot in self.long:
                history = self.entries[slot].presentations
                terms = np.float_power(now - np.frombuffer(history), -decay)
                total = float(np.add.accumulate(terms)[-1])  # not np.sum, as in base
                folded[slot] = math.log(total) if total > 0.0 else -math.inf
        return folded

    def post(self, reach_of) -> None:
        """Move every stale entry's postings to its current reach set."""
        for entry_id in self.stale:
            slot = self.slot_of.get(entry_id)
            if slot is None:
                continue
            old, new = self.posted[slot], reach_of(self.entries[slot])
            for symbol in old - new:
                self.reach[symbol].remove(slot)
            for symbol in new - old:
                posting = self.reach.get(symbol)
                if posting is None:
                    posting = self.reach[symbol] = array("i")
                posting.append(slot)
            self.posted[slot] = new
        self.stale.clear()

    def meets(self, sources: tuple[frozenset[str], ...]) -> np.ndarray:
        """How many of ``sources`` meet each slot's reach set."""
        count = np.zeros(len(self.entries), np.intp)
        for symbols in sources:
            hit = np.zeros(len(self.entries), bool)
            for symbol in symbols:
                posting = self.reach.get(symbol)
                if posting:
                    hit[np.frombuffer(posting, np.intc)] = True
            count += hit
        return count


class MiddleMemory:
    """Activation-ranked store of tagged predictions and graph chunks.

    Reads compute activation and store it on no entry.  A read evaluates
    every entry at one evaluation point (a time, working memory's spreading
    sources, and a version that every deposit, seeded entry and link bumps)
    into a table, kept while its point holds, so sweeping, shadow retrieval,
    formation and middle-memory conditions share one; each selects
    ``(entry, activation)`` pairs from it through :meth:`_where`.  One table
    is cached, the last one read.  :meth:`_build` makes every table: a
    base-level column plus spreading plus noise.  The next table at the same
    time and version reuses its column, so each entry's base level is
    computed once per time and version.  Forgetting leaves the version
    alone: it rebuilds the sweep's table at its point from its column, NaN
    at the gone entries' slots.  A memory with no live entries reads NaN at
    every slot, with no table work.

    The memory keeps columns (:class:`_Columns`) from its first entry on,
    in step through ``_add``, ``link`` and ``_forget``.  Inside the memory
    an entry is addressed by its slot there only: every table is by slot,
    and the postings of tag and content, which a tagged or patterned read
    probes to visit only the entries it can return, hold slots.  A
    forgotten entry leaves NaN at its slot in every table, which fails
    every read's test, and stays in every posting until new columns are
    built, once empty slots outnumber live ones.  Spreading adds ``share``
    once per source that meets an entry's reach set, so it is ``share``
    added k times to 0.0.  From :data:`COLUMN_MIN_ENTRIES` entries up a new
    base-level column is an array, and a table is one numpy add to it, k
    counted from the sources' symbols' reach postings; then each entry's
    noise draw, made once per point.  A smaller memory's base is a list,
    and its tables count k and add the draw entry by entry.  Both equal the
    reference definitions, :meth:`base_level`, :meth:`spreading` and
    :meth:`activation`, bit for bit, so a trace does not depend on which
    kind of table runs; the broadcast's symbol scores take the same fork
    (see :func:`context_symbols`).

    The columns also keep each entry's presentation times in a block of
    :data:`HISTORY_CAP` times a slot, written by ``_add`` and by a
    deposit's merge.  A base-level column is ``np.float_power`` of the lags
    (the C library's ``pow``, as Python's ``**``), folded a column at a
    time from the oldest and then logged one entry at a time, so a table
    needs no Python sum per entry.  A history past the cap leaves the block,
    and both kinds of table fold the entry's own array with one
    ``np.add.accumulate`` (:meth:`_Columns.long_base`); a per-entry table
    keeps :meth:`base_level` for a history within the cap.  The block is
    why presentation times are written only through :meth:`deposit` and
    :meth:`seed_entry`.
    """

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
        self._noise_seed = noise_seed
        self.entries: dict[int, MMEntry] = {}
        self._by_key: dict[tuple, int] = {}
        self._next_id = 1
        self._latest: float | None = None  # newest presentation of a live entry
        self._version = 0
        self._cached: _Table | None = None  # the last table read
        self._cols = _Columns(())

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, entry_id: int) -> MMEntry:
        try:
            return self.entries[entry_id]
        except KeyError:
            raise UnknownEntryError(f"no middle-memory entry {entry_id}") from None

    def deposit(self, now: float, tag: str, chunk: Chunk | None = None,
                vector: HoloVector | None = None) -> tuple[int, bool]:
        """Record a presentation of (payload, tag) at time ``now``.

        Returns ``(entry id, created)``; a deposit whose content and tag
        match an existing entry merges into it as a new presentation.
        """
        if chunk is None and vector is None:
            raise ChunkError("a deposit needs a chunk or a vector payload")
        if self._latest is not None and now < self._latest:
            raise TemporalOrderError(
                f"deposit at {now} precedes existing presentation at {self._latest}")
        probe = MMEntry(id=-1, tag=tag, chunk=chunk, vector=vector)
        key = probe.content_key()
        self._latest = now
        self._version += 1
        existing = self._by_key.get(key)
        if existing is not None:
            entry = self.entries[existing]
            entry.presentations.append(now)
            self._cols.present(entry)
            return existing, False
        entry = MMEntry(id=self._next_id, tag=tag, chunk=chunk, vector=vector,
                        presentations=array("d", (now,)))
        self._add(entry, key)
        return entry.id, True

    def seed_entry(self, tag: str, chunk: Chunk | None = None,
                   vector: HoloVector | None = None,
                   presentations: Iterable[float] | None = None) -> int:
        """Install an entry with an explicit presentation history.

        Used when populating a model's initial middle memory; histories may
        predate the run (negative times) and must be sorted ascending.
        """
        if chunk is None and vector is None:
            raise ChunkError("an entry needs a chunk or a vector payload")
        presentations = [0.0] if presentations is None else list(presentations)
        if not presentations:
            raise ChunkError("presentation history must be non-empty")
        if presentations != sorted(presentations):
            raise TemporalOrderError("presentation history must be sorted ascending")
        entry = MMEntry(id=self._next_id, tag=tag, chunk=chunk, vector=vector,
                        presentations=array("d", presentations))
        key = entry.content_key()
        if key in self._by_key:
            raise ChunkError(f"duplicate initial entry for tag {tag!r}")
        self._add(entry, key)
        if self._latest is None or presentations[-1] > self._latest:
            self._latest = presentations[-1]
        self._version += 1
        return entry.id

    def _add(self, entry: MMEntry, key: tuple) -> None:
        self._next_id += 1
        self.entries[entry.id] = entry
        self._by_key[key] = entry.id
        self._cols.add(entry)

    def _candidates(self, pattern: Query | None, tags: Iterable[str] | None) -> array | None:
        """Slots a read of ``pattern`` under ``tags`` must test; None (all
        slots) when ``tags`` is None.

        Per tag, the read probes the smallest of the tag's posting and the
        postings of the pattern's known type and values.  Forgotten slots
        stay in postings and only :func:`match_query` decides a match, so a
        candidate may still fail.  Slots are valid until the next new table.
        """
        if tags is None:
            return None
        postings, out = self._cols.postings, array("i")
        for tag in tags:
            best = postings.get((tag,), ())
            if pattern is not None:
                if pattern.ctype != WILDCARD:  # a subset of the tag's posting
                    best = postings.get((tag, pattern.ctype), ())
                for name, value in pattern.slots:
                    if value != WILDCARD:
                        posting = postings.get((tag, name, value), ())
                        if len(posting) < len(best):
                            best = posting
            out.extend(best)
        return out

    def link(self, id_a: int, id_b: int) -> None:
        """Record a symmetric graph edge; self-links are a no-op."""
        a = self.entry(id_a)
        b = self.entry(id_b)
        if id_a == id_b:
            return
        a.links.add(id_b)
        b.links.add(id_a)
        self._cols.stale.update((id_a, id_b))
        self._version += 1

    def base_level(self, entry: MMEntry, now: float) -> float:
        """ln of summed power-law decayed presentation recencies."""
        latest = entry.presentations[-1]
        if now <= latest:
            raise TemporalOrderError(
                f"activation time {now} not after latest presentation {latest}")
        total = 0.0
        try:
            for t in entry.presentations:
                total += (now - t) ** (-self.decay)
        except OverflowError:
            return math.inf
        return math.log(total) if total > 0.0 else -math.inf

    def spreading(self, entry: MMEntry, wm: WorkingMemory, *,
                  sources: tuple[frozenset[str], ...] | None = None) -> float:
        """An equal share of the spreading weight per source that meets the
        entry's reach set (:meth:`_reach`), added in source order.

        The reference definition of a table's spreading.  ``sources`` are
        :func:`spread_sources` of ``wm``, for a caller that built them
        already.
        """
        if sources is None:
            sources = spread_sources(wm)
        if not sources:
            return 0.0
        reach = self._reach(entry)
        share = self.spread_weight / len(sources)
        total = 0.0
        for symbols in sources:
            if not symbols.isdisjoint(reach):
                total += share
        return total

    def _reach(self, entry: MMEntry) -> frozenset[str]:
        """The symbols (type and slot values) of the entry's chunk and of
        every linked chunk; a vector-only entry adds none."""
        chunks = [self.entries[nid].chunk for nid in entry.links]
        chunks.append(entry.chunk)
        return frozenset().union(*(c.symbols() for c in chunks if c is not None))

    def activation(self, entry: MMEntry, wm: WorkingMemory, now: float, *,
                   sources: tuple[frozenset[str], ...] | None = None) -> float:
        """Base-level + spreading + optional seeded logistic noise.

        The reference definition of the entry's value in a table built now;
        ``sources`` are :func:`spread_sources` of ``wm``, for a caller that
        built them already.
        """
        if sources is None:
            sources = spread_sources(wm)
        act = self.base_level(entry, now) + self.spreading(entry, wm, sources=sources)
        if self.noise > 0.0:
            act += self._noise_sample(self._noise_key(now, sources), entry.id)
        return act

    def _noise_key(self, now: float, sources: tuple[frozenset[str], ...]) -> bytes:
        """Digest of the seed and the evaluation point, keying its noise draws."""
        point = (self._noise_seed, now, self._version, [sorted(s) for s in sources])
        return hashlib.blake2b(repr(point).encode("utf-8"), digest_size=16).digest()

    def _noise_sample(self, key: bytes, entry_id: int) -> float:
        """One logistic draw for ``entry_id``, a pure function of ``key``.

        Drawing by hash rather than from a shared stream makes the noise of
        an evaluation point independent of which tables were built before
        it, and so of the order in which shadow systems are stepped.
        """
        digest = hashlib.blake2b(entry_id.to_bytes(8, "big"), key=key,
                                 digest_size=8).digest()
        u = ((int.from_bytes(digest, "big") >> 12) + 0.5) / 2.0 ** 52  # in (0, 1)
        return self.noise * math.log(u / (1.0 - u))

    def activations(self, wm: WorkingMemory, now: float) -> dict[int, float]:
        """Every entry's activation at ``now`` under ``wm``, in id order."""
        return {entry.id: act for entry, act  # NaN marks a forgotten entry's slot
                in self._where(self._table(wm, now), lambda act: ~np.isnan(act))}

    def above(self, wm: WorkingMemory, now: float,
              threshold: float) -> list[tuple[MMEntry, float]]:
        """Every entry whose activation exceeds ``threshold``, in id order."""
        return self._where(self._table(wm, now), lambda act: act > threshold)

    def _table(self, wm: WorkingMemory, now: float) -> _Table:
        if not self.entries:  # nothing to evaluate; every slot reads NaN
            empty = [math.nan] * len(self._cols.entries)
            return _Table((now, self._version, None), empty, empty)
        sources = spread_sources(wm)
        point = (now, self._version, sources)
        cached = self._cached
        if cached is not None and cached.point == point:
            return cached
        if cached is not None and cached.point[:2] == point[:2]:
            base = cached.base
        else:
            if len(self._cols.entries) > 2 * len(self.entries):  # empty slots outnumber live
                self._cols = _Columns(self.entries.values())
            cols = self._cols
            if now <= self._latest:  # base_level raises, naming the first such entry
                for entry in cols.entries:
                    if entry is not None:
                        self.base_level(entry, now)
            long = cols.long_base(now, self.decay)
            if len(self.entries) >= COLUMN_MIN_ENTRIES:
                base = cols.base(now, self.decay)
                for slot, value in long.items():
                    base[slot] = value
            else:
                base = [math.nan if entry is None else long[slot] if slot in long
                        else self.base_level(entry, now)
                        for slot, entry in enumerate(cols.entries)]
        self._cached = self._build(point, base)
        return self._cached

    def _build(self, point: tuple, base: list[float] | np.ndarray,
               noise: list[float] | None = None) -> _Table:
        """The table at ``point``: ``base`` plus each entry's spreading, plus
        its noise draw, the float operations of :meth:`activation` in its
        order.  A list ``base`` gives a per-entry table; an array gives a
        column table.  ``noise`` is the point's draws, when already made."""
        now, _, sources = point
        cols = self._cols
        cols.post(self._reach)
        share = self.spread_weight / len(sources) if sources else 0.0
        fold = [0.0]
        for _ in sources:
            fold.append(fold[-1] + share)
        if isinstance(base, list):
            values = [act + fold[sum(not symbols.isdisjoint(reach) for symbols in sources)]
                      for act, reach in zip(base, cols.posted)]
        else:
            values = base + np.array(fold)[cols.meets(sources)]
        if self.noise > 0.0:
            if noise is None:
                key = self._noise_key(now, sources)
                noise = [0.0 if entry is None else self._noise_sample(key, entry.id)
                         for entry in cols.entries]
            values = ([act + draw for act, draw in zip(values, noise)]
                      if isinstance(base, list) else values + noise)
        return _Table(point, base, values, noise)

    def retrieve(self, wm: WorkingMemory, now: float, pattern: Query | None = None,
                 tags: frozenset[str] | set[str] | None = None,
                 k: int = 1) -> list[tuple[MMEntry, float, dict[str, str]]]:
        """Ranked retrieval: top-``k`` entries above the retrieval threshold.

        Entries must carry any of ``tags`` (None = all tags) and, when a
        pattern is given, have a decoded chunk the pattern matches;
        vector-only entries are reachable by tag alone.  Reads only: the
        activations come from the current evaluation point's table, and
        only the candidates of :meth:`_candidates` are visited.  Result
        order is (activation desc, id asc) and is a total order.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        threshold = self.retrieval_threshold
        table = self._table(wm, now)  # first: a new table may renumber the slots
        hits = []
        for entry, act in self._where(table, lambda act: act >= threshold,
                                      self._candidates(pattern, tags)):
            bindings: dict[str, str] = {}
            if pattern is not None:
                if entry.chunk is None:
                    continue
                matched = match_query(pattern, entry.chunk)
                if matched is None:
                    continue
                bindings = matched
            hits.append((entry, act, bindings))
        hits.sort(key=lambda item: (-item[1], item[0].id))
        return hits[:k]

    def sweep(self, wm: WorkingMemory, now: float) -> list[tuple[MMEntry, float]]:
        """Forget entries whose activation is below the floor.

        Returns the removed entries with their activation before forgetting.
        Afterwards the evaluation point's table holds the survivors'
        activations on the remaining state.
        """
        table = self._table(wm, now)
        removed = self._where(table, lambda act: act < self.forget_threshold)
        if removed:
            self._forget([entry for entry, _ in removed], table)
        return removed

    def _where(self, table: _Table, keep,
               slots: Iterable[int] | None = None) -> list[tuple[MMEntry, float]]:
        """Each entry whose activation passes ``keep``, with it: among
        ``slots`` in their order, or among all slots in slot (id) order when
        ``slots`` is None.  ``keep`` tests a float, or each element of an
        array, and fails the NaN of a forgotten entry's slot; this is the
        one way any reader takes values from a table."""
        values, entries = table.values, self._cols.entries
        if isinstance(values, list):
            return [(entries[slot], values[slot])
                    for slot in (range(len(values)) if slots is None else slots)
                    if keep(values[slot])]
        if slots is None:
            slots = np.flatnonzero(keep(values))
        else:
            slots = np.asarray(slots, np.intp)
            slots = slots[keep(values[slots])]
        return list(zip(map(entries.__getitem__, slots.tolist()), values[slots].tolist()))

    def _forget(self, gone: list[MMEntry], table: _Table) -> None:
        """Remove ``gone`` and rebuild the sweep's ``table`` at its point
        from its base-level column, NaN at the gone entries' slots.

        Postings keep the gone slots.  Survivors keep their base levels, and
        their noise draws too: a draw depends on the point, which forgetting
        leaves alone, so the rebuild takes the table's and draws none.  Only
        the gone entries' neighbours lose a link, so only their reach sets
        are posted again.
        """
        cols, base = self._cols, table.base
        for entry in gone:
            del self.entries[entry.id]
            del self._by_key[entry.content_key()]
            base[cols.remove(entry)] = math.nan
            for nid in entry.links:
                other = self.entries.get(nid)
                if other is not None:
                    other.links.discard(entry.id)
                    cols.stale.add(nid)
        if any(entry.presentations[-1] == self._latest for entry in gone):
            self._latest = max((e.presentations[-1] for e in self.entries.values()),
                               default=None)
        self._cached = self._build(table.point, base, table.noise)

    def retrievable(self, wm: WorkingMemory, now: float) -> list[tuple[MMEntry, float]]:
        """All entries at or above the retrieval threshold, id order."""
        return self._where(self._table(wm, now), lambda act: act >= self.retrieval_threshold)


def _packed_content(buf: Buffer, book: Codebook) -> HoloVector | None:
    """The buffer's packed content, packed again only when the content changes."""
    content = buf.content
    key = (book, isinstance(content, Chunk), content.ctype, content.slots)
    if buf._packed is None or buf._packed[0] != key:
        if isinstance(content, Chunk):
            buf._packed = (key, pack(content, book))
        else:
            buf._packed = (key, pack_query(content, book))
    return buf._packed[1]


def _softmax(acts: np.ndarray) -> np.ndarray:
    """Softmax weights; ``+inf`` activations share them equally, the limit."""
    top = acts.max()
    weights = (acts == top).astype(float) if top == math.inf else np.exp(acts - top)
    return weights / weights.sum()


@dataclass
class Context:
    """One cycle's context broadcast, read in one pass over the table.

    ``buffers`` are the non-empty buffers in name order, ``retrievable`` the
    retrievable entries in id order with their activations, and ``weights``
    those entries' softmax weights: what :func:`context_vector` reads, for
    the peers that receive a vector.
    """

    symbols: list[str]
    zero: bool  # the context's vector is the zero vector
    buffers: list[Buffer]
    retrievable: list[tuple[MMEntry, float]]
    weights: np.ndarray


def context_symbols(wm: WorkingMemory, mm: MiddleMemory, now: float,
                    k: int = 5) -> Context:
    """The context broadcast at ``now``, with its top-``k`` slot-value symbols.

    Buffer contents score 1.0 and retrievable entries their softmax weight;
    a symbol accumulates the weight of every contributor that carries it,
    and ties break by name.  The context is zero when no buffer content
    packs to a vector and no entry is retrievable; nothing is packed here.
    A column table scores every symbol with one ``np.bincount`` over symbol
    codes (:func:`_top_by_codes`), a smaller table entry by entry; both
    give the same scores, bit for bit.
    """
    buffers = [buf for _, buf in sorted(wm.buffers.items()) if buf.content is not None]
    zero = True
    symbols: list[str] = []  # the buffers' contributions, in order
    for buf in buffers:
        content = buf.content
        if isinstance(content, Chunk):
            symbols.extend(content.values())
            zero = False
        else:
            values = content.known_values()
            symbols.extend(values)
            zero = zero and content.ctype == WILDCARD and not values
    table, threshold = mm._table(wm, now), mm.retrieval_threshold
    ranked = mm._where(table, lambda act: act >= threshold)
    column = table.values if isinstance(table.values, np.ndarray) else None
    if column is None:
        weights = _softmax(np.array([act for _, act in ranked])) if ranked else np.empty(0)
        top = _top_by_entries(symbols, ranked, weights, k)
    else:
        keep = column >= threshold
        weights = _softmax(column[keep]) if ranked else np.empty(0)
        top = _top_by_codes(mm._cols, symbols, keep, weights, k)
    return Context([sym for _, sym in top], zero and not ranked, buffers, ranked, weights)


def _top_by_entries(symbols: list[str], ranked: list[tuple[MMEntry, float]],
                    weights: np.ndarray, k: int) -> list[tuple[float, str]]:
    """The ``k`` least ``(-score, symbol)``, scored one contribution at a time."""
    scores: dict[str, float] = {}
    for sym in symbols:
        scores[sym] = scores.get(sym, 0.0) + 1.0
    for (entry, _), w in zip(ranked, weights.tolist()):
        if entry.chunk is not None:
            for _, sym in entry.chunk.slots:
                scores[sym] = scores.get(sym, 0.0) + w
    return heapq.nsmallest(k, [(-score, sym) for sym, score in scores.items()])


def _top_by_codes(cols: _Columns, symbols: list[str], keep: np.ndarray,
                  weights: np.ndarray, k: int) -> list[tuple[float, str]]:
    """:func:`_top_by_entries` from the symbol codes of the slots in ``keep``.

    ``np.bincount`` sums each bin in input order, so with the buffers'
    codes first and then the kept slots' codes in slot (id) order, every
    score is the same left fold.  Only the symbols scoring at least the
    ``k``-th largest score are ranked by name.
    """
    owners = np.frombuffer(cols.owners, np.intc)
    picked = keep[owners]
    by_slot = np.zeros(len(keep))
    by_slot[keep] = weights
    codes = np.concatenate((np.array([cols.code(sym) for sym in symbols], np.intp),
                            np.frombuffer(cols.codes, np.intc)[picked]))
    contributions = np.concatenate((np.ones(len(symbols)), by_slot[owners[picked]]))
    scores = np.bincount(codes, contributions, minlength=len(cols.names))
    present = np.flatnonzero(np.bincount(codes, minlength=len(cols.names)))
    found = scores[present]
    if 0 < k < len(found):
        best = found >= np.partition(found, len(found) - k)[len(found) - k]
        present, found = present[best], found[best]
    return heapq.nsmallest(k, zip((-found).tolist(),
                                  map(cols.names.__getitem__, present.tolist())))


def context_vector(ctx: Context, book: Codebook) -> HoloVector:
    """Combine a context's buffers and retrievable entries into one vector.

    Non-empty buffers contribute their packed content at weight 1.0 and
    retrievable entries their vectors at their softmax weight.  The buffer
    sum is row 0 of a stack whose rows below are the weighted entry vectors;
    reducing a C-contiguous stack along axis 0 adds the rows in order, so
    the result has the bits of a left fold.  A zero context gives the zero
    vector; any other is normalized.
    """
    if ctx.zero:
        return np.zeros(book.dimension)
    stack = np.empty((len(ctx.retrievable) + 1, book.dimension))
    total = stack[0]
    total.fill(0.0)
    for buf in ctx.buffers:
        packed = _packed_content(buf, book)
        if packed is not None:
            np.add(total, packed, out=total)
    if ctx.retrievable:
        rows = stack[1:]
        np.stack([entry.payload_vector(book) for entry, _ in ctx.retrievable], out=rows)
        rows *= ctx.weights[:, None]
    return normalized(np.add.reduce(stack, axis=0))
