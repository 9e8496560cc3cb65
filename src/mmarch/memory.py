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
from collections import defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .chunks import WILDCARD, Chunk, Query, match_query, remember
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
    _packed: tuple | None = field(default=None, repr=False, compare=False)  # see _packed()


class WorkingMemory:
    """Named buffers; the central engine's entire match surface.

    ``_sources`` is :func:`spread_sources` of the buffers' current state,
    once built, or None: :meth:`write` drops it and a :meth:`staged` view
    starts without it, which is why buffer contents change only through
    :meth:`write`.  A buffer :meth:`add_buffer` adds is empty and spreads
    nothing, so it leaves the value standing.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("working-memory capacity must be positive")
        self.capacity = capacity
        self.buffers: dict[str, Buffer] = {}
        self._sources: tuple[frozenset[str], ...] | None = None

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
        self._sources = None
        return buf

    def staged(self, buffer: str, content: Chunk | Query | None,
               urgent: bool) -> WorkingMemory:
        """A read-only view of these buffers in which ``buffer`` holds
        ``content``; this working memory is unchanged.  The view builds its
        own spreading sources, and shares the other buffers, so it is read
        before this working memory is next written.  A multi-step shadow
        system decides its next step against it."""
        view = WorkingMemory(self.capacity)
        view.buffers = {**self.buffers, buffer: Buffer(
            name=buffer, owner=self.buffers[buffer].owner, content=content, urgent=urgent)}
        return view

    def non_empty(self) -> list[Buffer]:
        return [b for b in self.buffers.values() if b.content is not None]


def spread_sources(wm: WorkingMemory) -> tuple[frozenset[str], ...]:
    """Each non-empty buffer's spreading sources, in buffer order.

    A chunk spreads from its slot values and a query from its known values.
    A fully wildcarded query gives an empty set, which still takes its share
    of the spreading weight.  Working memory keeps the tuple until its next
    write, so one state builds it once.
    """
    if wm._sources is None:
        wm._sources = tuple(frozenset(buf.content.values() if isinstance(buf.content, Chunk)
                                      else buf.content.known_values())
                            for buf in wm.non_empty())
    return wm._sources


def _content_key(tag: str, chunk: Chunk | None, vector: HoloVector | None) -> tuple:
    """An entry's identity: its payload's content and its origin tag."""
    if chunk is not None:
        return ("chunk", chunk.content_key(), tag)
    return ("vector", vector.tobytes(), tag)


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
    _packed: tuple | None = field(default=None, repr=False, compare=False)  # see _packed()

    def payload_vector(self, book: Codebook) -> HoloVector:
        """The entry's vector form: its vector, or its chunk packed under ``book``."""
        return self.vector if self.vector is not None else _packed(self, self.chunk, book)


def _packed(holder: Buffer | MMEntry, content: Chunk | Query, book: Codebook) -> HoloVector | None:
    """``content`` packed under ``book``, kept on ``holder`` and packed again
    only when the codebook, the content's kind, type or slots change."""
    chunk = isinstance(content, Chunk)
    key = (book, chunk, content.ctype, content.slots)
    kept = holder._packed
    if kept is None or kept[0] != key:
        kept = holder._packed = (key, pack(content, book) if chunk else pack_query(content, book))
    return kept[1]


@dataclass
class _Table:
    """Every entry's activation at one evaluation point, read by
    :meth:`MiddleMemory._where`, :meth:`MiddleMemory.retrieve` and the
    broadcast.

    ``base`` is the base-level column, which depends on the point's time
    and version only: the tables at one time and version share it, under
    any spreading sources and after forgetting.  ``base`` and ``values``
    are by slot of the memory's :class:`_Columns`, NaN at a forgotten
    entry's slot: lists in a per-entry table, arrays in a column table.
    ``noise`` depends on the whole point, so only a rebuild at the same
    point after forgetting reuses it.  No table's ``values`` change after it
    is built (forgetting builds a new table), and a retrieval indexes them
    at its few candidate slots.
    """

    point: tuple  # (time, version, spreading sources)
    base: list[float] | np.ndarray
    values: list[float] | np.ndarray
    noise: list[float] | None = None  # the point's draws by slot, when noisy


class _Columns:
    """Middle memory's entries by slot, with their postings and symbol codes.

    The slot is the one address of an entry inside middle memory.  Slots are
    handed out in id order and a forgotten entry leaves its slot empty
    (None), so slot order is id order; the memory builds new columns at its
    first read that needs them and again once empty slots outnumber live
    ones.  Until then a forgotten entry's slot stays in every posting, and
    every table reads NaN there.  ``postings`` maps ``(tag,)``, ``(tag,
    type)`` and ``(tag, slot name, value)`` to the slots of the entries
    filed under it.  ``own`` holds each slot's own symbol set: its chunk's
    type and slot values, empty for a vector-only entry.  An entry's reach
    set is the union of its own set and its neighbours' (:meth:`reach_set`).
    ``reach`` maps each symbol to the slots whose reach set holds it, as
    ``posted`` records it by slot.  ``codes`` holds the slot values of every
    chunk as symbol codes, in slot order, with the owning slot of each in
    ``owners``.  ``carriers`` is the same pairs posted by code: each code's
    slots in slot order, a slot once for each of its chunk's values equal
    to the symbol, forgotten slots included, as ``codes`` keeps them.
    ``most`` is the longest of those lists (at least 1), and ``repeat`` at
    least the most times one chunk holds one value (its slot count, once a
    chunk holds a symbol twice); the two bound the score of a symbol that
    no buffer holds (:func:`_top_by_codes`).

    Every entry is filed by :meth:`_file`: its slot, postings, own set,
    codes and presentation row.  The constructor files each entry so and
    then posts every reach set, once all the own sets it unites are filed;
    :meth:`add` files one entry and posts its reach set.  A merged
    presentation is written by :meth:`present`.  The memory posts a reach
    set again (:meth:`repost`) when a link or a forgotten neighbour changes
    it, so the columns are always in step and a table only reads them.

    ``times`` is the presentation block, one flat array with a row of
    ``cap`` cells per slot (the :data:`HISTORY_CAP` when built): the
    entry's presentation times, then -inf from ``padding``.  The row of an
    empty slot is NaN (``blank``), and so is the row of a history that grew
    past the cap; ``long`` holds each such slot, folded from its entry's own
    array.
    ``width`` is the longest history in the block (at least 1).  The block
    copies the entry's presentations as :meth:`_file` and :meth:`present`
    see them, so the memory writes presentation times only through
    ``deposit`` and ``seed_entry``.  Only :meth:`base` views the block, and
    no view outlives it: an array whose buffer is exported cannot grow.
    """

    def __init__(self, entries: Iterable[MMEntry]):
        self.entries: list[MMEntry | None] = []
        self.long: set[int] = set()  # live slots whose history is past the cap
        self.slot_of: dict[int, int] = {}  # live id -> slot, in id order
        self.postings: defaultdict[tuple, array] = defaultdict(partial(array, "q"))
        self.reach: defaultdict[str, array] = defaultdict(partial(array, "q"))
        self.own: list[frozenset[str]] = []  # each slot's own symbols
        self.posted: list[frozenset[str]] = []  # each slot's reach set as posted
        self.symbols: dict[str, int] = {}  # symbol -> code
        self.names: list[str] = []  # code -> symbol
        self.codes = array("q")  # 64-bit, so numpy reads them as indices with no cast
        self.owners = array("q")
        self.carriers: list[list[int]] = []  # code -> the slots holding it, in slot order
        self.most = 1  # the most slots one code has
        self.repeat = 1  # at least the most times one chunk holds one value
        self.cap = HISTORY_CAP
        self.times = array("d")
        self.padding = array("d", (-math.inf,)) * self.cap  # a row's cells after its history
        self.blank = array("d", (math.nan,)) * self.cap  # the row of a slot outside the block
        self.width = 1
        for entry in entries:
            self._file(entry)
        reach = self.reach
        for slot, entry in enumerate(self.entries):
            symbols = self.posted[slot] = self.reach_set(entry)
            for symbol in symbols:
                reach[symbol].append(slot)

    def _file(self, entry: MMEntry) -> int:
        """Give ``entry`` the next slot, with its postings, own symbol set,
        symbol codes and presentation row, and return the slot; its reach
        set is not posted yet."""
        slot = len(self.entries)
        self.entries.append(entry)
        self.slot_of[entry.id] = slot
        tag, chunk = entry.tag, entry.chunk
        keys = [(tag,)]
        if chunk is None:
            self.own.append(frozenset())
        else:
            symbols = [chunk.ctype]
            keys.append((tag, chunk.ctype))
            known, carriers = self.symbols, self.carriers
            for name, value in chunk.slots:
                symbols.append(value)
                keys.append((tag, name, value))
                code = known.get(value)
                if code is None:
                    code = known[value] = len(carriers)
                    self.names.append(value)
                    carriers.append([])
                self.codes.append(code)
                self.owners.append(slot)
                held = carriers[code]
                held.append(slot)
                if len(held) > self.most:
                    self.most = len(held)
            own = frozenset(symbols)
            if len(own) < len(symbols):  # a value held twice, or the type held as a value
                self.repeat = max(self.repeat, len(chunk.slots))
            self.own.append(own)
        self.posted.append(frozenset())
        postings = self.postings
        for key in keys:
            postings[key].append(slot)
        history = entry.presentations
        if len(history) <= self.cap:
            self.times += history
            self.times += self.padding[len(history):]
            self.width = max(self.width, len(history))
        else:
            self.times += self.blank
            self.long.add(slot)
        return slot

    def add(self, entry: MMEntry) -> None:
        """File ``entry`` at a new slot and post its reach set."""
        self.repost(self._file(entry))

    def reach_set(self, entry: MMEntry) -> frozenset[str]:
        """The union of the own sets of ``entry`` and of every linked entry,
        every one of them live: forgetting drops the links to a gone entry."""
        own, slot_of = self.own, self.slot_of
        mine = own[slot_of[entry.id]]
        if not entry.links:
            return mine
        return mine.union(*[own[slot_of[nid]] for nid in entry.links])

    def repost(self, slot: int) -> None:
        """Move ``slot``'s reach postings to its entry's current reach set."""
        old, new = self.posted[slot], self.reach_set(self.entries[slot])
        for symbol in old - new:
            self.reach[symbol].remove(slot)
        for symbol in new - old:
            self.reach[symbol].append(slot)
        self.posted[slot] = new

    def remove(self, entry: MMEntry) -> int:
        """Empty ``entry``'s slot and return it."""
        slot, cap = self.slot_of.pop(entry.id), self.cap
        self.entries[slot] = None
        self.times[slot * cap:(slot + 1) * cap] = self.blank
        self.long.discard(slot)
        return slot

    def present(self, entry: MMEntry) -> None:
        """Write ``entry``'s newest presentation into its row, or its slot into ``long``."""
        slot, count, cap = self.slot_of[entry.id], len(entry.presentations), self.cap
        if count <= cap:
            self.times[slot * cap + count - 1] = entry.presentations[-1]
            self.width = max(self.width, count)
        elif count == cap + 1:  # the history leaves the block
            self.times[slot * cap:(slot + 1) * cap] = self.blank
            self.long.add(slot)

    def base(self, now: float, decay: float) -> np.ndarray:
        """Each slot's base level at ``now`` from its row, NaN at a slot
        outside the block (empty, or in ``long``).

        ``np.float_power`` calls the C library's ``pow``, as Python's ``**``
        does.  The terms lie one presentation column to a row, and the rows
        are added in order from the oldest, so each value has the bits of
        :meth:`MiddleMemory.base_level`'s left fold; the padding adds +0.0,
        and each log is ``math.log``'s.  ``now`` must be after every
        presentation in the block.  The block's view lives only inside the
        call that takes the lags.
        """
        slots = len(self.entries)
        sums = np.empty(slots + 1)  # the sums in sums[1:]
        terms = np.empty((self.width, slots))
        with np.errstate(over="ignore", divide="ignore"):  # inf, and log(0.0) is -inf
            np.subtract(now, np.frombuffer(self.times).reshape(-1, self.cap)[:, :self.width].T,
                        out=terms)
            np.float_power(terms, -decay, out=terms)
            # Reducing the outer axis adds whole rows in order; a lone column has no
            # other axis, and numpy would sum it pairwise, which changes bits.
            if slots > 1:
                np.add.reduce(terms, axis=0, out=sums[1:])
            else:
                sums[1:] = np.add.accumulate(terms, axis=0)[-1]
            # The output overlaps the input by one cell, so numpy runs its element loop,
            # which calls the C library's log as math.log does (its AVX-512 loop does not).
            return np.log(sums[1:], out=sums[:-1])

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

    def meets(self, sources: tuple[frozenset[str], ...]) -> np.ndarray:
        """How many of ``sources`` meet each slot's reach set."""
        count = np.zeros(len(self.entries), np.intp)
        for symbols in sources:
            hit = np.zeros(len(self.entries), bool)
            for symbol in symbols:
                posting = self.reach.get(symbol)
                if posting:
                    hit[np.frombuffer(posting, np.int64)] = True
            count += hit
        return count


class MiddleMemory:
    """Activation-ranked store of tagged predictions and graph chunks.

    Reads compute activation and store it on no entry.  A read evaluates
    every entry at one evaluation point (a time, working memory's spreading
    sources, and a version that every deposit, seeded entry and link bumps)
    into a table, kept while its point holds, so sweeping, shadow retrieval,
    formation and middle-memory conditions share one; each selects
    ``(entry, activation)`` pairs from it through :meth:`_where`, or, for a
    retrieval, indexes its values at the candidates' slots.  One table is
    cached, the last one read, keyed by its point alone; working memory
    keeps its own spreading sources (:func:`spread_sources`), so a read
    under an unchanged state compares the same tuple.  :meth:`_build` makes
    every table: a base-level column plus spreading plus noise.  The next
    table at the same time and version reuses its column, so each entry's
    base level is computed once per time and version.  Forgetting leaves the
    version alone: it rebuilds the sweep's table at its point from its
    column, NaN at the gone entries' slots.  A memory with no live entry has
    no table: :meth:`_table` gives None, every read returns its empty result
    at once, and the broadcast answers from its buffers alone, each distinct
    buffer-only context once (see :func:`context_symbols`).

    The memory builds its columns (:class:`_Columns`) at the first read that
    needs them, filing every entry seeded, deposited or linked so far in one
    pass.  From then on each change files itself at once: ``_add`` files a
    new entry, a deposit's merge writes its presentation, and ``link`` and
    ``_forget`` post again the reach sets they change, so a table build only
    reads the columns.  Inside the memory an entry is addressed by its slot
    there only: every table is by slot, and so are the postings of tag and
    content that a tagged or patterned read probes.  A forgotten entry
    leaves NaN at its slot in every table, which fails every read's test,
    and stays in every posting until new columns are built, once empty
    slots outnumber live ones.  From :data:`COLUMN_MIN_ENTRIES` entries up a
    table is numpy columns: a base-level column, plus spreading counted from
    the sources' reach postings, plus each entry's noise draw, made once per
    point.  A smaller memory's table is a list, built entry by entry.  Both
    equal the reference definitions, :meth:`base_level`, :meth:`spreading`
    and :meth:`activation`, bit for bit, so a trace does not depend on which
    kind of table runs; the broadcast's symbol scores take the same fork
    (see :func:`context_symbols`).

    The columns keep each entry's presentation times in a block of
    :data:`HISTORY_CAP` cells a slot, from which :meth:`_Columns.base` folds
    a base-level column with the bits of :meth:`base_level` and no Python
    work per entry; a longer history is folded from the entry's own array
    (:meth:`_Columns.long_base`).  The block is why presentation times are
    written only through :meth:`deposit` and :meth:`seed_entry`.
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
        self._filed: _Columns | None = None  # the columns, once a read needs them
        # (k, buffer symbols) -> top-k symbols of a broadcast with no live entry
        self._contexts: dict[tuple, tuple[str, ...]] = {}

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def _cols(self) -> _Columns:
        """The columns, built in one pass from every live entry the first
        time they are read."""
        cols = self._filed
        if cols is None:
            cols = self._filed = _Columns(self.entries.values())
        return cols

    def entry(self, entry_id: int) -> MMEntry:
        try:
            return self.entries[entry_id]
        except KeyError:
            raise UnknownEntryError(f"no middle-memory entry {entry_id}") from None

    def deposit(self, now: float, tag: str, chunk: Chunk | None = None,
                vector: HoloVector | None = None) -> tuple[int, bool]:
        """Record a presentation of (payload, tag) at time ``now``.

        Returns ``(entry id, created)``; a deposit whose content and tag
        match an existing entry merges into it as a new presentation.  A
        time that is not finite, or precedes a live entry's presentation,
        is refused before anything changes.
        """
        if chunk is None and vector is None:
            raise ChunkError("a deposit needs a chunk or a vector payload")
        if not math.isfinite(now):
            raise TemporalOrderError(f"deposit at {now} is not a finite time")
        if self._latest is not None and now < self._latest:
            raise TemporalOrderError(
                f"deposit at {now} precedes existing presentation at {self._latest}")
        key = _content_key(tag, chunk, vector)
        self._latest = now
        self._version += 1
        existing = self._by_key.get(key)
        if existing is not None:
            entry = self.entries[existing]
            entry.presentations.append(now)
            if self._filed is not None:
                self._filed.present(entry)
            return existing, False
        return self._add(key, tag, chunk, vector, array("d", (now,))).id, True

    def seed_entry(self, tag: str, chunk: Chunk | None = None,
                   vector: HoloVector | None = None,
                   presentations: Iterable[float] | None = None) -> int:
        """Install an entry with an explicit presentation history.

        Used when populating a model's initial middle memory; histories may
        predate the run (negative times), must be finite and sorted
        ascending.  Before the columns are first read, the entry is only
        kept: the first read files every entry in one pass
        (:class:`_Columns`).  After it, the entry is filed at once.
        """
        if chunk is None and vector is None:
            raise ChunkError("an entry needs a chunk or a vector payload")
        presentations = [0.0] if presentations is None else list(presentations)
        if not presentations:
            raise ChunkError("presentation history must be non-empty")
        if not all(map(math.isfinite, presentations)):
            raise TemporalOrderError("presentation times must be finite")
        if presentations != sorted(presentations):
            raise TemporalOrderError("presentation history must be sorted ascending")
        key = _content_key(tag, chunk, vector)
        if key in self._by_key:
            raise ChunkError(f"duplicate initial entry for tag {tag!r}")
        entry = self._add(key, tag, chunk, vector, array("d", presentations))
        if self._latest is None or presentations[-1] > self._latest:
            self._latest = presentations[-1]
        self._version += 1
        return entry.id

    def _add(self, key: tuple, tag: str, chunk: Chunk | None, vector: HoloVector | None,
             presentations: array) -> MMEntry:
        """Keep a new entry under the next id, filed at once if the columns exist."""
        # Positional, in field order: a keyword call costs a dict per entry.
        entry = MMEntry(self._next_id, tag, chunk, vector, presentations)
        self._next_id += 1
        self.entries[entry.id] = entry
        self._by_key[key] = entry.id
        if self._filed is not None:
            self._filed.add(entry)
        return entry

    def _candidates(self, pattern: Query | None, tags: Iterable[str]) -> array:
        """Slots a read of ``pattern`` under ``tags`` must test.

        Per tag, the read probes the smallest of the tag's posting and the
        postings of the pattern's known type and values.  Forgotten slots
        stay in postings and only :func:`match_query` decides a match, so a
        candidate may still fail.  Slots are valid until the next new table,
        so a reader takes them after its table, and with it the columns.  The
        slots come in one ``array("q")``, the typecode of every posting.
        """
        postings, out = self._filed.postings, array("q")
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
        cols = self._filed
        if cols is not None:
            cols.repost(cols.slot_of[id_a])
            cols.repost(cols.slot_of[id_b])
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
        every linked chunk; a vector-only entry adds none
        (:meth:`_Columns.reach_set`)."""
        return self._cols.reach_set(entry)

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

    def _table(self, wm: WorkingMemory, now: float) -> _Table | None:
        """The table at ``now`` under ``wm``, or None when no entry is live.

        The cached table serves when its point is ``(now, version,
        spreading sources of wm)``; at its time and version alone, a new
        table takes its base-level column; otherwise a new column is made."""
        if not self.entries:  # the one liveness test every read shares
            return None
        cached, point = self._cached, (now, self._version, spread_sources(wm))
        if cached is not None and cached.point == point:
            return cached
        if cached is not None and cached.point[:2] == point[:2]:
            base = cached.base
        else:
            cols = self._cols
            if len(cols.entries) > 2 * len(self.entries):  # empty slots outnumber live
                cols = self._filed = _Columns(self.entries.values())
            if now <= self._latest:  # some live entry's base_level would raise
                raise TemporalOrderError(
                    f"activation time {now} not after latest presentation {self._latest}")
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
        """The table at ``point``: ``base`` plus each entry's spreading,
        plus its noise draw, the float operations of :meth:`activation` in
        its order.  A list ``base`` gives a per-entry table; an array gives
        a column table.  ``noise`` is the point's draws, when already made.
        The build only reads the columns: every reach set was posted when
        its link or forgetting changed it."""
        now, _, sources = point
        cols = self._filed
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

    def retrieve(self, wm: WorkingMemory, now: float, pattern: Query | None,
                 tags: Iterable[str]) -> list[tuple[MMEntry, float, dict[str, str]]]:
        """The most active match under ``tags`` as ``[(entry, activation,
        bindings)]``, or ``[]``; a tie in activation goes to the smaller id.

        Entries must carry any of ``tags`` (read once; none reads nothing),
        be at or above the retrieval threshold and, when a pattern is given,
        have a decoded chunk the pattern matches; vector-only entries are
        reachable by tag alone.  Reads only: one pass over the candidates of
        :meth:`_candidates` indexes the current table's values at their
        slots, keeps the best hit so far, and tests with :func:`match_query`
        only a candidate that would beat it.  Slot order is id order, so the
        smaller slot wins a tie.  The activation is a Python float.
        """
        table = self._table(wm, now)  # first: a new table may renumber the slots
        if table is None:
            return []
        values, entries, best, best_bindings = table.values, self._filed.entries, None, None
        # the threshold, at a slot past every slot, stands in for the first hit
        best_act, best_slot = self.retrieval_threshold, len(values)
        for slot in self._candidates(pattern, tags):
            act = values[slot]
            if not act >= best_act or (act == best_act and slot > best_slot):  # NaN fails
                continue
            entry = entries[slot]
            if pattern is None:
                bindings = {}
            elif entry.chunk is None or (bindings := match_query(pattern, entry.chunk)) is None:
                continue
            best, best_act, best_slot, best_bindings = entry, act, slot, bindings
        return [] if best is None else [(best, float(best_act), best_bindings)]

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

    def _where(self, table: _Table | None, keep) -> list[tuple[MMEntry, float]]:
        """Each entry whose activation passes ``keep``, with it, in slot
        (id) order; none from no table.  ``keep`` tests a float, or each
        element of an array, and fails the NaN of a forgotten entry's slot.
        Sweeping, formation and the reference reads select through it; a
        retrieval indexes its candidates' values itself (:meth:`retrieve`),
        and the broadcast its table's values (:func:`context_symbols`)."""
        if table is None:
            return []
        values, entries = table.values, self._filed.entries
        if isinstance(values, list):
            return [(entry, act) for entry, act in zip(entries, values) if keep(act)]
        slots = keep(values).nonzero()[0]
        return list(zip(map(entries.__getitem__, slots.tolist()), values[slots].tolist()))

    def _forget(self, gone: list[MMEntry], table: _Table) -> None:
        """Remove ``gone`` and rebuild the sweep's ``table`` at its point
        from its base-level column, NaN at the gone entries' slots.

        Postings keep the gone slots.  Survivors keep their base levels, and
        their noise draws too: a draw depends on the point, which forgetting
        leaves alone, so the rebuild takes the table's and draws none.  Only
        the gone entries' neighbours lose a link, so only their reach sets
        are posted again, one neighbour at a time as it loses its link.
        With no survivor there is nothing to rebuild.
        """
        cols, base = self._cols, table.base
        for entry in gone:
            del self.entries[entry.id]
            del self._by_key[_content_key(entry.tag, entry.chunk, entry.vector)]
            base[cols.remove(entry)] = math.nan
            for nid in entry.links:
                other = self.entries.get(nid)
                if other is not None:
                    other.links.discard(entry.id)
                    cols.repost(cols.slot_of[nid])
        if any(entry.presentations[-1] == self._latest for entry in gone):
            self._latest = max((e.presentations[-1] for e in self.entries.values()),
                               default=None)
        self._cached = (self._build(table.point, base, table.noise)
                        if self.entries else None)

    def retrievable(self, wm: WorkingMemory, now: float) -> list[tuple[MMEntry, float]]:
        """All entries at or above the retrieval threshold, id order."""
        return self._where(self._table(wm, now), lambda act: act >= self.retrieval_threshold)


_NO_WEIGHTS = np.empty(0)  # the weights of a context with no retrievable entry
_NO_WEIGHTS.flags.writeable = False


def _softmax(cells: np.ndarray, top: float) -> np.ndarray:
    """Softmax weights of the activations in ``cells[1:]``, which it
    overwrites, given their largest, ``top``; ``+inf`` activations share
    them equally, the limit.  Each exponential goes one cell before its lag,
    into the spare ``cells[0]`` first: with its output overlapping its input,
    ``np.exp`` runs the C library's ``exp`` as ``math.exp`` does, on every
    host (see :meth:`_Columns.base`)."""
    acts = cells[1:]
    if top == math.inf:
        weights = (acts == top).astype(float)
    else:
        acts -= top
        weights = np.exp(acts, cells[:-1])
    return weights / weights.sum()


@dataclass
class Context:
    """One cycle's context broadcast, read in one pass over the table.

    ``buffers`` are the non-empty buffers in name order, ``slots`` the
    retrievable entries' slots in slot (id) order, ``entries`` the memory's
    entries by slot, and ``weights`` the retrievable entries' softmax
    weights: what :func:`context_vector` reads, for the peers that receive
    a vector.  ``entries`` is the memory's own list, so a context is read
    before the memory next changes.
    """

    symbols: list[str]
    zero: bool  # the context's vector is the zero vector
    buffers: list[Buffer]
    slots: Sequence[int]
    entries: list[MMEntry | None]
    weights: np.ndarray


def context_symbols(wm: WorkingMemory, mm: MiddleMemory, now: float,
                    k: int = 5) -> Context:
    """The context broadcast at ``now``, with its top-``k`` slot-value symbols.

    Buffer contents score 1.0 and retrievable entries their softmax weight;
    a symbol accumulates the weight of every contributor that carries it,
    and ties break by name.  The context is zero when no buffer content
    packs to a vector and no entry is retrievable; nothing is packed here.
    A column table ranks the buffers' symbols alone when a bound shows that
    no other symbol can reach the top ``k``, and otherwise scores every
    symbol with one ``np.bincount`` over symbol codes (:func:`_top_by_codes`);
    a smaller table scores entry by entry.  All give the same scores, bit
    for bit.  The context keeps the retrievable entries' slots; only
    :func:`context_vector` looks their entries up.

    With no live entry there is no table, and the top-``k`` depends only on
    ``k`` and the buffers' symbols in order: the memory answers each such
    pair once and keeps the answer in a memo of at most
    :data:`.chunks.MEMO_CAP` pairs.  The memo is the memory's own, so
    nothing passes between two sessions.
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
    table = mm._table(wm, now)
    if table is None:
        key = (k, tuple(symbols))
        top = mm._contexts.get(key)
        if top is None:
            top = remember(mm._contexts, key, tuple(
                sym for _, sym in _top_by_entries(symbols, [], _NO_WEIGHTS, k)))
        return Context(list(top), zero, buffers, (), [], _NO_WEIGHTS)
    threshold, acts, entries = mm.retrieval_threshold, table.values, mm._filed.entries
    if isinstance(acts, list):
        slots = [slot for slot, act in enumerate(acts) if act >= threshold]
        picked = [acts[slot] for slot in slots]
        weights = _softmax(np.array([0.0, *picked]), max(picked)) if slots else _NO_WEIGHTS
        top = _top_by_entries(symbols, [entries[slot] for slot in slots], weights, k)
    else:
        keep = acts >= threshold
        slots = keep.nonzero()[0]
        cells = np.empty(len(slots) + 1)  # with _softmax's spare cell
        picked = acts.take(slots, out=cells[1:])
        weights = _softmax(cells, picked.max()) if len(slots) else _NO_WEIGHTS
        top = _top_by_codes(mm._filed, symbols, keep, weights, k)
    return Context([sym for _, sym in top], zero and not len(slots), buffers, slots,
                   entries, weights)


def _top_by_entries(symbols: list[str], retrieved: list[MMEntry], weights: np.ndarray,
                    k: int) -> list[tuple[float, str]]:
    """The ``k`` least ``(-score, symbol)``, scored one contribution at a time."""
    scores: dict[str, float] = {}
    for sym in symbols:
        scores[sym] = scores.get(sym, 0.0) + 1.0
    for entry, w in zip(retrieved, weights.tolist()):
        if entry.chunk is not None:
            for _, sym in entry.chunk.slots:
                scores[sym] = scores.get(sym, 0.0) + w
    return heapq.nsmallest(k, [(-score, sym) for sym, score in scores.items()])


def _top_by_codes(cols: _Columns, symbols: list[str], keep: np.ndarray,
                  weights: np.ndarray, k: int) -> list[tuple[float, str]]:
    """:func:`_top_by_entries` from the columns, for the slots in ``keep``
    with their ``weights``: by the buffer symbols alone when a bound shows
    that no other symbol reaches the top ``k`` (:func:`_top_of_buffers`),
    otherwise by scoring every symbol (:func:`_top_by_bincount`).  Both
    give the same list, bit for bit.

    The bound.  A symbol held in the buffers scores at least 1.0: its fold
    starts from its buffer count and adds only weights, none negative.  A
    symbol that no buffer holds scores the weight of each kept slot once
    for each of the slot's chunk values equal to it: at most M =
    ``cols.most`` slots, each at most D = ``cols.repeat`` times, so at most
    D times the sum of the M largest weights, itself at most D·M times the
    largest.  Rounding raises the computed fold of at most M terms, and
    lowers each computed bound, by a relative (M + 1)·2**-53 at most, which
    together the margin ``1 + 2**-30`` covers while M is below 2**20.  So when
    the bound times the margin is below 1.0, every buffer symbol outranks
    every other, and when the buffers hold at least ``k`` distinct
    symbols the top ``k`` are buffer symbols.
    """
    by_slot = np.zeros(len(keep))
    by_slot[keep] = weights
    top = _top_of_buffers(cols, symbols, by_slot, weights, k)
    return _top_by_bincount(cols, symbols, keep, by_slot, k) if top is None else top


def _top_of_buffers(cols: _Columns, symbols: list[str], by_slot: np.ndarray,
                    weights: np.ndarray, k: int) -> list[tuple[float, str]] | None:
    """The ``k`` least ``(-score, symbol)`` of the buffer symbols, or None
    when fewer than ``k`` are distinct or the bound of :func:`_top_by_codes`
    fails.  Each score is the left fold :func:`_top_by_bincount` makes: the
    symbol's buffer count, then the weight of each of its carriers in slot
    order (0.0 at a slot not kept, which leaves the sum as it is)."""
    counts: dict[str, int] = {}
    for sym in symbols:
        counts[sym] = counts.get(sym, 0) + 1
    if len(counts) < k:
        return None
    if len(weights):
        most, margin = cols.most, cols.repeat * (1 + 2 ** -30)
        # every weight, about 1.0 in all, or more terms than the margin covers
        if most >= min(len(weights), 1 << 20):
            return None
        if not most * float(weights.max()) * margin < 1.0:  # NaN fails too
            heaviest = np.partition(weights, len(weights) - most)[len(weights) - most:]
            if not float(heaviest.sum()) * margin < 1.0:
                return None
    weight, known = by_slot.item, cols.symbols  # by_slot.item gives a Python float
    scored = []
    for sym, count in counts.items():
        score = float(count)
        code = known.get(sym)
        if code is not None:
            for slot in cols.carriers[code]:
                score += weight(slot)
        scored.append((-score, sym))
    return heapq.nsmallest(k, scored)


def _top_by_bincount(cols: _Columns, symbols: list[str], keep: np.ndarray,
                     by_slot: np.ndarray, k: int) -> list[tuple[float, str]]:
    """Every symbol scored by one ``np.bincount`` over symbol codes, and the
    ``k`` least ``(-score, symbol)``.

    ``np.bincount`` sums each bin in input order, so with the buffers'
    codes first (one no entry holds is coded for this call only) and then
    the kept slots' codes in slot (id) order, every score is the same left
    fold.  Only the symbols scoring at least the ``k``-th largest score are
    ranked by name.
    """
    owners = np.frombuffer(cols.owners, np.int64)
    picked = keep[owners]
    known, unseen = cols.symbols, {}
    buffered = [known[sym] if sym in known
                else unseen.setdefault(sym, len(cols.names) + len(unseen)) for sym in symbols]
    codes = np.concatenate((np.array(buffered, np.int64),
                            np.frombuffer(cols.codes, np.int64)[picked]))
    contributions = np.concatenate((np.ones(len(symbols)), by_slot[owners[picked]]))
    scores = np.bincount(codes, contributions)
    present = np.bincount(codes).nonzero()[0]
    found = scores[present]
    if 0 < k < len(found):
        best = found >= np.partition(found, len(found) - k)[len(found) - k]
        present, found = present[best], found[best]
    names, extra = cols.names, list(unseen)  # not names + extra: a copy per broadcast
    labels = [names[code] if code < len(names) else extra[code - len(names)]
              for code in present.tolist()]
    return heapq.nsmallest(k, zip((-found).tolist(), labels))


def context_vector(ctx: Context, book: Codebook) -> HoloVector:
    """Combine a context's buffers and retrievable entries into one vector.

    Non-empty buffers contribute their packed content at weight 1.0 and
    retrievable entries their vectors at their softmax weight.  The buffer
    sum is row 0 of a stack whose rows below are the weighted entry vectors;
    reducing a C-contiguous stack along axis 0 adds the rows in order, so
    the result has the bits of a left fold.  A zero context gives the zero
    vector; any other is normalized.  The retrievable entries are read
    here, from the context's slots, and nowhere else in the broadcast.
    """
    if ctx.zero:
        return np.zeros(book.dimension)
    stack = np.empty((len(ctx.slots) + 1, book.dimension))
    total = stack[0]
    total.fill(0.0)
    for buf in ctx.buffers:
        packed = _packed(buf, buf.content, book)
        if packed is not None:
            np.add(total, packed, out=total)
    if len(ctx.slots):
        rows = stack[1:]
        np.stack([ctx.entries[slot].payload_vector(book) for slot in ctx.slots], out=rows)
        rows *= ctx.weights[:, None]
    return normalized(np.add.reduce(stack, axis=0))
