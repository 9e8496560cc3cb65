"""The context broadcast: one pass for symbols, a vector only when sent.

The reference below is the earlier two-pass broadcast, which packed every
buffer and every retrievable entry each cycle and folded them left to right
into one vector.  The one-pass broadcast must give the same symbols, the
same ``zero_context`` flag and, when a vector is built, the same bytes.
"""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mmarch
from mmarch import codec, demos, memory, runtime
from mmarch.chunks import WILDCARD, Chunk, ChunkFactory, Query
from mmarch.codec import Codebook, normalized, pack, pack_query
from mmarch.memory import (
    Buffer,
    Context,
    MiddleMemory,
    MMEntry,
    WorkingMemory,
    context_symbols,
    context_vector,
)
from mmarch.model import load_model, parse_model
from mmarch.predictors import ExternalPredictor
from mmarch.runtime import CONTEXT_SYMBOL_COUNT, Session, run_session

from pins import linked_facts_doc, mm_scale_document
from test_memory import assert_carriers_scanned


def _reference_softmax(ranked):
    top = max(act for _, act in ranked)
    weights = np.array([math.exp(act - top) for _, act in ranked])
    return weights / weights.sum()


def _reference_packed(content, book):
    if isinstance(content, Chunk):
        return pack(content, book)
    return pack_query(content, book)


def reference_vector(wm, mm, book, now):
    """``(vector, is_zero)``: every contribution folded in, left to right."""
    total = np.zeros(book.dimension)
    contributed = False
    for name in sorted(wm.buffers):
        buf = wm.buffers[name]
        if buf.content is None:
            continue
        packed = _reference_packed(buf.content, book)
        if packed is not None:
            np.add(total, packed, out=total)
            contributed = True
    ranked = mm.retrievable(wm, now)
    if ranked:
        weighted = np.empty(book.dimension)
        for (entry, _), w in zip(ranked, _reference_softmax(ranked)):
            np.add(total, np.multiply(w, entry.payload_vector(book), out=weighted),
                   out=total)
        contributed = True
    if not contributed:
        return total, True
    return normalized(total), False


def reference_symbols(wm, mm, now, k=5):
    scores = {}

    def credit(symbols, weight):
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
        for (entry, _), w in zip(ranked, _reference_softmax(ranked)):
            if entry.chunk is not None:
                credit(entry.chunk.values(), float(w))
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [sym for sym, _ in ordered[:k]]


def assert_matches_reference(wm, mm, book, now, k=CONTEXT_SYMBOL_COUNT):
    ctx = context_symbols(wm, mm, now, k=k)
    vector = context_vector(ctx, book)
    expected, is_zero = reference_vector(wm, mm, book, now)
    assert ctx.symbols == reference_symbols(wm, mm, now, k=k)
    assert ctx.zero == is_zero
    assert vector.shape == expected.shape and vector.dtype == expected.dtype
    assert vector.tobytes() == expected.tobytes()


class TestStackedReduction:
    """The stacked reduction adds its rows in order: a left fold's bits."""

    @staticmethod
    def _left_fold(buffers, vectors, weights, book):
        total = np.zeros(book.dimension)
        for buf in buffers:
            np.add(total, _reference_packed(buf.content, book), out=total)
        weighted = np.empty(book.dimension)
        for w, v in zip(weights, vectors):
            np.add(total, np.multiply(w, v, out=weighted), out=total)
        return normalized(total)

    def test_random_trials_are_bit_identical(self):
        rng = np.random.default_rng(2024)
        factory = ChunkFactory()
        shapes = [(0, 64), (1, 2048), (1200, 2048), (1200, 64)]
        shapes += [(int(rng.integers(0, 1201)), 2 * int(rng.integers(32, 1025)))
                   for _ in range(36)]
        for n, dim in shapes:
            book = Codebook(dimension=dim, seed=int(rng.integers(1000)))
            buffers = [Buffer(f"b{i}", "central",
                              content=factory.make("goal", [("v", f"s{i}")]))
                       for i in range(int(rng.integers(0 if n else 1, 4)))]
            vectors = [normalized(rng.standard_normal(dim)) for _ in range(n)]
            acts = rng.normal(0.0, 2.0, size=n)
            weights = _reference_softmax([(None, a) for a in acts]) if n else np.empty(0)
            entries = [MMEntry(id=i + 1, tag="t", vector=v) for i, v in enumerate(vectors)]
            ctx = Context([], False, buffers, range(n), entries, weights)
            expected = self._left_fold(buffers, vectors, weights, book)
            assert np.array_equal(context_vector(ctx, book), expected), (n, dim)
            assert context_vector(ctx, book).tobytes() == expected.tobytes(), (n, dim)

    def test_empty_state_is_the_zero_vector(self):
        wm = WorkingMemory()
        wm.add_buffer("goal", "central")
        ctx = context_symbols(wm, MiddleMemory(), 1.0)
        assert ctx.zero and ctx.symbols == []
        vector = context_vector(ctx, Codebook(dimension=64))
        assert np.array_equal(vector, np.zeros(64)) and vector.dtype == np.float64


@pytest.mark.parametrize("name", demos.names())
@pytest.mark.parametrize("mode", ["mm", "pipeline"])
def test_every_demo_broadcast_matches_the_reference(name, mode):
    session = Session(load_model(demos.path(name)), mode=mode, seed=7)
    for _ in range(60):
        session.step()
        assert_matches_reference(session.wm, session.mm, session.book,
                                 session._cycle_time(session.cycle))
    session.finish()


@pytest.mark.parametrize("noise", [0.0, 0.3])
def test_linked_facts_broadcast_matches_the_reference(noise):
    for size in (24, 80):  # on each side of memory.COLUMN_MIN_ENTRIES
        session = Session(parse_model(linked_facts_doc(size=size, noise=noise)),
                          mode="mm", seed=3)
        for _ in range(40):
            session.step()
            assert_matches_reference(session.wm, session.mm, session.book,
                                     session._cycle_time(session.cycle))
        session.finish()


@pytest.mark.parametrize("noise", [0.0, 0.3])
def test_a_broadcast_without_an_external_peer_reads_no_pairs(monkeypatch, noise):
    """With no external peer, a broadcast reads no ``(entry, activation)``
    pairs: symbols, weights and ``zero`` come from the kept slots alone.
    The context it made still gives the reference vector, bit for bit.
    Noise forgets facts until the tables are per-entry ones."""
    session = Session(parse_model(linked_facts_doc(size=80, noise=noise)), mode="mm", seed=3)
    assert not any(isinstance(p, ExternalPredictor) for p in session.predictors)
    reads, made = [], []  # per _where read: True; per broadcast: (context, reads, columns)
    where = MiddleMemory._where
    monkeypatch.setattr(MiddleMemory, "_where", lambda self, table, keep: (
        reads.append(True) or where(self, table, keep)))

    def broadcast(wm, mm, now, k):
        before = len(reads)
        ctx = context_symbols(wm, mm, now, k=k)
        made.append((ctx, reads[before:], isinstance(mm._cached.values, np.ndarray)))
        return ctx

    monkeypatch.setattr(runtime, "context_symbols", broadcast)
    for cycle in range(40):
        session.step()
        ctx, during, _ = made[cycle]
        assert True not in during
        expected, is_zero = reference_vector(session.wm, session.mm, session.book,
                                             session._cycle_time(session.cycle))
        assert ctx.zero == is_zero
        assert context_vector(ctx, session.book).tobytes() == expected.tobytes()
    assert made[0][2]  # the first broadcasts read column tables, with entries kept
    assert all(len(ctx.slots) for ctx, _, _ in made[:4])
    assert True in reads  # the sweep and the reference do read every slot
    session.finish()


@pytest.mark.parametrize("contents, entries", [
    ([("query", "?", [("a", "?")])], 0),             # fully wildcarded: zero
    ([("query", "?", [("a", "?")])], 2),             # ... but entries retrievable
    ([("query", "fact", [("a", "?")])], 0),          # known type only
    ([("query", "?", [("a", "x"), ("b", "?")])], 0),  # known slot value only
    ([("query", "?", []), ("chunk", "goal", [("s", "y")])], 1),
    ([], 0),
])
def test_inline_states_match_the_reference(contents, entries):
    factory = ChunkFactory()
    wm = WorkingMemory()
    for i, (kind, ctype, slots) in enumerate(contents):
        wm.add_buffer(f"b{i}", "central")
        make = factory.make_query if kind == "query" else factory.make
        wm.write("central", f"b{i}", make(ctype, slots))
    wm.add_buffer("spare", "central")
    mm = MiddleMemory()
    for i in range(entries):
        mm.deposit(1.0, "t", chunk=factory.make("word", [("value", f"w{i}")]))
    assert_matches_reference(wm, mm, Codebook(dimension=128, seed=2), 2.0)


def test_an_infinite_activation_scores_as_the_per_entry_loop(monkeypatch):
    """Twenty presentations at decay 236 sum past the largest float, so one
    activation is infinite; that entry takes the whole softmax weight, the
    limit of the softmax, and a column table ranks the symbols as the
    per-entry loop does."""
    size = memory.COLUMN_MIN_ENTRIES + 1

    def state():
        factory = ChunkFactory()
        wm = WorkingMemory()
        wm.add_buffer("goal", "central")
        wm.write("central", "goal",
                 factory.make("cue", [(f"s{i}", f"v{i}") for i in range(6)]))
        mm = MiddleMemory(decay=236.0)
        mm.seed_entry("t", chunk=factory.make("fact", [("a", "hot"), ("b", "v1")]),
                      presentations=[0.0] * 20)
        for i in range(size - 1):
            mm.seed_entry("t", chunk=factory.make("fact", [("a", f"n{i}")]),
                          presentations=[-1.0])
        assert mm.activations(wm, 0.05)[1] == math.inf
        return wm, mm

    by_columns = context_symbols(*state(), 0.05)
    monkeypatch.setattr(memory, "COLUMN_MIN_ENTRIES", size + 1)
    by_entries = context_symbols(*state(), 0.05)
    assert by_columns.symbols == by_entries.symbols
    assert len(by_columns.symbols) == CONTEXT_SYMBOL_COUNT
    for ctx in (by_columns, by_entries):
        assert np.isfinite(ctx.weights).all()
        assert ctx.weights[0] == 1.0 and not ctx.weights[1:].any()


@pytest.mark.parametrize("size", [memory.COLUMN_MIN_ENTRIES - 8, 6 * memory.COLUMN_MIN_ENTRIES])
def test_the_softmax_has_the_bits_of_math_exp(size):
    """The broadcast's weights are the softmax of the retrievable
    activations through ``math.exp``, bit for bit, in a per-entry table and
    in a column table.

    numpy's vector loop for ``exp`` (numpy 2.4.6 has one on x86 with
    AVX-512) differs from ``math.exp`` in the last bit at many of these
    lags; where numpy has none, the check holds with nothing probed."""
    rng = np.random.default_rng(44)
    factory = ChunkFactory()
    wm = WorkingMemory()
    wm.add_buffer("goal", "central")
    mm = MiddleMemory(retrieval_threshold=-50.0, forget_threshold=-60.0)
    for i in range(size):
        history = np.sort(rng.uniform(-10.0, 0.0, int(rng.integers(1, 5))))
        mm.seed_entry("t", chunk=factory.make("fact", [("n", f"n{i}")]),
                      presentations=history.tolist())
    acts = [act for _, act in mm.retrievable(wm, 1.0)]
    assert len(acts) == size
    exact = [math.exp(act - max(acts)) for act in acts]
    weights = context_symbols(wm, mm, 1.0).weights
    assert weights.tobytes() == (np.array(exact) / np.array(exact).sum()).tobytes()


def test_an_entry_vector_follows_the_codebook():
    """A context packed under one codebook and then another gives, under
    each, the vector of a fresh pack under that codebook: neither a buffer
    nor an entry keeps the first codebook's pack for the second."""
    factory = ChunkFactory()
    wm = WorkingMemory()
    wm.add_buffer("goal", "central")
    goal = factory.make("goal", [("want", "x")])
    wm.write("central", "goal", goal)
    mm = MiddleMemory()
    fact = factory.make("fact", [("n", "y")])
    mm.seed_entry("t", chunk=fact, presentations=[-1.0])
    ctx = context_symbols(wm, mm, 1.0)
    assert ctx.weights.tolist() == [1.0]
    for book in (Codebook(dimension=64, seed=1), Codebook(dimension=64, seed=2)):
        expected = normalized(pack(goal, book) + pack(fact, book))
        assert context_vector(ctx, book).tobytes() == expected.tobytes()


def test_buffer_only_symbols_get_no_column_codes():
    """A symbol that only a buffer holds, such as a failed query's id, is
    scored under a code for that broadcast alone: a hundred broadcasts, each
    with a fresh symbol in two buffers, leave the columns' symbol codes as
    they were, and each ranks as :func:`memory._top_by_entries` does."""
    factory, wm, mm = ChunkFactory(), WorkingMemory(), MiddleMemory()
    for i in range(memory.COLUMN_MIN_ENTRIES + 2):
        mm.seed_entry("t", chunk=factory.make("fact", [("a", f"v{i % 7}"), ("b", f"n{i}")]),
                      presentations=[0.0])
    wm.add_buffer("goal", "central")
    wm.add_buffer("query", "central")
    codes = set()  # how many symbols the columns have coded, after each broadcast
    for i in range(100):
        wm.write("central", "goal", factory.make("goal", [("topic", "v3"), ("id", f"q{i}")]))
        wm.write("central", "query", factory.make("failure", [("id", f"q{i}")]))
        ctx = context_symbols(wm, mm, 1.0 + i)
        assert isinstance(mm._cached.values, np.ndarray)  # a column table
        codes.add(len(mm._filed.names))
        symbols = [sym for buf in ctx.buffers for sym in buf.content.values()]
        expected = memory._top_by_entries(symbols, [ctx.entries[slot] for slot in ctx.slots],
                                          ctx.weights, CONTEXT_SYMBOL_COUNT)
        assert ctx.symbols == [sym for _, sym in expected]
        assert ctx.symbols[0] == f"q{i}"  # held twice, it scores 2.0
    assert len(codes) == 1


def _column_table(rng):
    """Columns of generated facts with a kept mask, softmax weights, buffer
    symbols and ``k``, as :func:`context_symbols` passes them to
    :func:`memory._top_by_codes`; and whether heavy entries carry the value
    ``a0``, which no buffer holds, to a score of 1.0 or more: four entries
    of infinite activation (weight 0.25 each), or one entry of weight 2/3
    or more that holds ``a0`` in two slots.

    Some entries are filed by ``add`` after the columns are built, some are
    forgotten, some are vector-only or below the threshold, some chunks
    hold a value in two slots, and some buffer symbols no entry holds."""
    factory, pool = ChunkFactory(), ["a0", "s1", "s2", "s3", "s4", "s5"]
    heavy = rng.choice([None, None, None, "shared", "doubled"])
    share, spread = rng.choice([0.05, 0.2, 0.6]), rng.choice([0.5, 6.0])

    def fact(*values):
        return factory.make("fact", [(f"n{j}", value) for j, value in enumerate(values)])

    def entry(i):
        if rng.random() < 0.1:
            return MMEntry(i, "t", vector=np.full(4, float(i)))
        values = [rng.choice(pool) if rng.random() < share else f"u{i}x{j}"
                  for j in range(rng.randint(1, 3))]
        if rng.random() < 0.05:
            values.append(values[0])  # one value in two slots
        return MMEntry(i, "t", chunk=fact(*values))

    light = [entry(i) for i in range(1, rng.randint(2, 80))]
    heavies = {None: [], "shared": [fact("a0", f"h{j}") for j in range(4)],
               "doubled": [fact("a0", "a0")]}[heavy]
    entries = light + [MMEntry(len(light) + 1 + j, "t", chunk=chunk)
                       for j, chunk in enumerate(heavies)]
    filed = rng.randint(1, len(entries))
    cols = memory._Columns(entries[:filed])
    for entry_ in entries[filed:]:
        cols.add(entry_)
    for entry_ in rng.sample(light, min(len(light) - 1, rng.randint(0, 3))):
        cols.remove(entry_)  # forgotten, leaving one light entry at least
    acts = np.array([math.nan if entry_ is None
                     else rng.choice([-3.0, rng.uniform(0.0, spread), rng.uniform(0.0, spread)])
                     for entry_ in cols.entries[:len(light)]] + [math.inf] * len(heavies))
    if heavy == "doubled":  # twice the weight of all the others together
        acts[-1] = np.nanmax(acts[:-1], initial=0.0) + math.log(2 * len(light))
    keep = acts >= 0.0
    slots = keep.nonzero()[0]
    cells = np.empty(len(slots) + 1)
    picked = acts.take(slots, out=cells[1:])
    weights = memory._softmax(cells, picked.max()) if len(slots) else np.empty(0)
    symbols = [rng.choice(pool[1:] + [f"b{j}" for j in range(4)])
               for _ in range(rng.randint(0, 12))]
    return cols, symbols, keep, weights, rng.randint(1, 8), heavy is not None


@settings(max_examples=400, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_the_buffer_path_ranks_as_the_bincount(seed):
    """On generated column tables, :func:`memory._top_of_buffers` declines
    or gives the list :func:`memory._top_by_bincount` gives, each score bit
    for bit, and both give what :func:`memory._top_by_entries` gives.  It
    declines when the buffers hold fewer than ``k`` distinct symbols and
    when heavy entries carry a symbol to 1.0 or more; with no entry kept it
    answers whenever the buffers hold ``k``.  The carriers are as
    :func:`assert_carriers_scanned` finds them."""
    cols, symbols, keep, weights, k, heavy = _column_table(random.Random(seed))
    assert_carriers_scanned(cols)
    by_slot = np.zeros(len(keep))
    by_slot[keep] = weights
    full = memory._top_by_bincount(cols, symbols, keep, by_slot, k)
    kept = [cols.entries[slot] for slot in keep.nonzero()[0]]
    assert full == memory._top_by_entries(symbols, kept, weights, k)
    fast = memory._top_of_buffers(cols, symbols, by_slot, weights, k)
    assert memory._top_by_codes(cols, symbols, keep, weights, k) == full
    distinct = len(set(symbols))
    if distinct < k or heavy:
        assert fast is None
    elif not keep.any():
        assert fast == full
    if fast is not None:
        assert fast == full


def test_the_buffer_path_answers_most_mm_scale_broadcasts(monkeypatch):
    """In a 200-fact ``mm_scale_document`` run every broadcast reads a
    column table, and the buffer symbols alone answer at least nine in ten."""
    answered = []
    top_of_buffers = memory._top_of_buffers

    def counted(*args):
        top = top_of_buffers(*args)
        answered.append(top is not None)
        return top

    monkeypatch.setattr(memory, "_top_of_buffers", counted)
    session = Session(parse_model(mm_scale_document(3, 200)), mode="mm", seed=3)
    for _ in range(60):
        session.step()
    session.finish()
    assert len(answered) == 60
    assert sum(answered) >= 0.9 * len(answered)


def _count_packs(monkeypatch):
    """Count every ``pack``/``pack_query`` call made through any mmarch module."""
    calls = []
    for attr in ("pack", "pack_query"):
        original = getattr(codec, attr)

        def counting(*args, original=original, **kwargs):
            calls.append(original.__name__)
            return original(*args, **kwargs)

        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "mmarch"]:
            if getattr(mod, attr, None) is original:
                monkeypatch.setattr(mod, attr, counting)
    return calls


@pytest.mark.parametrize("load, cycles", [
    (lambda: load_model(demos.path("wordloop")), 100),
    (lambda: parse_model(linked_facts_doc(size=24, noise=0.0)), 50),
])
def test_built_in_predictors_never_pack(monkeypatch, load, cycles):
    session = Session(load(), mode="mm", seed=0)
    calls = _count_packs(monkeypatch)
    run_session(session, cycles)
    assert session.cycle == cycles
    assert any(e.kind == "delivery" for e in session.trace.events)
    assert calls == []


BUFFER_SYMBOLS = st.sampled_from(["a", "b", "c"])


def buffer_contents(factory):
    """Empty, a chunk, or a query whose type and values may be wildcards;
    the few symbols repeat within and across buffers."""
    def slots(values):
        return [(f"s{i}", value) for i, value in enumerate(values)]

    chunks = st.lists(BUFFER_SYMBOLS, max_size=4).map(
        lambda values: factory.make("cue", slots(values)))
    queries = st.tuples(st.sampled_from(["cue", WILDCARD]),
                        st.lists(st.one_of(BUFFER_SYMBOLS, st.just(WILDCARD)), max_size=4))
    return st.one_of(st.none(), chunks, queries.map(
        lambda drawn: factory.make_query(drawn[0], slots(drawn[1]))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), emptied=st.booleans())
def test_a_memory_with_no_live_entry_broadcasts_its_buffers_alone(data, emptied):
    """On a fresh memory, and on one whose every entry is forgotten, each
    broadcast of a drawn sequence gives a fresh ``_top_by_entries`` over
    the buffers' symbols, whatever the memory remembers of the broadcasts
    before it: the same symbols in other counts or orders, or the same
    buffers at another ``k``."""
    factory, wm = ChunkFactory(), WorkingMemory()
    for name in ("b0", "b1", "b2"):
        wm.add_buffer(name, "central")
    mm = MiddleMemory(forget_threshold=-1.0)
    if emptied:
        mm.deposit(0.0, "t", chunk=factory.make("cue", [("s0", "a")]))
        assert len(mm.sweep(wm, 1000.0)) == 1 and mm._cols.entries == [None]
    contents = buffer_contents(factory)
    for _ in range(data.draw(st.integers(1, 8))):
        if not data.draw(st.booleans(), label="keep the buffers"):
            for name in wm.buffers:
                wm.write("central", name, data.draw(contents))
        k = data.draw(st.integers(0, 6), label="k")
        held = [buf.content for _, buf in sorted(wm.buffers.items()) if buf.content is not None]
        symbols = [sym for content in held for sym in (
            content.values() if isinstance(content, Chunk) else content.known_values())]
        fresh = memory._top_by_entries(symbols, [], np.empty(0), k)
        ctx = context_symbols(wm, mm, 1000.0, k=k)
        assert ctx.symbols == [sym for _, sym in fresh] == reference_symbols(wm, mm, 1000.0, k)
        assert ctx.zero == all(isinstance(c, Query) and c.ctype == WILDCARD
                               and not c.known_values() for c in held)
        assert len(ctx.slots) == 0 and len(ctx.weights) == 0


def test_the_buffer_only_memo_keys_on_k_and_the_symbols_in_order():
    """Contexts with one symbol set in other counts, and one context at two
    ``k``, each get their own answer."""
    factory, wm, mm = ChunkFactory(), WorkingMemory(), MiddleMemory()
    wm.add_buffer("goal", "central")

    def top(values, k):
        wm.write("central", "goal",
                 factory.make("cue", [(f"s{i}", v) for i, v in enumerate(values)]))
        return context_symbols(wm, mm, 1.0, k=k).symbols

    assert top(["b", "a", "b"], 1) == ["b"]
    assert top(["a", "b", "a"], 1) == ["a"]
    assert top(["a", "b", "a"], 2) == ["a", "b"]
    assert top(["b", "a", "b"], 1) == ["b"]
    assert len(mm._contexts) == 3


def test_the_buffer_only_memo_clears_at_its_cap(monkeypatch):
    monkeypatch.setattr(mmarch.chunks, "MEMO_CAP", 2)
    factory, wm, mm = ChunkFactory(), WorkingMemory(), MiddleMemory()
    wm.add_buffer("goal", "central")
    sizes = []
    for value in ("a", "b", "c", "a"):
        wm.write("central", "goal", factory.make("cue", [("s", value)]))
        assert context_symbols(wm, mm, 1.0).symbols == [value]
        sizes.append(len(mm._contexts))
    assert sizes == [1, 2, 1, 2]


def test_two_sessions_share_no_buffer_only_memo(monkeypatch):
    """A second session answers again every context the first answered:
    the memo lives and dies with its middle memory, so a repeated run pays
    what a single run pays."""
    calls = []
    top = memory._top_by_entries
    monkeypatch.setattr(memory, "_top_by_entries",
                        lambda *args: calls.append(args[0]) or top(*args))
    model = load_model(demos.path("bottleneck"))
    first = Session(model, mode="pipeline", seed=0)
    run_session(first, 20)
    answered = len(calls)
    assert 0 < answered < 20 and len(first.mm._contexts) == answered
    second = Session(model, mode="pipeline", seed=0)
    assert second.mm._contexts == {}
    run_session(second, 20)
    assert len(calls) == 2 * answered
    assert second.mm._contexts == first.mm._contexts
    assert second.mm._contexts is not first.mm._contexts


def test_the_package_exports_the_broadcast():
    assert mmarch.context_symbols is context_symbols
    assert mmarch.context_vector is context_vector
    assert mmarch.Context is Context
