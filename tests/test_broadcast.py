"""The context broadcast: one pass for symbols, a vector only when sent.

The reference below is the earlier two-pass broadcast, which packed every
buffer and every retrievable entry each cycle and folded them left to right
into one vector.  The one-pass broadcast must give the same symbols, the
same ``zero_context`` flag and, when a vector is built, the same bytes.
"""

import math
import sys

import numpy as np
import pytest

import mmarch
from mmarch import codec, demos, memory
from mmarch.chunks import Chunk, ChunkFactory
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
from mmarch.runtime import CONTEXT_SYMBOL_COUNT, Session, run_session

from test_runtime import linked_facts_doc


def _reference_softmax(ranked):
    acts = np.array([act for _, act in ranked])
    weights = np.exp(acts - acts.max())
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
            retrievable = [(MMEntry(id=i + 1, tag="t", vector=v), float(a))
                           for i, (v, a) in enumerate(zip(vectors, acts))]
            ctx = Context([], False, buffers, retrievable, weights)
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


def test_the_package_exports_the_broadcast():
    assert mmarch.context_symbols is context_symbols
    assert mmarch.context_vector is context_vector
    assert mmarch.Context is Context
