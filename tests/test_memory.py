"""Working memory ownership and middle-memory activation semantics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmarch.chunks import ChunkFactory
from mmarch.codec import Codebook, cosine, pack
from mmarch.errors import ChunkError, OwnershipError, TemporalOrderError, UnknownEntryError
from mmarch.memory import MiddleMemory, WorkingMemory, context_symbols, context_vector


@pytest.fixture
def factory():
    return ChunkFactory()


@pytest.fixture
def wm():
    wm = WorkingMemory()
    wm.add_buffer("goal", "central")
    wm.add_buffer("emotion", "emotion")
    wm.add_buffer("vision", "vision")
    return wm


class TestWorkingMemory:
    def test_shadow_writes_own_buffer(self, wm, factory):
        chunk = factory.make("threat", [("level", "high")])
        wm.write("emotion", "emotion", chunk)
        assert wm.buffer("emotion").content is chunk

    def test_shadow_writing_foreign_buffer_rejected(self, wm, factory):
        chunk = factory.make("threat", [("level", "high")])
        with pytest.raises(OwnershipError) as err:
            wm.write("emotion", "vision", chunk)
        assert err.value.writer == "emotion"
        assert err.value.buffer == "vision"

    def test_central_writes_anywhere(self, wm, factory):
        query = factory.make_query("dog", [("name", "?")])
        wm.write("central", "vision", query)
        assert wm.buffer("vision").content is query

    def test_urgent_requires_content(self, wm):
        with pytest.raises(ChunkError):
            wm.write("central", "goal", None, urgent=True)

    def test_overwrite_clears_urgent_flag(self, wm, factory):
        wm.write("emotion", "emotion", factory.make("threat"), urgent=True)
        assert wm.buffer("emotion").urgent
        wm.write("emotion", "emotion", factory.make("calm"))
        assert not wm.buffer("emotion").urgent

    def test_capacity_enforced(self):
        wm = WorkingMemory(capacity=1)
        wm.add_buffer("a", "central")
        with pytest.raises(ValueError):
            wm.add_buffer("b", "central")


class TestDeposit:
    def test_same_payload_same_tag_merges(self, factory):
        mm = MiddleMemory()
        c1 = factory.make("percept", [("value", "bear")])
        c2 = factory.make("percept", [("value", "bear")])
        id1, created1 = mm.deposit(1.0, "vision", chunk=c1)
        id2, created2 = mm.deposit(2.0, "vision", chunk=c2)
        assert (created1, created2) == (True, False)
        assert id1 == id2
        assert mm.entry(id1).presentations == [1.0, 2.0]

    def test_same_payload_different_tag_is_distinct(self, factory):
        mm = MiddleMemory()
        chunk = factory.make("percept", [("value", "bear")])
        id1, _ = mm.deposit(1.0, "vision", chunk=chunk)
        id2, _ = mm.deposit(1.0, "emotion", chunk=chunk)
        assert id1 != id2

    def test_vector_payload_retrievable_by_tag(self, wm, factory):
        mm = MiddleMemory()
        vec = np.ones(8) / math.sqrt(8)
        entry_id, _ = mm.deposit(1.0, "vision", vector=vec)
        hits = mm.retrieve(wm, 2.0, tags={"vision"}, k=5)
        assert [e.id for e, _, _ in hits] == [entry_id]
        # but a shaped pattern can never match a vector-only entry
        q = factory.make_query("percept", [("value", "?")])
        assert mm.retrieve(wm, 2.0, pattern=q, tags={"vision"}, k=5) == []

    def test_deposit_rejects_time_reversal(self, factory):
        mm = MiddleMemory()
        mm.deposit(5.0, "vision", chunk=factory.make("a"))
        with pytest.raises(TemporalOrderError):
            mm.deposit(4.0, "vision", chunk=factory.make("b"))


class TestLinks:
    def test_links_are_symmetric(self, factory):
        mm = MiddleMemory()
        a, _ = mm.deposit(1.0, "t", chunk=factory.make("a"))
        b, _ = mm.deposit(1.0, "t", chunk=factory.make("b"))
        mm.link(a, b)
        assert mm.entry(b).links == {a}
        assert mm.entry(a).links == {b}

    def test_self_link_is_noop(self, factory):
        mm = MiddleMemory()
        a, _ = mm.deposit(1.0, "t", chunk=factory.make("a"))
        mm.link(a, a)
        assert mm.entry(a).links == set()

    def test_unknown_id_rejected(self, factory):
        mm = MiddleMemory()
        a, _ = mm.deposit(1.0, "t", chunk=factory.make("a"))
        with pytest.raises(UnknownEntryError):
            mm.link(a, 99)


class TestActivation:
    def test_base_level_two_presentations(self, wm, factory):
        # lags of 4 s and 2 s at d = 0.5: ln(4^-0.5 + 2^-0.5)
        mm = MiddleMemory(decay=0.5)
        entry_id, _ = mm.deposit(1.0, "t", chunk=factory.make("a"))
        mm.entry(entry_id).presentations.append(3.0)
        act = mm.activation(mm.entry(entry_id), wm, 5.0)
        assert act == pytest.approx(0.18823, abs=1e-5)

    def test_base_level_unit_lag_is_zero(self, wm, factory):
        for decay in (0.3, 0.5, 0.9):
            mm = MiddleMemory(decay=decay)
            entry_id, _ = mm.deposit(1.0, "t", chunk=factory.make("a"))
            assert mm.activation(mm.entry(entry_id), wm, 2.0) == pytest.approx(0.0)

    def test_spreading_adds_share_per_matching_buffer(self, wm, factory):
        mm = MiddleMemory(decay=0.5, spread_weight=1.0)
        entry_id, _ = mm.deposit(
            1.0, "t", chunk=factory.make("percept", [("value", "bear")]))
        mm.entry(entry_id).presentations.append(3.0)
        # one non-empty buffer sharing the symbol "bear"
        wm.write("central", "goal", factory.make("goal", [("about", "bear")]))
        act = mm.activation(mm.entry(entry_id), wm, 5.0)
        assert act == pytest.approx(1.18823, abs=1e-5)

    def test_spreading_reaches_linked_neighbors(self, wm, factory):
        mm = MiddleMemory()
        hit, _ = mm.deposit(1.0, "t", chunk=factory.make("fact", [("about", "x")]))
        linked, _ = mm.deposit(1.0, "t", chunk=factory.make("fact", [("about", "y")]))
        lone, _ = mm.deposit(1.0, "t", chunk=factory.make("fact", [("about", "z")]))
        mm.link(hit, linked)
        wm.write("central", "goal", factory.make("goal", [("topic", "x")]))
        assert mm.spreading(mm.entry(hit), wm) > 0
        assert mm.spreading(mm.entry(linked), wm) > 0  # one hop via the graph
        assert mm.spreading(mm.entry(lone), wm) == 0

    def test_activation_requires_forward_time(self, wm, factory):
        mm = MiddleMemory()
        entry_id, _ = mm.deposit(1.0, "t", chunk=factory.make("a"))
        with pytest.raises(TemporalOrderError):
            mm.activation(mm.entry(entry_id), wm, 1.0)

    def test_seeded_noise_is_reproducible(self, wm, factory):
        def trajectory(seed):
            mm = MiddleMemory(noise=0.3, noise_seed=seed)
            entry_id, _ = mm.deposit(0.0, "t", chunk=factory.make("a"))
            return [mm.activation(mm.entry(entry_id), wm, 1.0 + i)
                    for i in range(5)]

        assert trajectory(1) == trajectory(1)
        assert trajectory(1) != trajectory(2)
        quiet = MiddleMemory(noise=0.0, noise_seed=1)
        entry_id, _ = quiet.deposit(0.0, "t", chunk=factory.make("a"))
        # unit lag, zero noise: exactly ln(1) = 0
        assert quiet.activation(quiet.entry(entry_id), wm, 1.0) == \
            pytest.approx(0.0)

    @settings(max_examples=1000, deadline=None)
    @given(data=st.data())
    def test_base_level_monotonicity(self, data):
        """More presentations raise activation; mere time passage lowers it."""
        mm = MiddleMemory(decay=data.draw(st.floats(0.1, 0.9)))
        factory = ChunkFactory()
        wm = WorkingMemory()
        times = sorted(data.draw(st.lists(
            st.floats(0.0, 100.0), min_size=1, max_size=8)))
        entry_id, _ = mm.deposit(times[0], "t", chunk=factory.make("a"))
        entry = mm.entry(entry_id)
        entry.presentations[:] = times
        now = times[-1] + data.draw(st.floats(0.01, 50.0))
        base = mm.activation(entry, wm, now)

        entry.presentations.append((times[-1] + now) / 2)
        assert mm.activation(entry, wm, now) > base

        entry.presentations[:] = times
        later = now + data.draw(st.floats(0.01, 50.0))
        assert mm.activation(entry, wm, later) < base


class TestRetrieveAndSweep:
    def _store(self, factory):
        mm = MiddleMemory()
        fresh, _ = mm.deposit(4.0, "t", chunk=factory.make("word", [("value", "a")]))
        stale, _ = mm.deposit(4.0, "t", chunk=factory.make("word", [("value", "b")]))
        mm.entry(fresh).presentations[:] = [1.0, 3.0]   # B ~ 0.188 at t=5
        mm.entry(stale).presentations[:] = [-3.0]       # B ~ -1.04 at t=5
        return mm, fresh, stale

    def test_ranked_by_activation_then_id(self, wm, factory):
        mm, fresh, stale = self._store(factory)
        hits = mm.retrieve(wm, 5.0, k=5)
        assert [e.id for e, _, _ in hits] == [fresh]  # stale below threshold
        mm.retrieval_threshold = -2.0
        hits = mm.retrieve(wm, 5.0, k=5)
        assert [e.id for e, _, _ in hits] == [fresh, stale]
        assert hits[0][1] > hits[1][1]

    def test_rerun_is_identical(self, wm, factory):
        mm, _, _ = self._store(factory)
        mm.retrieval_threshold = -2.0
        first = [(e.id, act) for e, act, _ in mm.retrieve(wm, 5.0, k=5)]
        second = [(e.id, act) for e, act, _ in mm.retrieve(wm, 5.0, k=5)]
        assert first == second

    def test_k_limits_results(self, wm, factory):
        mm, fresh, _ = self._store(factory)
        mm.retrieval_threshold = -2.0
        hits = mm.retrieve(wm, 5.0, k=1)
        assert [e.id for e, _, _ in hits] == [fresh]

    def test_tag_filter_accepts_any_listed_tag(self, wm, factory):
        mm = MiddleMemory()
        a, _ = mm.deposit(1.0, "emotion", chunk=factory.make("a"))
        b, _ = mm.deposit(1.0, "vision", chunk=factory.make("b"))
        c, _ = mm.deposit(1.0, "motor", chunk=factory.make("c"))
        hits = mm.retrieve(wm, 2.0, tags={"emotion", "vision"}, k=10)
        assert sorted(e.id for e, _, _ in hits) == [a, b]

    def test_id_breaks_exact_activation_ties(self, wm, factory):
        mm = MiddleMemory()
        a, _ = mm.deposit(1.0, "t", chunk=factory.make("a"))
        b, _ = mm.deposit(1.0, "t", chunk=factory.make("b"))
        hits = mm.retrieve(wm, 2.0, k=5)
        assert [e.id for e, _, _ in hits] == [a, b]

    def test_sweep_removes_stale_entry(self, wm, factory):
        # single presentation 10,000 s ago at d=0.5: B = ln(10000^-0.5) ~ -4.605
        mm = MiddleMemory()
        stale, _ = mm.deposit(0.0, "t", chunk=factory.make("old"))
        fresh, _ = mm.deposit(9999.0, "t", chunk=factory.make("new"))
        removed = mm.sweep(wm, 10000.0)
        assert [e.id for e, _ in removed] == [stale]
        assert removed[0][1] == pytest.approx(math.log(10000 ** -0.5), abs=1e-9)
        assert stale not in mm.entries and fresh in mm.entries

    def test_sweep_never_removes_at_or_above_floor(self, wm, factory):
        mm = MiddleMemory()
        for i in range(20):
            entry_id, _ = mm.deposit(float(i), "t",
                                     chunk=factory.make("c", [("n", f"v{i}")]))
        removed = mm.sweep(wm, 30.0)
        for entry, act in removed:
            assert act < mm.forget_threshold
        for entry in mm.entries.values():
            assert mm.activation(entry, wm, 30.0) >= mm.forget_threshold

    def test_spreading_can_hold_entry_above_floor(self, wm, factory):
        mm = MiddleMemory(forget_threshold=-1.0)
        entry_id, _ = mm.deposit(-6.0, "t",
                                 chunk=factory.make("fact", [("about", "x")]))
        # base level alone is below the floor at t=5 (lag 11)
        assert mm.base_level(mm.entry(entry_id), 5.0) < -1.0
        wm.write("central", "goal", factory.make("goal", [("topic", "x")]))
        assert mm.sweep(wm, 5.0) == []
        wm.write("central", "goal", None)
        assert [e.id for e, _ in mm.sweep(wm, 5.0)] == [entry_id]


class TestContext:
    def test_singleton_entry_context_is_its_vector(self, factory):
        wm = WorkingMemory()
        wm.add_buffer("goal", "central")
        mm = MiddleMemory()
        book = Codebook(dimension=256, seed=5)
        chunk = factory.make("word", [("value", "a")])
        mm.deposit(1.0, "t", chunk=chunk)
        vec, is_zero = context_vector(wm, mm, book, 2.0)
        assert not is_zero
        assert cosine(vec, pack(chunk, book)) == pytest.approx(1.0)

    def test_equal_activations_get_equal_softmax_weight(self, factory):
        wm = WorkingMemory()
        wm.add_buffer("goal", "central")
        mm = MiddleMemory()
        book = Codebook(dimension=256, seed=5)
        c1 = factory.make("word", [("value", "a")])
        c2 = factory.make("word", [("value", "b")])
        mm.deposit(1.0, "t", chunk=c1)
        mm.deposit(1.0, "t", chunk=c2)
        vec, _ = context_vector(wm, mm, book, 2.0)
        expected = 0.5 * pack(c1, book) + 0.5 * pack(c2, book)
        expected /= np.linalg.norm(expected)
        assert cosine(vec, expected) == pytest.approx(1.0)

    def test_wm_outweighs_softmax_shared_entries(self, factory):
        wm = WorkingMemory()
        wm.add_buffer("goal", "central")
        mm = MiddleMemory()
        book = Codebook(dimension=512, seed=5)
        goal = factory.make("goal", [("state", "flee")])
        wm.write("central", "goal", goal)
        e1 = factory.make("word", [("value", "a")])
        e2 = factory.make("word", [("value", "b")])
        mm.deposit(1.0, "t", chunk=e1)
        mm.deposit(1.0, "t", chunk=e2)
        vec, _ = context_vector(wm, mm, book, 2.0)
        wm_cos = cosine(vec, pack(goal, book))
        assert wm_cos > cosine(vec, pack(e1, book))
        assert wm_cos > cosine(vec, pack(e2, book))

    def test_empty_state_flagged_zero_vector(self):
        wm = WorkingMemory()
        wm.add_buffer("goal", "central")
        vec, is_zero = context_vector(wm, MiddleMemory(), Codebook(dimension=64), 1.0)
        assert is_zero
        assert not vec.any()

    def test_context_unit_norm_otherwise(self, factory):
        wm = WorkingMemory()
        wm.add_buffer("goal", "central")
        wm.write("central", "goal", factory.make("goal", [("state", "x")]))
        mm = MiddleMemory()
        mm.deposit(1.0, "t", chunk=factory.make("word", [("value", "a")]))
        book = Codebook(dimension=256, seed=5)
        vec, is_zero = context_vector(wm, mm, book, 2.0)
        assert not is_zero
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_context_symbols_ranked_by_weight_then_name(self, factory):
        wm = WorkingMemory()
        wm.add_buffer("goal", "central")
        wm.add_buffer("language", "language")
        wm.write("central", "goal", factory.make("goal", [("state", "listen")]))
        wm.write("language", "language", factory.make("word", [("value", "the")]))
        mm = MiddleMemory()
        mm.deposit(1.0, "language", chunk=factory.make("word", [("value", "the")]))
        symbols = context_symbols(wm, mm, 2.0, k=5)
        assert symbols[0] == "the"      # 1.0 buffer + 1.0 softmax
        assert symbols[1] == "listen"   # 1.0 buffer
