"""Working memory ownership and middle-memory activation semantics."""

import functools
import math
import random
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mmarch import demos, memory
from mmarch.chunks import Chunk, ChunkFactory, match_query
from mmarch.codec import Codebook, normalized, pack, pack_query
from mmarch.errors import ChunkError, OwnershipError, TemporalOrderError, UnknownEntryError
from mmarch.memory import MiddleMemory, WorkingMemory, context_symbols, context_vector
from mmarch.model import load_model
from mmarch.runtime import Session


def fresh_sources(wm):
    """The spreading sources of ``wm``'s buffers, built afresh."""
    return tuple(frozenset(buf.content.values() if isinstance(buf.content, Chunk)
                           else buf.content.known_values()) for buf in wm.non_empty())


def _cosine(a, b):
    return float(np.dot(normalized(a), normalized(b)))


def _context(wm, mm, book, now):
    """``(vector, zero_context)`` of the broadcast at ``now``."""
    ctx = context_symbols(wm, mm, now)
    return context_vector(ctx, book), ctx.zero


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

    def test_every_write_clears_the_credit(self, wm, factory):
        """A shadow write's credit lasts only while the buffer holds it: a
        newer write by the owner or the centre, a query or a clear replaces
        it."""
        for writer, content in [("emotion", factory.make("calm")),
                                ("central", factory.make("calm")),
                                ("central", factory.make_query("threat", [("level", "?")])),
                                ("emotion", None)]:
            buf = wm.write("emotion", "emotion", factory.make("threat"))
            buf.credit = ("alarm", 0.05)
            assert wm.write(writer, "emotion", content).credit is None

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
        assert mm.entry(id1).presentations == array("d", [1.0, 2.0])

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
        hits = mm.retrieve(wm, 2.0, None, ("vision",))
        assert [e.id for e, _, _ in hits] == [entry_id]
        # but a shaped pattern can never match a vector-only entry
        q = factory.make_query("percept", [("value", "?")])
        assert mm.retrieve(wm, 2.0, q, ("vision",)) == []

    def test_seeded_history_defaults_only_when_absent(self, factory):
        mm = MiddleMemory()
        entry_id = mm.seed_entry("t", chunk=factory.make("a"))
        assert mm.entry(entry_id).presentations == array("d", [0.0])
        with pytest.raises(ChunkError):
            mm.seed_entry("t", chunk=factory.make("b"), presentations=[])
        assert len(mm) == 1

    def test_deposit_rejects_time_reversal(self, factory):
        mm = MiddleMemory()
        mm.deposit(5.0, "vision", chunk=factory.make("a"))
        with pytest.raises(TemporalOrderError):
            mm.deposit(4.0, "vision", chunk=factory.make("b"))

    @pytest.mark.parametrize("column_min", [memory.COLUMN_MIN_ENTRIES, 0])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_time_that_is_not_finite_is_refused(self, monkeypatch, wm, factory,
                                                  column_min, bad):
        """A deposit or seeded history at a non-finite time raises before the
        memory changes, whether or not its columns are built yet; afterwards
        the order check and forgetting work as if the call never came, on
        either kind of table."""
        monkeypatch.setattr(memory, "COLUMN_MIN_ENTRIES", column_min)
        mm = MiddleMemory(forget_threshold=-1.0)
        mm.deposit(0.0, "t", chunk=factory.make("fact", [("v", "old")]))
        for read in (False, True):
            if read:
                mm.activations(wm, 19.5)
            state = (len(mm), mm._version, mm._latest)
            for call in (
                    lambda: mm.deposit(bad, "t", chunk=factory.make("fact", [("v", "old")])),
                    lambda: mm.deposit(bad, "t", chunk=factory.make("fact", [("v", "new")])),
                    lambda: mm.seed_entry("t", chunk=factory.make("fact", [("v", "seeded")]),
                                          presentations=[-1.0, bad]),
                    lambda: mm.seed_entry("t", vector=np.ones(4), presentations=[bad])):
                with pytest.raises(TemporalOrderError):
                    call()
                assert (len(mm), mm._version, mm._latest) == state
        assert mm.entry(1).presentations == array("d", [0.0])
        mm.deposit(19.0, "t", chunk=factory.make("fact", [("v", "new")]))
        with pytest.raises(TemporalOrderError):
            mm.deposit(18.0, "t", chunk=factory.make("fact", [("v", "late")]))
        assert [e.chunk.get("v") for e, _ in mm.sweep(wm, 20.0)] == ["old"]
        assert len(mm) == 1


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

    @settings(max_examples=1000, deadline=None, derandomize=True)
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
        entry.presentations[:] = array("d", times)
        now = times[-1] + data.draw(st.floats(0.01, 50.0))
        base = mm.activation(entry, wm, now)

        entry.presentations.append((times[-1] + now) / 2)
        assert mm.activation(entry, wm, now) > base

        entry.presentations[:] = array("d", times)
        later = now + data.draw(st.floats(0.01, 50.0))
        assert mm.activation(entry, wm, later) < base


def assert_same_bits(got, expected):
    """Equal float bits, with NaN where ``expected`` has NaN."""
    got, expected = np.asarray(got, float), np.asarray(expected, float)
    nan = np.isnan(expected)
    assert np.isnan(got).tolist() == nan.tolist()
    assert got[~nan].tobytes() == expected[~nan].tobytes()


class TestPresentationBlock:
    """The base-level column folded from the presentation block must have
    the bits of :meth:`MiddleMemory.base_level`; a numpy whose
    ``float_power`` stops calling the C library's ``pow`` fails here."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(lags=st.lists(st.one_of(
               st.floats(1e-4, 1e8),
               st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
               min_size=1, max_size=40),
           decay=st.floats(0.05, 300.0))
    @example(lags=[1e-3, 0.5, 1e7], decay=300.0)  # overflow, and underflow to 0.0
    @example(lags=[1e300, 2.0], decay=1.035)  # a subnormal power
    def test_float_power_has_the_bits_of_python_pow(self, lags, decay):
        expected = []
        for lag in lags:
            try:
                expected.append(lag ** -decay)
            except OverflowError:  # base_level reads this as inf
                expected.append(math.inf)
        with np.errstate(over="ignore"):
            assert_same_bits(np.float_power(np.array(lags), -decay), expected)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_block_column_has_the_bits_of_base_level(self, data):
        """Histories seeded down to -1e7 and grown by merged deposits, on
        both sides of the cap, with forgotten slots mixed in; a time not
        after a live presentation raises as :meth:`base_level` does."""
        cap = data.draw(st.sampled_from([memory.HISTORY_CAP, 2]), label="cap")
        decay = data.draw(st.floats(0.05, 300.0), label="decay")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(memory, "HISTORY_CAP", cap)
            patch.setattr(memory, "COLUMN_MIN_ENTRIES", 0)
            factory, wm = ChunkFactory(), WorkingMemory()
            mm = MiddleMemory(decay=decay)
            size = data.draw(st.integers(1, 12), label="size")
            for i in range(size):
                history = sorted(data.draw(st.lists(
                    st.floats(-1e7, 0.0), min_size=1, max_size=cap + 3)))
                mm.seed_entry("t", chunk=factory.make("fact", [("n", f"n{i}")]),
                              presentations=history)
            now = 0.0
            for entry_id in data.draw(st.lists(st.integers(1, size), max_size=2 * cap)):
                now += data.draw(st.floats(0.0, 10.0))
                mm.deposit(now, "t", chunk=mm.entry(entry_id).chunk)
            gone = data.draw(st.sets(st.integers(1, size)), label="gone")
            now += 1.0
            mm._forget([mm.entry(i) for i in sorted(gone)], mm._table(wm, now))
            now += data.draw(st.floats(1e-3, 1e7), label="lag")
            table = mm._table(wm, now)
            slots = mm._cols.entries
            assert (table is None) == (not mm.entries)  # no live entry, no table
            if table is not None:
                assert_same_bits(table.base, [math.nan if e is None else mm.base_level(e, now)
                                              for e in slots])
            assert np.isnan(mm._cols.base(now, decay)).tolist() == [
                e is None or len(e.presentations) > cap for e in slots]
            if mm.entries:
                latest = max(e.presentations[-1] for e in mm.entries.values())
                with pytest.raises(TemporalOrderError) as by_column:
                    mm._table(wm, latest)
                patch.setattr(memory, "COLUMN_MIN_ENTRIES", size + 1)
                with pytest.raises(TemporalOrderError) as by_entry:
                    mm._table(wm, latest)
                assert str(by_column.value) == str(by_entry.value)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(decay=st.floats(0.05, 300.0),
           rows=st.lists(st.tuples(
               st.integers(memory.HISTORY_CAP + 1, 600),  # presentations
               st.sampled_from([1e-3, 1.0, 1e3, 1e7]),  # the span they fall in
               st.sampled_from([0.0, 1.0, 1e7]),  # how long before 0.0 the span ends
               st.integers(0, 2 ** 32 - 1)), min_size=1, max_size=4),
           deposits=st.lists(st.integers(0, 3), max_size=20),
           lag=st.floats(1e-3, 1e7), per_entry=st.booleans())
    @example(decay=300.0, rows=[(40, 1.0, 0.0, 0), (40, 1.0, 1e7, 1)], deposits=[],
             lag=1e-3, per_entry=False)  # a term past the largest float, and all terms 0.0
    @example(decay=300.0, rows=[(40, 1.0, 0.0, 0), (40, 1.0, 1e7, 1)], deposits=[],
             lag=1e-3, per_entry=True)
    def test_long_fold_has_the_bits_of_base_level(self, decay, rows, deposits, lag,
                                                  per_entry):
        """Histories past the cap, hundreds of presentations long, some grown
        by merged deposits, folded by either kind of table: each value has
        the bits of :meth:`base_level`, also at inf and -inf.  Terms of one
        size, as in a short span long after it, are where a pairwise sum
        such as ``np.sum`` gives other bits."""
        with pytest.MonkeyPatch.context() as patch:
            if not per_entry:
                patch.setattr(memory, "COLUMN_MIN_ENTRIES", 0)
            factory, wm = ChunkFactory(), WorkingMemory()
            mm = MiddleMemory(decay=decay)
            for i, (count, span, gap, seed) in enumerate(rows):
                draw = random.Random(seed).random
                mm.seed_entry("t", chunk=factory.make("fact", [("n", f"n{i}")]),
                              presentations=sorted(-gap - span * draw() for _ in range(count)))
            now = 0.0
            for row in deposits:
                if row < len(rows):
                    now += 0.5
                    mm.deposit(now, "t", chunk=mm.entry(row + 1).chunk)
            now += lag
            cols = mm._cols
            assert cols.long == {slot for slot, e in enumerate(cols.entries)
                                 if len(e.presentations) > memory.HISTORY_CAP}
            assert_same_bits(mm._table(wm, now).base,
                             [mm.base_level(e, now) for e in cols.entries])

    def test_random_blocks_have_the_bits_of_base_level(self):
        """Blocks of 1 to 60 slots, a few of them emptied, with histories of
        1 to :data:`HISTORY_CAP` presentations spread over a wide or a short
        span: each value of :meth:`_Columns.base` has the bits of
        :meth:`MiddleMemory.base_level`, and an empty slot is NaN.  One slot
        is the shape where numpy would sum the rows pairwise."""
        rng = random.Random(43)
        for _ in range(400):
            decay = rng.choice([0.5, rng.uniform(0.05, 3.0)])
            span = rng.choice([1e-3, 1.0, 50.0])
            entries = [memory.MMEntry(i, "t", presentations=array("d", sorted(
                           -1e-3 - span * rng.random()
                           for _ in range(rng.randint(1, memory.HISTORY_CAP)))))
                       for i in range(rng.choice([1, 2, rng.randint(1, 60)]))]
            cols = memory._Columns(entries)
            for entry in rng.sample(entries, rng.randint(0, len(entries) // 4)):
                cols.remove(entry)
            now, mm = rng.uniform(0.0, 10.0), MiddleMemory(decay=decay)
            assert_same_bits(cols.base(now, decay),
                             [math.nan if e is None else mm.base_level(e, now)
                              for e in cols.entries])

    def test_the_column_log_has_the_bits_of_math_log(self):
        """Where a contiguous ``np.log`` differs from ``math.log`` in the last
        bit, the column's log must not.  At decay -1 an entry presented once
        at ``-x`` sums to exactly ``x`` at time 0.0, so :meth:`_Columns.base`
        logs the probed floats themselves; 0.0 gives -inf, inf gives inf and
        an empty slot NaN, with no warning.

        Only a numpy with a vectorised float64 log (numpy 2.4.6 has one on
        x86 only with AVX-512) differs from ``math.log``; elsewhere nothing
        is probed and the column is checked at 0.0, inf and the empty slot.
        """
        draws = np.random.default_rng(39).uniform(0.0, 10.0, 100_000)
        probed = draws[np.log(draws) != [math.log(x) for x in draws.tolist()]].tolist()
        assert not probed or len(probed) >= 32  # where the vector loop differs, it often does
        sums = [*probed, 0.0, math.inf, 1.0]
        entries = [memory.MMEntry(i, "t", presentations=array("d", (-x,)))
                   for i, x in enumerate(sums)]
        cols = memory._Columns(entries)
        cols.remove(entries[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            column = cols.base(0.0, -1.0)
        assert_same_bits(column, [*map(math.log, probed), -math.inf, math.inf, math.nan])

    @pytest.mark.parametrize("count", [memory.HISTORY_CAP, memory.HISTORY_CAP + 4])
    @pytest.mark.parametrize("others", [3, memory.COLUMN_MIN_ENTRIES + 12])
    def test_a_sum_past_the_largest_float_is_infinite(self, factory, count, others):
        """Each term 0.05 ** -236.6 is finite and their sum is not: the
        block's fold and the long fold read it as inf without a warning, as
        :meth:`base_level` does, in a per-entry table and in a column
        table."""
        wm, mm = WorkingMemory(), MiddleMemory(decay=236.6)
        hot = mm.seed_entry("t", chunk=factory.make("fact", [("n", "hot")]),
                            presentations=[0.0] * count)
        for i in range(others):
            mm.seed_entry("t", chunk=factory.make("fact", [("n", f"n{i}")]),
                          presentations=[-1.0])
        assert mm.activations(wm, 0.05)[hot] == math.inf == mm.base_level(mm.entry(hot), 0.05)


class TestRetrieveAndSweep:
    def _store(self, factory):
        mm = MiddleMemory()
        fresh, _ = mm.deposit(4.0, "t", chunk=factory.make("word", [("value", "a")]))
        stale, _ = mm.deposit(4.0, "t", chunk=factory.make("word", [("value", "b")]))
        mm.entry(fresh).presentations[:] = array("d", [1.0, 3.0])   # B ~ 0.188 at t=5
        mm.entry(stale).presentations[:] = array("d", [-3.0])       # B ~ -1.04 at t=5
        return mm, fresh, stale

    def test_ranked_by_activation_then_id(self, wm, factory):
        mm, fresh, stale = self._store(factory)
        only_stale = factory.make_query("word", [("value", "b")])
        assert [e.id for e, _, _ in mm.retrieve(wm, 5.0, None, ("t",))] == [fresh]
        assert mm.retrieve(wm, 5.0, only_stale, ("t",)) == []  # stale below threshold
        mm.retrieval_threshold = -2.0
        hits = mm.retrieve(wm, 5.0, None, ("t",))
        assert [e.id for e, _, _ in hits] == [fresh]
        (_, act_stale, bindings), = mm.retrieve(wm, 5.0, only_stale, ("t",))
        assert hits[0][1] > act_stale and bindings == {}
        mm.retrieval_threshold = act_stale  # the threshold itself passes
        assert [e.id for e, _, _ in mm.retrieve(wm, 5.0, only_stale, ("t",))] == [stale]

    def test_rerun_is_identical(self, wm, factory):
        mm, _, _ = self._store(factory)
        mm.retrieval_threshold = -2.0
        first = [(e.id, act) for e, act, _ in mm.retrieve(wm, 5.0, None, ("t",))]
        second = [(e.id, act) for e, act, _ in mm.retrieve(wm, 5.0, None, ("t",))]
        assert first == second

    def test_tag_filter_accepts_any_listed_tag(self, wm, factory):
        mm = MiddleMemory()
        a, _ = mm.deposit(1.0, "emotion", chunk=factory.make("a"))
        b, _ = mm.deposit(1.0, "vision", chunk=factory.make("b"))
        c, _ = mm.deposit(1.0, "motor", chunk=factory.make("c"))
        mm.deposit(1.5, "vision", chunk=factory.make("b"))  # b is the most active

        def best(tags):
            return [e.id for e, _, _ in mm.retrieve(wm, 2.0, None, tags)]

        assert best(("emotion", "vision")) == [b]
        assert best(("motor", "emotion")) == [a]
        assert best(("motor",)) == [c]
        assert best(("sound",)) == best(()) == []

    def test_id_breaks_exact_activation_ties(self, wm, factory):
        mm = MiddleMemory()
        a, _ = mm.deposit(1.0, "t", chunk=factory.make("a"))
        b, _ = mm.deposit(1.0, "u", chunk=factory.make("b"))
        for tags in (("t", "u"), ("u", "t")):  # b is a candidate first here
            assert [e.id for e, _, _ in mm.retrieve(wm, 2.0, None, tags)] == [a]

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
        vec, is_zero = _context(wm, mm, book, 2.0)
        assert not is_zero
        assert _cosine(vec, pack(chunk, book)) == pytest.approx(1.0)

    def test_equal_activations_get_equal_softmax_weight(self, factory):
        wm = WorkingMemory()
        wm.add_buffer("goal", "central")
        mm = MiddleMemory()
        book = Codebook(dimension=256, seed=5)
        c1 = factory.make("word", [("value", "a")])
        c2 = factory.make("word", [("value", "b")])
        mm.deposit(1.0, "t", chunk=c1)
        mm.deposit(1.0, "t", chunk=c2)
        vec, _ = _context(wm, mm, book, 2.0)
        expected = 0.5 * pack(c1, book) + 0.5 * pack(c2, book)
        expected /= np.linalg.norm(expected)
        assert _cosine(vec, expected) == pytest.approx(1.0)

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
        vec, _ = _context(wm, mm, book, 2.0)
        wm_cos = _cosine(vec, pack(goal, book))
        assert wm_cos > _cosine(vec, pack(e1, book))
        assert wm_cos > _cosine(vec, pack(e2, book))

    def test_empty_state_flagged_zero_vector(self):
        wm = WorkingMemory()
        wm.add_buffer("goal", "central")
        vec, is_zero = _context(wm, MiddleMemory(), Codebook(dimension=64), 1.0)
        assert is_zero
        assert not vec.any()

    def test_context_unit_norm_otherwise(self, factory):
        wm = WorkingMemory()
        wm.add_buffer("goal", "central")
        wm.write("central", "goal", factory.make("goal", [("state", "x")]))
        mm = MiddleMemory()
        mm.deposit(1.0, "t", chunk=factory.make("word", [("value", "a")]))
        book = Codebook(dimension=256, seed=5)
        vec, is_zero = _context(wm, mm, book, 2.0)
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
        symbols = context_symbols(wm, mm, 2.0, k=5).symbols
        assert symbols[0] == "the"      # 1.0 buffer + 1.0 softmax
        assert symbols[1] == "listen"   # 1.0 buffer


def reference_activation(mm, entry, wm, now):
    """Noiseless base-level + spreading from scratch, reading no cached state."""
    total = 0.0
    for t in entry.presentations:
        total += (now - t) ** (-mm.decay)
    base = math.log(total)
    buffers = [b for b in wm.buffers.values() if b.content is not None]
    if not buffers:
        return base + 0.0
    targets = entry.chunk.symbols() if entry.chunk is not None else frozenset()
    neighbors = set()
    for nid in entry.links:
        if mm.entries[nid].chunk is not None:  # a vector-only neighbour reaches nothing
            neighbors |= mm.entries[nid].chunk.symbols()
    share = mm.spread_weight / len(buffers)
    spread = 0.0
    for buf in buffers:
        content = buf.content
        values = set(content.values() if isinstance(content, Chunk)
                     else content.known_values())
        if values & targets or (entry.links and values & neighbors):
            spread += share
    return base + spread


SYMBOLS = st.sampled_from(["a", "b", "c", "d", "e"])


def on_both_table_kinds(test):
    """Run a ``data`` property with per-entry tables or, drawn, column tables
    at every size."""
    @functools.wraps(test)
    def wrapper(self, data):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(memory, "COLUMN_MIN_ENTRIES", data.draw(
                st.sampled_from([memory.COLUMN_MIN_ENTRIES, 0]), label="column_min"))
            test(self, data)
    return wrapper


class TestActivationTable:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    @on_both_table_kinds
    def test_every_reported_value_is_a_fresh_evaluation(self, data):
        """Sweep, retrieve, retrievable and above report exactly base-level +
        spreading on the current state, before and after forgetting,
        including for the live neighbours of forgotten entries, for
        vector-only entries in the graph, and after links added late."""
        factory = ChunkFactory()
        forget = data.draw(st.floats(-3.0, 0.5))
        mm = MiddleMemory(spread_weight=data.draw(st.floats(0.0, 3.0)),
                          forget_threshold=forget,
                          retrieval_threshold=forget + data.draw(st.floats(0.0, 1.0)))
        chunks = data.draw(st.integers(1, 10))
        size = chunks + data.draw(st.integers(0, 3))
        for i in range(size):
            history = sorted(data.draw(st.lists(st.floats(-10.0, 0.0),
                                                min_size=1, max_size=4)))
            tag = data.draw(st.sampled_from(["x", "y"]))
            if i < chunks:
                chunk = factory.make("fact", [("n", f"n{i}"), ("v", data.draw(SYMBOLS))])
                mm.seed_entry(tag, chunk=chunk, presentations=history)
            else:
                mm.seed_entry(tag, vector=np.full(4, float(i)), presentations=history)

        def add_links(ids, max_size):
            pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
            for a, b in data.draw(st.lists(pairs, max_size=max_size)):
                mm.link(a, b)

        add_links(list(range(1, size + 1)), 12)
        wm = WorkingMemory()
        for name in ("goal", "left", "right"):
            wm.add_buffer(name, "central")
            kind = data.draw(st.sampled_from(["empty", "chunk", "query"]))
            if kind == "chunk":
                wm.write("central", name, factory.make("cue", [("v", data.draw(SYMBOLS))]))
            elif kind == "query":
                wm.write("central", name, factory.make_query(
                    "fact", [("v", data.draw(st.sampled_from(["?", "a", "b"])))]))
        now = data.draw(st.floats(0.01, 20.0))
        if data.draw(st.booleans()):
            mm.retrieve(wm, now, None, ("x",))  # the sweep reuses this table

        before = {i: reference_activation(mm, e, wm, now) for i, e in mm.entries.items()}
        removed = mm.sweep(wm, now)
        assert {e.id: act for e, act in removed} == \
            {i: act for i, act in before.items() if act < forget}
        gone = {e.id for e, _ in removed}
        for e in mm.entries.values():
            assert not e.links & gone

        for entry, act in mm.retrievable(wm, now):
            assert act == reference_activation(mm, entry, wm, now)
        assert {e.id for e, _ in mm.retrievable(wm, now)} == {
            i for i, e in mm.entries.items()
            if reference_activation(mm, e, wm, now) >= mm.retrieval_threshold}
        pattern = factory.make_query("fact", [("v", "?")])
        for entry, act, _ in mm.retrieve(wm, now, pattern, ("y",)):
            assert act == reference_activation(mm, entry, wm, now)
        reference = {i: reference_activation(mm, e, wm, now) for i, e in mm.entries.items()}
        thresholds = st.floats(-5.0, 5.0)
        if reference:  # a drawn reference value tests the strict comparison
            thresholds = st.one_of(thresholds, st.sampled_from(list(reference.values())))
        threshold = data.draw(thresholds)
        assert [(e.id, act) for e, act in mm.above(wm, now, threshold)] == \
            [(i, act) for i, act in reference.items() if act > threshold]
        wm.write("central", "goal", factory.make("cue", [("v", data.draw(SYMBOLS))]))
        for entry, act in mm.retrievable(wm, now):
            assert act == reference_activation(mm, entry, wm, now)
        if mm.entries:  # links added after a read must reach the next table
            add_links(sorted(mm.entries), 6)
            for entry_id, act in mm.activations(wm, now).items():
                assert act == reference_activation(mm, mm.entry(entry_id), wm, now)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    @on_both_table_kinds
    def test_tables_at_one_time_and_version_match_activation(self, data):
        """Tables under several spreading-source sets at one time and version
        share one base-level column, before and after forgetting, with noise
        on or off.  Each value equals :meth:`activation` bit for bit, and a
        tag-indexed ``retrieve`` gives the first of the table's sorted hits."""
        factory = ChunkFactory()
        forget = data.draw(st.floats(-3.0, 0.5))
        mm = MiddleMemory(spread_weight=data.draw(st.floats(0.0, 3.0)),
                          forget_threshold=forget,
                          retrieval_threshold=forget + data.draw(st.floats(0.0, 1.0)),
                          noise=data.draw(st.sampled_from([0.0, 0.5])),
                          noise_seed=data.draw(st.integers(0, 3)))
        tags = ["x", "y", "z"]
        size = data.draw(st.integers(1, 12))
        for i in range(size):
            history = sorted(data.draw(st.lists(st.floats(-10.0, 0.0),
                                                min_size=1, max_size=4)))
            tag = data.draw(st.sampled_from(tags))
            if data.draw(st.integers(0, 4)) == 0:
                mm.seed_entry(tag, vector=normalized(np.array([1.0, float(i + 1)])),
                              presentations=history)
            else:
                chunk = factory.make("fact", [("n", f"n{i}"), ("v", data.draw(SYMBOLS))])
                mm.seed_entry(tag, chunk=chunk, presentations=history)
        for a, b in data.draw(st.lists(st.tuples(st.integers(1, size),
                                                 st.integers(1, size)), max_size=12)):
            mm.link(a, b)
        wm = WorkingMemory()
        for name in ("goal", "left", "right"):
            wm.add_buffer(name, "central")
        now = data.draw(st.floats(0.01, 20.0))

        for step in range(data.draw(st.integers(1, 5))):
            for name in wm.buffers:
                kind = data.draw(st.sampled_from(["empty", "chunk", "query"]))
                content = None
                if kind == "chunk":
                    content = factory.make("cue", [("v", data.draw(SYMBOLS))])
                elif kind == "query":
                    content = factory.make_query(
                        "fact", [("v", data.draw(st.sampled_from(["?", "a", "b"])))])
                wm.write("central", name, content)
            if data.draw(st.booleans()):
                mm.sweep(wm, now)
            table = mm.activations(wm, now)
            assert list(table) == list(mm.entries)
            for entry_id, act in table.items():
                assert act == mm.activation(mm.entry(entry_id), wm, now)

            wanted = data.draw(st.sets(st.sampled_from(tags)))
            pattern = data.draw(st.sampled_from([
                None, factory.make_query("fact", [("v", "?")]),
                factory.make_query("fact", [("v", "a")]),
                factory.make_query("?", [("n", "?")])]))
            expected = []
            for entry_id, act in table.items():
                entry = mm.entries[entry_id]
                if entry.tag not in wanted:
                    continue
                bindings = {}
                if pattern is not None:
                    bindings = (match_query(pattern, entry.chunk)
                                if entry.chunk is not None else None)
                if bindings is not None and act >= mm.retrieval_threshold:
                    expected.append((entry_id, act, bindings))
            expected.sort(key=lambda hit: (-hit[1], hit[0]))
            hits = mm.retrieve(wm, now, pattern, wanted)
            assert [(e.id, act, b) for e, act, b in hits] == expected[:1]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_a_read_over_given_slots_filters_the_all_slot_read(self, data):
        """Over random slots in a drawn order, a table's values, which a
        retrieval indexes at its candidates' slots, give the all-slot read's
        pairs for those slots, in that order, each value with the same bits:
        on memories on each side of ``COLUMN_MIN_ENTRIES``, with noise on or
        off, and on the table that forgetting rebuilds after a read of the
        table before it."""
        factory = ChunkFactory()
        cut = memory.COLUMN_MIN_ENTRIES
        size = data.draw(st.one_of(st.integers(1, cut - 1), st.integers(cut, cut + 24)))
        mm = MiddleMemory(spread_weight=data.draw(st.floats(0.0, 3.0)),
                          forget_threshold=data.draw(st.floats(-3.0, 0.5)),
                          retrieval_threshold=1.0,
                          noise=data.draw(st.sampled_from([0.0, 0.5])),
                          noise_seed=data.draw(st.integers(0, 3)))
        for i in range(size):
            history = sorted(data.draw(st.lists(st.floats(-10.0, 0.0), min_size=1, max_size=3)))
            chunk = factory.make("fact", [("n", f"n{i}"), ("v", data.draw(SYMBOLS))])
            mm.seed_entry("t", chunk=chunk, presentations=history)
        for a, b in data.draw(st.lists(st.tuples(st.integers(1, size), st.integers(1, size)),
                                       max_size=size)):
            mm.link(a, b)
        wm = WorkingMemory()
        wm.add_buffer("goal", "central")
        now = data.draw(st.floats(0.01, 20.0))

        def check():
            table = mm._table(wm, now)
            threshold = data.draw(st.one_of(st.just(-math.inf), st.floats(-6.0, 4.0)))
            keep = lambda act: act >= threshold  # noqa: E731
            by_slot = {mm._cols.slot_of[entry.id]: (entry, act)
                       for entry, act in mm._where(table, keep)}
            slots = data.draw(st.lists(st.sampled_from(range(len(mm._cols.entries))),
                                       unique=True))
            got = [] if table is None else [(mm._cols.entries[slot], table.values[slot])
                                            for slot in slots if keep(table.values[slot])]
            expected = [by_slot[slot] for slot in slots if slot in by_slot]
            assert len(got) == len(expected)
            for (entry, act), (want_entry, want) in zip(got, expected):
                assert entry is want_entry
                assert act.hex() == want.hex()

        for _ in range(data.draw(st.integers(1, 3))):
            wm.write("central", "goal", data.draw(st.sampled_from([
                None, factory.make("cue", [("v", data.draw(SYMBOLS))])])))
            check()
            mm.sweep(wm, now)
            check()

    def test_no_table_read_after_a_sweep_holds_a_forgotten_entry(self, wm, factory):
        """Forgetting the weak entry drops the hub below the floor through the
        lost link; a second sweep at the same point forgets the hub too, and
        the table read under other sources in between must not keep it."""
        mm = MiddleMemory(forget_threshold=-1.0)
        weak, _ = mm.deposit(-1e6, "t", chunk=factory.make("fact", [("v", "cue")]))
        hub, _ = mm.deposit(0.0, "t", chunk=factory.make("fact", [("n", "hub")]))
        mm.link(hub, weak)
        wm.write("central", "goal", factory.make("goal", [("topic", "cue")]))
        assert [e.id for e, _ in mm.sweep(wm, 20.0)] == [weak]
        wm.write("central", "goal", None)
        assert list(mm.activations(wm, 20.0)) == [hub]
        wm.write("central", "goal", factory.make("goal", [("topic", "cue")]))
        assert [e.id for e, _ in mm.sweep(wm, 20.0)] == [hub]
        wm.write("central", "goal", None)
        assert list(mm.activations(wm, 20.0)) == []

    def test_an_empty_memory_does_no_table_work(self, monkeypatch, wm, factory):
        """With no live entries every read comes back empty without
        building spreading sources or a table, in a fresh memory and once
        every entry is forgotten, when the columns hold only empty slots and
        a tagged read probes postings that still hold them.  The broadcast
        reads its buffers alone, again and again.  The sweep that empties
        the memory builds its own table only, and no rebuild for nobody."""
        table, tables = memory._Table, 0

        def counting_table(*args, **kwargs):
            nonlocal tables
            tables += 1
            return table(*args, **kwargs)

        monkeypatch.setattr(memory, "_Table", counting_table)
        mm = MiddleMemory(forget_threshold=-1.0)
        mm.deposit(0.0, "t", chunk=factory.make("fact", [("v", "x")]))
        wm.write("central", "goal", factory.make("goal", [("topic", "x")]))
        assert len(mm.sweep(wm, 1000.0)) == 1
        assert mm._cols.entries == [None] and tables == 1

        def refuse(*args):
            raise AssertionError("table work on an empty memory")

        monkeypatch.setattr(memory, "spread_sources", refuse)
        monkeypatch.setattr(MiddleMemory, "_build", refuse)
        pattern = factory.make_query("fact", [("v", "x")])
        for store, now in ((mm, 1000.0), (mm, 2000.0), (MiddleMemory(), 1.0)):
            assert store.retrieve(wm, now, pattern, ("t",)) == []
            assert store.retrievable(wm, now) == []
            assert store.activations(wm, now) == {}
            assert store.above(wm, now, -math.inf) == []
            assert store.sweep(wm, now) == []
            for _ in range(2):
                ctx = context_symbols(wm, store, now)
                assert (ctx.symbols, ctx.zero, len(ctx.slots)) == (["x"], False, 0)
        assert tables == 1

    @pytest.mark.parametrize("column_min", [memory.COLUMN_MIN_ENTRIES, 0])
    def test_content_forgotten_and_deposited_again_is_retrieved_once(
            self, monkeypatch, wm, factory, column_min):
        """The forgotten entries' slots stay in their postings; the same
        content deposited again takes a new id and slot, and every read
        returns that id only, once.  The first read's table drops the dead
        slots, which then outnumber live ones, so it must take its slots
        after that table."""
        monkeypatch.setattr(memory, "COLUMN_MIN_ENTRIES", column_min)
        mm = MiddleMemory(forget_threshold=-1.0)
        fact = factory.make("fact", [("v", "x")])
        gone = [mm.deposit(0.0, "t", chunk=factory.make("fact", [("v", v)]))[0]
                for v in ("x", "a", "b")]
        other, _ = mm.deposit(999.0, "t", chunk=factory.make("fact", [("v", "y")]))
        assert [e.id for e, _ in mm.sweep(wm, 1000.0)] == gone
        new, created = mm.deposit(1000.0, "t", chunk=fact)
        assert created and new not in gone
        assert len(mm._cols.postings[("t", "v", "x")]) == 2  # the tombstone is still filed
        for pattern in (factory.make_query("fact", [("v", "x")]),
                        factory.make_query("?", [("v", "x")])):
            for tags in (("t",), ("u", "t")):
                hits = mm.retrieve(wm, 1001.0, pattern, tags)
                assert [e.id for e, _, _ in hits] == [new]
        assert len(mm._cols.postings[("t", "v", "x")]) == 1
        assert [e.id for e, _, _ in mm.retrieve(wm, 1001.0, None, ("t",))] == [new]
        hits = mm.retrieve(wm, 1001.0, factory.make_query("fact", [("v", "y")]), ("t",))
        assert [e.id for e, _, _ in hits] == [other]
        assert list(mm.activations(wm, 1001.0)) == [other, new]

    def test_table_follows_deposits_and_links(self, wm, factory):
        mm = MiddleMemory()
        x = factory.make("fact", [("about", "x")])
        a, _ = mm.deposit(1.0, "t", chunk=x)
        b, _ = mm.deposit(1.0, "t", chunk=factory.make("fact", [("about", "y")]))
        c, _ = mm.deposit(1.0, "t", chunk=factory.make("fact", [("about", "z")]))
        mm.link(a, b)
        wm.write("central", "goal", factory.make("goal", [("topic", "z")]))
        before = dict(mm.activations(wm, 3.0))
        mm.deposit(2.0, "t", chunk=x)
        mm.link(a, c)
        after = mm.activations(wm, 3.0)
        assert after[a] > before[a] + 1.0  # one more presentation, and z one hop away
        assert after[b] == before[b] and after[c] == before[c]
        for entry_id, act in after.items():
            assert act == reference_activation(mm, mm.entry(entry_id), wm, 3.0)

    @staticmethod
    def _linked_memory(factory, noise=0.3):
        mm = MiddleMemory(noise=noise, noise_seed=2)
        for i in range(6):
            mm.seed_entry("t", chunk=factory.make("fact", [("n", f"n{i}"), ("v", f"v{i % 3}")]),
                          presentations=[-2.0 - i, -1.0])
        mm.link(1, 2)
        return mm

    @pytest.mark.parametrize("column_min", [memory.COLUMN_MIN_ENTRIES, 0])
    def test_a_write_between_two_reads_at_one_point_reads_the_new_sources(
            self, monkeypatch, wm, factory, column_min):
        """Reads at one time and version under one working memory: each
        write between them drops its spreading sources, so the next read
        builds its table under the new ones, as :meth:`activation` gives
        them, on both kinds of table."""
        monkeypatch.setattr(memory, "COLUMN_MIN_ENTRIES", column_min)
        mm, now = self._linked_memory(factory), 1.0
        for content in (factory.make("cue", [("v", "v0")]), factory.make("cue", [("v", "v1")]),
                        None, factory.make_query("cue", [("v", "v2")])):
            before = mm._table(wm, now)
            wm.write("central", "goal", content)
            assert wm._sources is None
            table = mm._table(wm, now)
            assert table is not before and table.point[2] == fresh_sources(wm)
            expected = {entry.id: mm.activation(entry, wm, now)
                        for entry in mm.entries.values()}
            for _ in range(2):
                assert mm.activations(wm, now) == expected
                [(entry, act, _)] = mm.retrieve(wm, now, None, ("t",))
                assert act == max(expected.values()) == expected[entry.id]

    def test_a_staged_view_never_gets_the_base_table(self, wm, factory):
        """A staged view builds its own spreading sources, so a read under
        it never gets the table of the working memory it was staged from,
        nor the other way round, even at one time and version.
        ``test_multi_step_golden`` (``tests/test_runtime.py``) covers the
        same end to end: the stepper's and decl's second steps read views
        staged from it."""
        mm, now = self._linked_memory(factory), 1.0
        wm.write("central", "goal", factory.make("cue", [("v", "v0")]))
        staged = factory.make("cue", [("v", "v1")])
        base = mm._table(wm, now)
        view = wm.staged("vision", staged, True)
        assert view._sources is None and wm._sources is base.point[2]
        assert wm.buffer("vision").content is None
        assert view.buffer("vision").content is staged and view.buffer("vision").urgent
        assert mm._table(view, now).point[2] == fresh_sources(view) != base.point[2]
        for _ in range(2):
            for reader in (view, wm):
                assert mm._table(reader, now).point[2] == fresh_sources(reader)
                assert mm.activations(reader, now) == {
                    entry.id: mm.activation(entry, reader, now) for entry in mm.entries.values()}
        assert wm._sources is base.point[2]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_spreading_sources_follow_writes_and_views(self, data):
        """After drawn writes (chunk, query, clear, urgent) and staged
        views, :func:`spread_sources` of the working memory and of each
        view equals the sources built afresh from its buffers, and reading
        a view leaves its base's kept value as it was."""
        factory = ChunkFactory()
        wm = WorkingMemory()
        for name in ("goal", "emotion", "vision"):
            wm.add_buffer(name, "central")
        symbols = st.sampled_from(["a", "b", "c", "?"])
        contents = st.one_of(
            st.none(),
            st.builds(lambda t, v: factory.make(t, [("v", v)]),
                      st.sampled_from(["x", "y"]), st.sampled_from(["a", "b", "c"])),
            st.builds(lambda t, v: factory.make_query(t, [("v", v)]),
                      st.sampled_from(["x", "?"]), symbols))
        for _ in range(data.draw(st.integers(1, 12), label="steps")):
            buffer = data.draw(st.sampled_from(sorted(wm.buffers)), label="buffer")
            content = data.draw(contents, label="content")
            urgent = content is not None and data.draw(st.booleans(), label="urgent")
            if data.draw(st.booleans(), label="read first"):
                memory.spread_sources(wm)
            if data.draw(st.booleans(), label="staged"):
                kept = wm._sources
                view = wm.staged(buffer, content, urgent)
                assert memory.spread_sources(view) == fresh_sources(view)
                assert wm._sources is kept
            else:
                wm.write("central", buffer, content, urgent)
            assert memory.spread_sources(wm) == fresh_sources(wm)

    def test_noise_is_one_draw_per_entry_per_table(self, monkeypatch, wm, factory):
        draws, sample_noise = [], MiddleMemory._noise_sample
        monkeypatch.setattr(MiddleMemory, "_noise_sample", lambda self, key, entry_id:
                            draws.append(entry_id) or sample_noise(self, key, entry_id))
        mm = MiddleMemory(noise=0.4, noise_seed=3, forget_threshold=-1.0)
        hub, _ = mm.deposit(0.0, "t", chunk=factory.make("fact", [("about", "hub")]))
        stale = mm.seed_entry("t", chunk=factory.make("fact", [("about", "x")]),
                              presentations=[-1e4])
        mm.link(hub, stale)
        wm.write("central", "goal", factory.make("goal", [("topic", "x")]))
        now = 1.0
        assert mm._table(wm, now) is mm._table(wm, now)  # one table per evaluation point
        table = mm.activations(wm, now)
        sample = table[hub] - (mm.base_level(mm.entry(hub), now)
                               + mm.spreading(mm.entry(hub), wm))
        assert sample != 0.0
        draws.clear()
        assert [e.id for e, _ in mm.sweep(wm, now)] == [stale]
        assert draws == []  # the rebuild at the same point reuses the draws
        # in the rebuilt table the neighbour lost its spreading and kept its draw
        rebuilt = mm.activations(wm, now)[hub]
        assert rebuilt == mm.activation(mm.entry(hub), wm, now)
        assert rebuilt - mm.base_level(mm.entry(hub), now) == pytest.approx(sample)
        # new working memory, new table, new draw
        wm.write("central", "goal", factory.make("goal", [("topic", "hub")]))
        fresh = mm.activations(wm, now)[hub]
        assert fresh == mm.activation(mm.entry(hub), wm, now)
        assert fresh - reference_activation(mm, mm.entry(hub), wm, now) != sample

    def test_deposit_order_is_checked_against_live_entries(self, factory):
        wm = WorkingMemory()
        wm.add_buffer("goal", "central")
        mm = MiddleMemory(spread_weight=10.0)
        mm.deposit(0.0, "t", chunk=factory.make("fact", [("about", "kept")]))
        mm.deposit(5.0, "t", chunk=factory.make("fact", [("about", "lost")]))
        with pytest.raises(TemporalOrderError):
            mm.deposit(3.0, "t", chunk=factory.make("fact", [("about", "early")]))
        wm.write("central", "goal", factory.make("goal", [("topic", "kept")]))
        removed = mm.sweep(wm, 1000.0)
        assert [e.chunk.get("about") for e, _ in removed] == ["lost"]
        mm.deposit(3.0, "t", chunk=factory.make("fact", [("about", "early")]))
        with pytest.raises(TemporalOrderError):
            mm.deposit(2.0, "t", chunk=factory.make("fact", [("about", "late")]))

    def test_context_packs_each_unchanged_buffer_once(self, monkeypatch, factory):
        calls = []

        def counting(fn):
            def wrapper(content, book):
                calls.append(content)
                return fn(content, book)
            return wrapper

        monkeypatch.setattr(memory, "pack", counting(pack))
        monkeypatch.setattr(memory, "pack_query", counting(pack_query))
        wm = WorkingMemory()
        wm.add_buffer("goal", "central")
        wm.add_buffer("ask", "central")
        book = Codebook(dimension=256, seed=5)
        goal = factory.make("goal", [("state", "x")])
        query = factory.make_query("fact", [("name", "?"), ("kind", "k")])
        wm.write("central", "goal", goal)
        wm.write("central", "ask", query)
        first, _ = _context(wm, MiddleMemory(), book, 1.0)
        second, _ = _context(wm, MiddleMemory(), book, 2.0)
        assert calls == [query, goal]
        assert first.tobytes() == second.tobytes()
        # equal content under a new chunk id is not packed again
        wm.write("central", "goal", factory.make("goal", [("state", "x")]))
        _context(wm, MiddleMemory(), book, 3.0)
        assert len(calls) == 2
        goal = factory.make("goal", [("state", "y")])
        wm.write("central", "goal", goal)
        third, _ = _context(wm, MiddleMemory(), book, 4.0)
        assert calls[2:] == [goal]
        expected = normalized(np.zeros(256) + pack_query(query, book) + pack(goal, book))
        assert third.tobytes() == expected.tobytes()


def count_base_levels(monkeypatch) -> dict[str, int]:
    """Count every base level evaluated, in the returned ``["evals"]``: a
    :meth:`MiddleMemory.base_level` call, a row that ``_Columns.base``
    evaluates from the presentation block (each value it gives that is not
    NaN), or a history that ``_Columns.long_base`` folds."""
    counts = {"evals": 0}
    base_level, block = MiddleMemory.base_level, memory._Columns.base
    long_base = memory._Columns.long_base

    def counting_base_level(self, entry, now):
        counts["evals"] += 1
        return base_level(self, entry, now)

    def counting_block(self, now, decay):
        column = block(self, now, decay)
        counts["evals"] += int(np.count_nonzero(~np.isnan(column)))
        return column

    def counting_long_base(self, now, decay):
        folded = long_base(self, now, decay)
        counts["evals"] += len(folded)
        return folded

    monkeypatch.setattr(MiddleMemory, "base_level", counting_base_level)
    monkeypatch.setattr(memory._Columns, "base", counting_block)
    monkeypatch.setattr(memory._Columns, "long_base", counting_long_base)
    return counts


def test_base_level_evaluated_at_most_once_per_entry_per_cycle(monkeypatch):
    """Over the retrieval demo, on both table kinds, the table after the
    drain computes each entry's base level once; forgetting rebuilds the
    table from the sweep's base-level column, and the table after the
    commit shares the time and version, so it reuses the column (Buddy,
    linked to Fido, is forgotten at cycle 100)."""
    sweep = MiddleMemory.sweep
    budget = unlinked = 0
    counts = count_base_levels(monkeypatch)

    def budgeted_sweep(self, wm, now):
        nonlocal budget, unlinked
        budget = len(self.entries)
        removed = sweep(self, wm, now)
        gone = {e.id for e, _ in removed}
        unlinked += len(set().union(*(e.links for e, _ in removed)) - gone)
        return removed

    monkeypatch.setattr(MiddleMemory, "sweep", budgeted_sweep)
    for column_min in (memory.COLUMN_MIN_ENTRIES, 0):
        monkeypatch.setattr(memory, "COLUMN_MIN_ENTRIES", column_min)
        unlinked = 0
        session = Session(load_model(demos.path("retrieval")), mode="mm", seed=7)
        for _ in range(200):
            counts["evals"] = 0
            session.step()
            assert 0 < counts["evals"] <= budget
        session.finish()
        assert unlinked > 0


def assert_carriers_scanned(cols: memory._Columns) -> None:
    """Each code's carriers, forgotten slots included, are its slot-order
    scan of ``codes`` and ``owners``, and ``most`` is the longest of them
    (at least 1)."""
    scanned = [[] for _ in cols.names]
    for code, slot in zip(cols.codes, cols.owners):
        scanned[code].append(slot)
    assert cols.carriers == scanned
    assert cols.most == max([1, *map(len, scanned)])


def assert_in_step(got: memory._Columns, mm: MiddleMemory) -> None:
    """``got``, columns kept in step with ``mm``, posts each live slot under
    its entry's reach set, checked against the chunks' own symbols too, and
    holds for each live entry the postings, own set, symbol codes and
    presentation row that columns built in one pass from the live entries
    hold, with slots mapped to ids.  A reach posting is compared as a set:
    a repost appends in set-difference order, and nothing reads that
    order.  An empty slot's row is NaN.  The carriers are as
    :func:`assert_carriers_scanned` finds them, and ``repeat`` bounds what
    the live entries' chunks hold."""
    want = memory._Columns(mm.entries.values())
    live = [(slot, entry) for slot, entry in enumerate(got.entries) if entry is not None]
    assert [entry for _, entry in live] == want.entries
    assert got.slot_of == {entry.id: slot for slot, entry in live}

    def by_id(cols, postings, order):
        return {key: ids for key, slots in postings.items()
                if (ids := order(cols.entries[slot].id for slot in slots
                                 if cols.entries[slot] is not None))}

    assert by_id(got, got.postings, list) == by_id(want, want.postings, list)
    assert by_id(got, got.reach, set) == by_id(want, want.reach, set)
    assert all(len(set(slots)) == len(slots) for slots in got.reach.values())
    assert [got.names[code] for code, slot in zip(got.codes, got.owners)
            if got.entries[slot] is not None] == [want.names[code] for code in want.codes]
    assert_carriers_scanned(got)
    assert got.repeat >= want.repeat >= max(
        (entry.chunk.values().count(value) for entry in mm.entries.values()
         if entry.chunk is not None for value in entry.chunk.values()), default=1)
    rows = np.array(got.times).reshape(-1, got.cap)  # a copy: the block must stay growable
    want_rows = np.array(want.times).reshape(-1, want.cap)
    assert len(rows) == len(got.entries) and got.width >= want.width
    for slot, entry in enumerate(got.entries):
        if entry is None:
            assert np.isnan(rows[slot]).all()
            continue
        theirs = want.slot_of[entry.id]
        reach = set() if entry.chunk is None else set(entry.chunk.symbols())
        for nid in entry.links:
            neighbour = mm.entries[nid].chunk
            reach |= set() if neighbour is None else neighbour.symbols()
        assert got.posted[slot] == got.reach_set(entry) == want.posted[theirs] == reach
        assert got.own[slot] == want.own[theirs]
        assert np.array_equal(rows[slot], want_rows[theirs], equal_nan=True)
        assert (slot in got.long) == (theirs in want.long)


class TestOnePassFiling:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    @on_both_table_kinds
    def test_columns_kept_in_step_equal_one_pass_filing(self, data):
        """The columns that a first read builds in one pass, then kept in
        step through new entries, merged deposits, links and forgetting
        (and built again once empty slots outnumber live ones), hold after
        every change what one pass over the live entries gives: linked
        facts and vector-only entries, some histories past
        :data:`HISTORY_CAP` or leaving the block by a merge."""
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        size = data.draw(st.integers(0, 120), label="size")
        factory = ChunkFactory()
        mm = MiddleMemory(forget_threshold=-3.0, retrieval_threshold=5.0)

        def history(end):
            count = rng.choice([1, 2, 5, memory.HISTORY_CAP, memory.HISTORY_CAP + 1, 24])
            return sorted(rng.uniform(end - 50.0, end) for _ in range(count))

        def entry(i, end):
            tag = rng.choice(["x", "y"])
            if rng.random() < 0.15:
                return mm.seed_entry(tag, vector=np.full(4, float(i)),
                                     presentations=history(end))
            slots = [("name", f"f{i}"), ("kind", f"k{rng.randrange(6)}")]
            if rng.random() < 0.5:
                slots.append(("next", f"f{rng.randrange(max(size, 1))}"))
            return mm.seed_entry(tag, chunk=factory.make("fact", slots),
                                 presentations=history(end))

        def link(count):
            ids = sorted(mm.entries)
            for _ in range(count if ids else 0):
                mm.link(rng.choice(ids), rng.choice(ids))

        for i in range(size):
            entry(i, -1.0)
        link(rng.randrange(2 * size + 1))
        assert mm._filed is None
        wm = WorkingMemory()
        wm.add_buffer("goal", "central")
        mm.activations(wm, 0.0)  # the first read files every entry
        assert_in_step(mm._cols, mm)
        now, i = 0.0, size
        for _ in range(rng.randrange(1, 5)):
            for _ in range(rng.randrange(4)):  # filed by add
                entry(i, now)
                i += 1
            for merged in rng.sample(sorted(mm.entries), min(len(mm), rng.randrange(4))):
                mm.deposit(now, mm.entry(merged).tag, mm.entry(merged).chunk,
                           mm.entry(merged).vector)
            link(rng.randrange(4))
            assert_in_step(mm._cols, mm)
            mm.forget_threshold = rng.uniform(-3.0, 1.5)
            now += 1.0
            mm.sweep(wm, now)
            assert_in_step(mm._cols, mm)
            now += 1.0
            mm.activations(wm, now)  # a new base: rebuilds once empty slots outnumber live
            assert_in_step(mm._cols, mm)


def test_column_upkeep_stays_bounded_below_the_cut_over(factory):
    """Every memory keeps its columns, so one that never reaches
    ``COLUMN_MIN_ENTRIES`` must still drop its forgotten slots, symbol
    codes, postings and presentation rows; each round deposits,
    links and forgets."""
    mm = MiddleMemory()
    wm = WorkingMemory()
    wm.add_buffer("goal", "central")
    wm.write("central", "goal", factory.make("goal", [("topic", "v0")]))
    previous, forgotten = None, 0
    for n in range(1000):
        now = 50.0 * n
        entry_id, _ = mm.deposit(now, "t", chunk=factory.make("fact", [("v", f"v{n}")]))
        if previous in mm.entries:
            mm.link(previous, entry_id)
        previous = entry_id
        forgotten += len(mm.sweep(wm, now + 25.0))
        assert len(mm) < memory.COLUMN_MIN_ENTRIES
        # dead slots go at the next new base, so a sweep that forgets
        # several entries may leave a few more dead slots than live ones
        cols, bound = mm._cols, 2 * len(mm) + 4
        assert len(cols.entries) <= bound
        assert len(cols.codes) <= bound
        assert sum(map(len, cols.postings.values())) <= 3 * bound  # tag, type, value
        assert len(cols.times) <= memory.HISTORY_CAP * bound  # a row of cells per slot
    assert forgotten > 900
