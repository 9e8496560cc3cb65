"""Matching, conflict resolution, firing, utility learning, formation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from mmarch import demos, productions
from mmarch.chunks import Chunk, ChunkFactory, match_query
from mmarch.errors import BindingError
from mmarch.memory import MiddleMemory, WorkingMemory
from mmarch.model import load_model
from mmarch.productions import (
    Action,
    Condition,
    MatchView,
    Production,
    Template,
    UtilityLearner,
    _first_match,
    fire,
    form_retrieval_production,
    instantiate,
    match_all,
    match_production,
    prune_provisional,
    resolve,
)
from mmarch.runtime import Session


@pytest.fixture
def factory():
    return ChunkFactory()


@pytest.fixture
def wm():
    wm = WorkingMemory()
    wm.add_buffer("goal", "central")
    wm.add_buffer("emotion", "emotion")
    return wm


def _prod(factory, name, conditions, actions=(), utility=0.0, owner="central",
          permanent=True, created_at=None):
    return Production(name=name, owner=owner, conditions=tuple(conditions),
                      actions=tuple(actions), utility=utility,
                      permanent=permanent, created_at=created_at)


def _finder(*productions):
    """A ``find(owner, name)`` over ``productions``, as the runtime passes."""
    return lambda owner, name: next(
        (p for p in productions if (p.owner, p.name) == (owner, name)), None)


def _content_bindings(pattern, content):
    """Reference test of one content item; a pending query satisfies only bare presence."""
    if pattern is None:
        return {}
    return match_query(pattern, content) if isinstance(content, Chunk) else None


def _full_scan_condition(cond, view):
    """Reference ``(bindings, chunk id) | None``: the buffer's content, else the
    last match of a scan over every retained prediction oldest-first."""
    buf = view.wm.buffer(cond.buffer)
    found = latest = None
    if buf.content is not None:
        view.candidates += 1
        bindings = _content_bindings(cond.pattern, buf.content)
        if bindings is not None:
            found = bindings, (buf.content.id if isinstance(buf.content, Chunk) else None)
    for item in (view.inflows or {}).get(cond.buffer, ()):
        view.candidates += 1
        bindings = _content_bindings(cond.pattern, item)
        if bindings is not None:
            latest = bindings, item.id
    return found if found is not None else latest


def _reference_match(production, view):
    """Reference ``(bindings, sources) | None`` with negation and unification spelled out."""
    merged, sources = {}, []
    for cond in production.conditions:
        found = _full_scan_condition(cond, view)
        if cond.negated:
            if found is not None:
                return None
            continue
        if found is None:
            return None
        bindings, chunk_id = found
        for key, value in bindings.items():
            if merged.setdefault(key, value) != value:
                return None
        if chunk_id is not None:
            sources.append((cond.buffer, chunk_id))
    return merged, sources


def _draw_chunk(data, factory):
    slots = [("state", data.draw(st.sampled_from(["a", "b", "c"])))]
    if data.draw(st.booleans()):
        slots.append(("level", data.draw(st.sampled_from(["a", "b", "c"]))))
    return factory.make(data.draw(st.sampled_from(["mood", "goal"])), slots)


def _draw_pattern(data, factory):
    """None, an exact pattern, or one whose wildcards bind ``state`` or ``isa``
    and ``level``, so patterns that share a key can fail to unify."""
    ctypes = st.sampled_from(["mood", "goal"])
    kind = data.draw(st.sampled_from(["none", "exact", "wild-slot", "wild-type"]))
    if kind == "exact":
        return factory.make_query(data.draw(ctypes),
                                  [("state", data.draw(st.sampled_from(["a", "b", "c"])))])
    if kind == "wild-slot":
        return factory.make_query(data.draw(ctypes), [("state", "?")])
    if kind == "wild-type":
        return factory.make_query("?", [("level", "?")])
    return None


def _draw_buffers(data, factory, names):
    """A working memory whose buffers hold nothing, a pending query or a chunk,
    and the inflows a view of it sees: none, empty, or up to 8 chunks a buffer."""
    wm = WorkingMemory()
    inflow = {}
    for name in names:
        wm.add_buffer(name, name)
        content = data.draw(st.sampled_from(["none", "query", "chunk"]))
        if content == "query":
            wm.write(name, name, factory.make_query("mood", [("state", "?")]))
        elif content == "chunk":  # matching or not, as drawn
            wm.write(name, name, _draw_chunk(data, factory))
        inflow[name] = [_draw_chunk(data, factory)
                        for _ in range(data.draw(st.integers(0, 8)))]
    return wm, data.draw(st.sampled_from([None, {}, inflow]))


class TestMatching:
    def test_buffer_condition_binds_wildcard(self, wm, factory):
        wm.write("emotion", "emotion", factory.make("threat", [("level", "high")]))
        p = _prod(factory, "p", [Condition(
            pattern=factory.make_query("threat", [("level", "?")]),
            buffer="emotion")])
        match = match_production(p, MatchView(wm, None, 1.0))
        assert match is not None
        assert match.bindings == {"level": "high"}
        assert match.sources == [("emotion", wm.buffer("emotion").content.id)]

    def test_empty_buffer_blocks_positive_condition(self, wm, factory):
        p = _prod(factory, "p", [Condition(pattern=None, buffer="emotion")])
        assert match_production(p, MatchView(wm, None, 1.0)) is None

    def test_negated_condition_on_empty_buffer_holds(self, wm, factory):
        p = _prod(factory, "p", [Condition(
            pattern=factory.make_query("threat"), buffer="emotion", negated=True)])
        match = match_production(p, MatchView(wm, None, 1.0))
        assert match is not None
        assert match.bindings == {}

    def test_negated_condition_binds_nothing(self, wm, factory):
        wm.write("central", "goal", factory.make("goal", [("state", "idle")]))
        p = _prod(factory, "p", [Condition(
            pattern=factory.make_query("threat", [("level", "?")]),
            buffer="emotion", negated=True)])
        match = match_production(p, MatchView(wm, None, 1.0))
        assert match.bindings == {}

    def test_pending_query_content_never_matches_patterns(self, wm, factory):
        wm.write("central", "goal", factory.make_query("goal", [("state", "?")]))
        shaped = _prod(factory, "shaped", [Condition(
            pattern=factory.make_query("goal", [("state", "?")]), buffer="goal")])
        assert match_production(shaped, MatchView(wm, None, 1.0)) is None
        bare = _prod(factory, "bare", [Condition(pattern=None, buffer="goal")])
        assert match_production(bare, MatchView(wm, None, 1.0)) is not None

    def test_shared_binding_keys_must_unify(self, wm, factory):
        wm.write("central", "goal", factory.make("goal", [("state", "walk")]))
        wm.write("emotion", "emotion", factory.make("mood", [("state", "calm")]))
        p = _prod(factory, "join", [
            Condition(pattern=factory.make_query("goal", [("state", "?")]),
                      buffer="goal"),
            Condition(pattern=factory.make_query("mood", [("state", "?")]),
                      buffer="emotion"),
        ])
        assert match_production(p, MatchView(wm, None, 1.0)) is None
        wm.write("emotion", "emotion", factory.make("mood", [("state", "walk")]))
        match = match_production(p, MatchView(wm, None, 1.0))
        assert match.bindings == {"state": "walk"}

    def test_mm_condition_binds_from_top_entry_only(self, wm, factory):
        mm = MiddleMemory()
        mm.deposit(1.0, "vision", chunk=factory.make("percept", [("value", "dim")]))
        mm.deposit(2.0, "vision", chunk=factory.make("percept", [("value", "bright")]))
        mm.deposit(2.5, "motor", chunk=factory.make("percept", [("value", "loud")]))
        p = _prod(factory, "p", [Condition(
            pattern=factory.make_query("percept", [("value", "?")]),
            mm_tags=("vision",))], owner="vision")
        match = match_production(p, MatchView(wm, mm, 3.0))
        # the fresher vision entry ranks first; the motor entry is outside the tags
        assert match.bindings == {"value": "bright"}

    def test_negated_mm_condition_holds_only_without_a_hit(self, wm, factory):
        mm = MiddleMemory()
        mm.deposit(1.0, "motor", chunk=factory.make("percept", [("value", "loud")]))
        p = _prod(factory, "p", [Condition(
            pattern=factory.make_query("percept", [("value", "?")]),
            mm_tags=("vision",), negated=True)], owner="vision")
        match = match_production(p, MatchView(wm, mm, 2.0))
        assert match is not None and match.bindings == {}  # the hit is outside the tags
        mm.deposit(1.5, "vision", chunk=factory.make("percept", [("value", "dim")]))
        assert match_production(p, MatchView(wm, mm, 2.0)) is None

    def test_candidate_counting_in_buffer_mode(self, wm, factory):
        wm.write("central", "goal", factory.make("goal", [("state", "walk")]))
        wm.write("emotion", "emotion", factory.make("mood", [("state", "calm")]))
        productions = [
            _prod(factory, "a", [Condition(pattern=factory.make_query("goal", [("state", "?")]), buffer="goal")]),
            _prod(factory, "b", [Condition(pattern=factory.make_query("nope"), buffer="goal"),
                                 Condition(pattern=None, buffer="emotion")]),
        ]
        view = MatchView(wm, None, 1.0)
        match_all(productions, view)
        # a: 1 test; b: first condition tests once and fails, short-circuits
        assert view.candidates == 2

    def test_inflow_lists_are_fully_scanned(self, wm, factory):
        wm.write("emotion", "emotion", factory.make("mood", [("state", "calm")]))
        inflow = [factory.make("mood", [("state", f"s{i}")]) for i in range(5)]
        view = MatchView(wm, None, 1.0, inflows={"emotion": inflow})
        p = _prod(factory, "p", [Condition(
            pattern=factory.make_query("mood", [("state", "?")]), buffer="emotion")])
        match = match_production(p, view)
        assert view.candidates == 6  # buffer + all five retained predictions
        assert match.bindings == {"state": "calm"}  # buffer content preferred

    def test_latest_inflow_item_matches_when_buffer_does_not(self, wm, factory):
        wm.write("emotion", "emotion", factory.make("other"))
        inflow = [factory.make("mood", [("state", "old")]),
                  factory.make("mood", [("state", "new")])]
        view = MatchView(wm, None, 1.0, inflows={"emotion": inflow})
        p = _prod(factory, "p", [Condition(
            pattern=factory.make_query("mood", [("state", "?")]), buffer="emotion")])
        match = match_production(p, view)
        assert match.bindings == {"state": "new"}
        assert match.sources == [("emotion", inflow[1].id)]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_newest_first_inflow_read_equals_full_scan(self, data):
        factory = ChunkFactory()
        cond = Condition(pattern=_draw_pattern(data, factory), buffer="emotion")
        wm, inflows = _draw_buffers(data, factory, ["emotion"])
        got_view = MatchView(wm, None, 1.0, inflows=inflows)
        want_view = MatchView(wm, None, 1.0, inflows=inflows)
        assert _first_match(cond, got_view) == _full_scan_condition(cond, want_view)
        assert got_view.candidates == want_view.candidates

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_match_production_equals_spelled_out_reference(self, data):
        factory = ChunkFactory()
        buffers = ["emotion", "goal"]
        wm, inflows = _draw_buffers(data, factory, buffers)
        conditions = [Condition(pattern=_draw_pattern(data, factory),
                                buffer=data.draw(st.sampled_from(buffers)),
                                negated=data.draw(st.booleans()))
                      for _ in range(data.draw(st.integers(1, 3)))]
        p = _prod(factory, "p", conditions)
        got_view = MatchView(wm, None, 1.0, inflows=inflows)
        want_view = MatchView(wm, None, 1.0, inflows=inflows)
        match = match_production(p, got_view)
        got = None if match is None else (match.bindings, match.sources)
        assert got == _reference_match(p, want_view)
        # matching stops at the first failing condition, so this follows condition order
        assert got_view.candidates == want_view.candidates

    def test_central_match_work_does_not_grow_with_inflow(self, wm, factory, monkeypatch):
        calls = [0]

        def counting(q, c):
            calls[0] += 1
            return match_query(q, c)

        monkeypatch.setattr(productions, "match_query", counting)
        inflow = [factory.make("other") for _ in range(999)]
        inflow.append(factory.make("mood", [("state", "new")]))
        p = _prod(factory, "p", [Condition(
            pattern=factory.make_query("mood", [("state", "?")]), buffer="emotion")])
        wm.write("emotion", "emotion", factory.make("other"))
        view = MatchView(wm, None, 1.0, inflows={"emotion": inflow})
        assert match_production(p, view).bindings == {"state": "new"}
        assert calls[0] <= 2
        assert view.candidates == 1001
        calls[0] = 0
        wm.write("emotion", "emotion", factory.make("mood", [("state", "calm")]))
        assert match_production(p, view).bindings == {"state": "calm"}
        assert calls[0] == 1

        session = Session(load_model(demos.path("bottleneck")), mode="pipeline", seed=7)
        per_cycle = []
        for _ in range(400):
            before = calls[0]
            session.step()
            per_cycle.append(calls[0] - before)
        assert sum(per_cycle[300:]) <= sum(per_cycle[50:150])
        counts = [e.data["candidates"] for e in session.trace.events
                  if e.kind in ("central-fire", "idle")]
        assert counts[-1] > counts[200] > counts[100]


class TestResolve:
    def test_highest_utility_wins(self, factory):
        a = _prod(factory, "approach", [], utility=5.0)
        b = _prod(factory, "wait", [], utility=3.0)
        from mmarch.productions import Match
        winner = resolve([Match(a, {}, []), Match(b, {}, [])])
        assert winner.production is a

    def test_exact_tie_breaks_lexicographically(self, factory):
        from mmarch.productions import Match
        a = _prod(factory, "a", [], utility=2.0)
        b = _prod(factory, "b", [], utility=2.0)
        winner = resolve([Match(b, {}, []), Match(a, {}, [])])
        assert winner.production is a

    def test_singleton_and_empty(self, factory):
        from mmarch.productions import Match
        only = _prod(factory, "only", [])
        assert resolve([Match(only, {}, [])]).production is only
        assert resolve([]) is None


class TestFire:
    def test_effects_in_listed_order_with_bindings(self, factory):
        p = _prod(factory, "p", [], actions=[
            Action("write-buffer", target="goal",
                   template=Template("goal", (("state", "flee"), ("danger", "?level")))),
            Action("emit-reward", amount=10.0),
            Action("halt"),
        ])
        effects = fire(p, {"level": "high"}, factory)
        assert [a.kind for a, _ in effects] == ["write-buffer", "emit-reward", "halt"]
        assert dict(effects[0][1].slots) == {"state": "flee", "danger": "high"}
        assert effects[1][0].amount == 10.0

    def test_unresolved_reference_reports_production(self, factory):
        p = _prod(factory, "broken", [], actions=[
            Action("write-buffer", target="goal",
                   template=Template("goal", (("state", "?missing"),)))])
        with pytest.raises(BindingError, match="broken"):
            fire(p, {}, factory)

    def test_bare_wildcard_in_a_chunk_template_rejected(self, factory):
        template = Template("goal", (("state", "?"),))
        with pytest.raises(BindingError, match="'broken': bare wildcard in a chunk template"):
            instantiate(template, {}, factory, "broken", query=False)
        assert instantiate(template, {}, factory, "broken", query=True).slots == (("state", "?"),)

    def test_post_query_keeps_wildcards(self, factory):
        p = _prod(factory, "ask", [], actions=[
            Action("post-query", target="declarative",
                   template=Template("dog", (("name", "?"), ("breed", "labrador"))))])
        effects = fire(p, {}, factory)
        query = effects[0][1]
        assert query.slots == (("name", "?"), ("breed", "labrador"))


class TestUtilityLearning:
    def test_single_update(self, factory):
        learner = UtilityLearner(alpha=0.2)
        p = _prod(factory, "p", [])
        learner.record_fire(p, 0.0)
        updates = learner.apply_reward(10.0, 1.0, _finder())
        assert p.utility == pytest.approx(2.0)
        assert updates[0]["effective_reward"] == 10.0
        assert learner.pending == []

    def test_second_identical_reward(self, factory):
        learner = UtilityLearner(alpha=0.2)
        p = _prod(factory, "p", [])
        learner.record_fire(p, 0.0)
        learner.apply_reward(10.0, 1.0, _finder())
        learner.record_fire(p, 2.0)
        learner.apply_reward(10.0, 3.0, _finder())
        assert p.utility == pytest.approx(3.6)

    def test_time_cost_discounts_reward(self, factory):
        learner = UtilityLearner(alpha=0.2, rho=1.0)
        p = _prod(factory, "p", [])
        learner.record_fire(p, 0.0)
        updates = learner.apply_reward(10.0, 3.0, _finder())
        assert updates[0]["effective_reward"] == pytest.approx(7.0)
        assert p.utility == pytest.approx(1.4)

    def test_closed_form_convergence(self, factory):
        """U after n constant rewards equals R(1 - (1-alpha)^n) exactly."""
        rng = random.Random(17)
        for _ in range(20):
            alpha = rng.uniform(0.05, 1.0)
            reward = rng.uniform(-20.0, 20.0)
            learner = UtilityLearner(alpha=alpha)
            p = _prod(factory, "p", [])
            for n in range(1, 31):
                learner.record_fire(p, 0.0)
                learner.apply_reward(reward, 0.0, _finder())
                expected = reward * (1.0 - (1.0 - alpha) ** n)
                assert p.utility == pytest.approx(expected, abs=1e-9)

    def test_positive_reward_makes_provisional_permanent(self, factory):
        learner = UtilityLearner(alpha=0.2)
        p = _prod(factory, "p", [], permanent=False, created_at=0.0)
        learner.record_fire(p, 0.0)
        updates = learner.apply_reward(10.0, 1.0, _finder())
        assert p.permanent
        assert updates[0]["made_permanent"] is True

    def test_negative_reward_leaves_provisional(self, factory):
        learner = UtilityLearner(alpha=0.2)
        p = _prod(factory, "p", [], permanent=False, created_at=0.0)
        learner.record_fire(p, 0.0)
        learner.apply_reward(-5.0, 1.0, _finder())
        assert not p.permanent

    def test_invalid_alpha_rejected(self):
        for alpha in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                UtilityLearner(alpha=alpha)

    def test_credit_uses_deposit_time(self, factory):
        """A consumed write is discounted from the time it was written."""
        learner = UtilityLearner(alpha=0.2, rho=1.0)
        p = _prod(factory, "p", [], owner="emotion")
        learner.consumed.append((7, "emotion", "p", 2.0))
        (update,) = learner.apply_reward(10.0, 5.0, _finder(p))
        assert update["effective_reward"] == pytest.approx(7.0)
        assert p.utility == pytest.approx(1.4)

    def test_consumed_writes_are_credited_independently(self, factory):
        """Each consumed write credits its own production; a production
        with no consumed write is untouched; the reward clears both lists."""
        learner = UtilityLearner(alpha=0.2)
        helped = _prod(factory, "helped", [], owner="emotion")
        also = _prod(factory, "also", [], owner="vision")
        bystander = _prod(factory, "ignored", [], owner="vision")
        central = _prod(factory, "c", [])
        learner.record_fire(central, 0.0)
        learner.consumed += [(3, "emotion", "helped", 0.05), (4, "vision", "also", 0.05)]
        updates = learner.apply_reward(10.0, 0.05, _finder(helped, also, bystander))
        assert [u["production"] for u in updates] == ["c", "helped", "also"]
        assert helped.utility == also.utility == central.utility == pytest.approx(2.0)
        assert bystander.utility == 0.0
        assert learner.pending == [] and learner.consumed == []
        assert learner.apply_reward(10.0, 0.1, _finder(helped)) == []

    def test_consumed_writes_are_credited_in_write_order(self, factory):
        """Writes consumed in reverse are credited oldest write first."""
        learner = UtilityLearner(alpha=0.2)
        pool = [_prod(factory, f"p{i}", [], owner=f"s{i}") for i in range(3)]
        for chunk_id in (12, 11, 10):
            learner.consumed.append((chunk_id, f"s{chunk_id - 10}", f"p{chunk_id - 10}", 0.0))
        updates = learner.apply_reward(1.0, 1.0, _finder(*pool))
        assert [u["production"] for u in updates] == ["p0", "p1", "p2"]

    def test_a_production_find_no_longer_finds_earns_nothing(self, factory):
        learner = UtilityLearner(alpha=0.2)
        kept = _prod(factory, "kept", [], owner="vision")
        learner.consumed += [(1, "vision", "pruned", 0.0), (2, "vision", "kept", 0.0)]
        updates = learner.apply_reward(10.0, 1.0, _finder(kept))
        assert [u["production"] for u in updates] == ["kept"]
        assert learner.consumed == []


class TestFormation:
    def _entry(self, factory, mm):
        entry_id, _ = mm.deposit(
            1.0, "semantic", chunk=factory.make("dog", [("name", "Fido")]))
        return mm.entry(entry_id)

    def test_hot_entry_spawns_provisional(self, factory):
        entry = self._entry(factory, MiddleMemory())
        p = form_retrieval_production(entry, "declarative", "declarative", [], now=3.0)
        assert p is not None
        assert p.name == f"retrieve-{entry.id}"
        assert not p.permanent and p.created_at == 3.0
        assert p.conditions[0].mm_tags == ("semantic",)
        assert p.conditions[0].pattern.slots == entry.chunk.slots
        assert p.actions[0].target == "declarative"

    def test_an_entry_at_the_threshold_is_not_hot(self, factory):
        """Formation takes its hot entries from ``MiddleMemory.above``, which
        returns only activations strictly above the threshold."""
        mm = MiddleMemory()
        entry = self._entry(factory, mm)
        # one presentation 1 s ago and no spreading: activation ln 1 = 0.0
        assert mm.above(WorkingMemory(), 2.0, 0.0) == []
        assert mm.above(WorkingMemory(), 2.0, -1e-9) == [(entry, 0.0)]

    def test_duplicate_pattern_suppressed(self, factory):
        entry = self._entry(factory, MiddleMemory())
        first = form_retrieval_production(entry, "s", "b", [], now=0.0)
        again = form_retrieval_production(entry, "s", "b", [first], now=1.0)
        assert again is None
        other_owner = form_retrieval_production(entry, "s2", "b2", [], now=1.0)
        assert other_owner is not None

    def test_vector_only_entry_never_forms(self, factory):
        import numpy as np
        mm = MiddleMemory()
        entry_id, _ = mm.deposit(1.0, "vision", vector=np.ones(8))
        assert form_retrieval_production(
            mm.entry(entry_id), "s", "b", [], now=0.0) is None


class TestPruning:
    def test_stale_unrewarded_provisional_removed(self, factory):
        p = _prod(factory, "p", [], permanent=False, created_at=0.0)
        kept, pruned = prune_provisional([p], now=61.0, ttl=60.0)
        assert pruned == [p] and kept == []

    def test_rewarded_provisional_is_already_permanent(self, factory):
        learner = UtilityLearner(alpha=0.2)
        p = _prod(factory, "p", [], permanent=False, created_at=0.0)
        learner.record_fire(p, 0.0)
        learner.apply_reward(10.0, 1.0, _finder())
        assert p.utility == pytest.approx(2.0) and p.permanent
        kept, pruned = prune_provisional([p], now=61.0, ttl=60.0)
        assert kept == [p] and pruned == []

    def test_permanent_never_pruned(self, factory):
        p = _prod(factory, "p", [], permanent=True)
        kept, pruned = prune_provisional([p], now=1e9, ttl=60.0)
        assert kept == [p]

    def test_young_provisional_retained(self, factory):
        p = _prod(factory, "p", [], permanent=False, created_at=10.0)
        kept, pruned = prune_provisional([p], now=60.0, ttl=60.0)
        assert kept == [p]


class TestBinaryMatchingInvariance:
    def test_match_output_invariant_under_monotone_activation_rescale(self, wm, factory):
        """Matching consumes only the retrievable set and its order, never
        the activation magnitudes, so any order-preserving rescale of the
        store's activations leaves the conflict set untouched."""
        mm = MiddleMemory()
        mm.deposit(1.0, "vision", chunk=factory.make("percept", [("value", "dim")]))
        mm.deposit(2.0, "vision", chunk=factory.make("percept", [("value", "bright")]))
        wm.write("central", "goal", factory.make("goal", [("state", "look")]))

        class RescaledMM:
            """Same ranked retrievals with activations mapped by 3a + 7."""

            def __init__(self, inner):
                self._inner = inner

            def retrieve(self, wm, now, pattern=None, tags=None, k=1):
                hits = self._inner.retrieve(wm, now, pattern=pattern,
                                            tags=tags, k=k)
                return [(e, 3.0 * act + 7.0, b) for e, act, b in hits]

        productions = [
            _prod(factory, "see", [Condition(
                pattern=factory.make_query("percept", [("value", "?")]),
                mm_tags=("vision",))], owner="vision"),
            _prod(factory, "blocked", [Condition(
                pattern=factory.make_query("sound"), mm_tags=("vision",))],
                owner="vision"),
        ]
        base = match_all(productions, MatchView(wm, mm, 3.0))
        rescaled = match_all(productions, MatchView(wm, RescaledMM(mm), 3.0))
        assert [(m.production.name, m.bindings) for m in base] == \
               [(m.production.name, m.bindings) for m in rescaled]
