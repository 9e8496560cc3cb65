"""Shadow system stepping, query answering, and contribution credit."""

import pytest

from mmarch.chunks import ChunkFactory
from mmarch.memory import MiddleMemory, WorkingMemory
from mmarch.productions import Action, Condition, Production, Template, UtilityLearner
from mmarch.shadows import (
    ContributionLedger,
    ShadowSystem,
    answer_chunk,
    decide_shadow,
    failure_chunk,
)


@pytest.fixture
def factory():
    return ChunkFactory()


@pytest.fixture
def wm():
    wm = WorkingMemory()
    wm.add_buffer("goal", "central")
    wm.add_buffer("vision", "vision")
    wm.add_buffer("declarative", "declarative")
    return wm


def _system(name, buffer, subs, productions=()):
    return ShadowSystem(name=name, buffer=buffer, subscriptions=tuple(subs),
                        productions=list(productions))


def _watch_production(factory, name="watch", tags=("vision", "emotion")):
    return Production(
        name=name, owner="vision",
        conditions=(Condition(
            pattern=factory.make_query("percept", [("value", "?")]),
            mm_tags=tags),),
        actions=(Action("write-buffer", target="vision",
                        template=Template("percept", (("value", "?value"),))),))


class TestShadowStep:
    def test_fires_on_subscribed_tag_of_other_origin(self, wm, factory):
        """A vision system subscribed to emotion output fires on it."""
        mm = MiddleMemory()
        mm.deposit(1.0, "emotion",
                   chunk=factory.make("percept", [("value", "scary-animal")]))
        system = _system("vision", "vision", ["vision", "emotion"],
                         [_watch_production(factory)])
        decision = decide_shadow(system, wm, mm, 2.0)
        assert decision.kind == "fire"
        assert decision.match.bindings == {"value": "scary-animal"}

    def test_idle_when_nothing_matches(self, wm, factory):
        system = _system("vision", "vision", ["vision"],
                         [_watch_production(factory, tags=("vision",))])
        assert decide_shadow(system, wm, MiddleMemory(), 2.0).kind == "idle"

    def test_reads_any_buffer(self, wm, factory):
        """Shadow conditions may reference foreign buffers without error."""
        wm.write("central", "goal", factory.make("goal", [("state", "hunt")]))
        p = Production(
            name="context", owner="vision",
            conditions=(Condition(pattern=factory.make_query("goal", [("state", "hunt")]),
                                  buffer="goal"),),
            actions=(Action("write-buffer", target="vision",
                            template=Template("alert", ())),))
        system = _system("vision", "vision", ["vision"], [p])
        assert decide_shadow(system, wm, MiddleMemory(), 1.0).kind == "fire"


class TestAnswerQuery:
    def _fact_store(self, factory):
        mm = MiddleMemory()
        mm.deposit(1.0, "semantic",
                   chunk=factory.make("dog", [("name", "Fido"), ("breed", "labrador")]))
        mm.deposit(1.5, "semantic",
                   chunk=factory.make("dog", [("name", "Rex"), ("breed", "shepherd")]))
        return mm

    def test_query_completed_from_store(self, wm, factory):
        mm = self._fact_store(factory)
        query = factory.make_query("dog", [("name", "?"), ("breed", "labrador")])
        wm.write("central", "declarative", query)
        system = _system("declarative", "declarative", ["semantic"])
        decision = decide_shadow(system, wm, mm, 2.0)
        assert decision.kind == "answer"
        chunk = answer_chunk(decision, factory)
        assert chunk.as_dict() == {"name": "Fido", "breed": "labrador"}

    def test_no_match_yields_failure_chunk(self, wm, factory):
        mm = self._fact_store(factory)
        query = factory.make_query("dog", [("name", "?"), ("breed", "poodle")])
        wm.write("central", "declarative", query)
        system = _system("declarative", "declarative", ["semantic"])
        decision = decide_shadow(system, wm, mm, 2.0)
        assert decision.kind == "miss"
        chunk = failure_chunk(decision, factory)
        assert chunk.ctype == "retrieval-failure"
        assert chunk.get("query-id") == str(query.id)

    def test_higher_activation_candidate_wins(self, wm, factory):
        mm = MiddleMemory()
        mm.deposit(1.0, "semantic",
                   chunk=factory.make("dog", [("name", "Buddy"), ("breed", "labrador")]))
        fresh, _ = mm.deposit(
            9.0, "semantic",
            chunk=factory.make("dog", [("name", "Fido"), ("breed", "labrador")]))
        query = factory.make_query("dog", [("name", "?"), ("breed", "labrador")])
        wm.write("central", "declarative", query)
        system = _system("declarative", "declarative", ["semantic"])
        decision = decide_shadow(system, wm, mm, 10.0)
        assert decision.answered_entry == fresh
        assert answer_chunk(decision, factory).get("name") == "Fido"

    def test_retrieval_restricted_to_subscriptions(self, wm, factory):
        mm = MiddleMemory()
        mm.deposit(1.0, "episodic",
                   chunk=factory.make("dog", [("name", "Fido"), ("breed", "labrador")]))
        query = factory.make_query("dog", [("name", "?"), ("breed", "labrador")])
        wm.write("central", "declarative", query)
        system = _system("declarative", "declarative", ["semantic"])
        assert decide_shadow(system, wm, mm, 2.0).kind == "miss"

    def test_query_answering_preempts_productions(self, wm, factory):
        mm = self._fact_store(factory)
        always = Production(
            name="always", owner="declarative",
            conditions=(Condition(pattern=None, buffer="goal", negated=True),),
            actions=(Action("write-buffer", target="declarative",
                            template=Template("noise", ())),))
        query = factory.make_query("dog", [("name", "?"), ("breed", "labrador")])
        wm.write("central", "declarative", query)
        system = _system("declarative", "declarative", ["semantic"], [always])
        assert decide_shadow(system, wm, mm, 2.0).kind == "answer"


class TestLedger:
    def test_consumption_marks_once_first_cycle(self, factory):
        ledger = ContributionLedger()
        chunk = factory.make("threat", [("level", "high")])
        ledger.note_write("raise-alarm", "emotion", chunk, time=0.15)
        first = ledger.mark_consumed(chunk.id, cycle=4)
        assert first is not None and first.consumed_cycle == 4
        assert ledger.mark_consumed(chunk.id, cycle=5) is None

    def test_unknown_chunk_never_consumed(self, factory):
        ledger = ContributionLedger()
        assert ledger.mark_consumed(1234, cycle=1) is None

    def test_take_consumed_clears_only_consumed(self, factory):
        ledger = ContributionLedger()
        used = factory.make("a")
        unused = factory.make("b")
        ledger.note_write("p1", "s1", used, 0.05)
        ledger.note_write("p2", "s2", unused, 0.05)
        ledger.mark_consumed(used.id, 2)
        taken = ledger.take_consumed()
        assert [r.production for r in taken] == ["p1"]
        assert [r.production for r in ledger.pending.values()] == ["p2"]
        assert ledger.take_consumed() == []

    def test_credit_flows_only_to_consumed_contributions(self, factory):
        ledger = ContributionLedger()
        learner = UtilityLearner(alpha=0.2)
        contributor = Production(name="helped", owner="emotion",
                                 conditions=(), actions=())
        bystander = Production(name="ignored", owner="vision",
                               conditions=(), actions=())
        c1, c2 = factory.make("a"), factory.make("b")
        ledger.note_write("helped", "emotion", c1, 0.05)
        ledger.note_write("ignored", "vision", c2, 0.05)
        ledger.mark_consumed(c1.id, 2)
        by_name = {"helped": contributor, "ignored": bystander}
        for record in ledger.take_consumed():
            learner.credit(by_name[record.production], 10.0, 0.2,
                           record.deposit_time)
        assert contributor.utility == pytest.approx(2.0)
        assert bystander.utility == 0.0

    def test_two_contributors_credited_independently(self, factory):
        ledger = ContributionLedger()
        learner = UtilityLearner(alpha=0.2)
        p1 = Production(name="p1", owner="s1", conditions=(), actions=())
        p2 = Production(name="p2", owner="s2", conditions=(), actions=())
        c1, c2 = factory.make("a"), factory.make("b")
        ledger.note_write("p1", "s1", c1, 0.05)
        ledger.note_write("p2", "s2", c2, 0.05)
        ledger.mark_consumed(c1.id, 2)
        ledger.mark_consumed(c2.id, 2)
        by_name = {"p1": p1, "p2": p2}
        for record in ledger.take_consumed():
            learner.credit(by_name[record.production], 10.0, 0.2,
                           record.deposit_time)
        assert p1.utility == pytest.approx(2.0)
        assert p2.utility == pytest.approx(2.0)

    def test_take_consumed_returns_only_consumed_records(self, factory):
        ledger = ContributionLedger()
        for i in range(3):
            chunk = factory.make("c", [("n", f"v{i}")])
            ledger.note_write("p", "emotion", chunk, 0.05 * i)
            if i < 2:
                ledger.mark_consumed(chunk.id, i + 1)
        taken = ledger.take_consumed()
        assert [(r.system, r.consumed_cycle) for r in taken] == [("emotion", 1), ("emotion", 2)]
        assert [r.consumed_cycle for r in ledger.pending.values()] == [None]
        assert ledger.take_consumed() == []

    def test_credit_follows_write_order_when_consumed_in_reverse(self, factory):
        ledger = ContributionLedger()
        chunks = [factory.make("c", [("n", f"v{i}")]) for i in range(3)]
        for i, chunk in enumerate(chunks):
            ledger.note_write(f"p{i}", f"s{i}", chunk, 0.05 * i)
        for cycle, chunk in enumerate(reversed(chunks), start=4):
            ledger.mark_consumed(chunk.id, cycle)
        taken = ledger.take_consumed()
        assert [(r.production, r.consumed_cycle) for r in taken] == [
            ("p0", 6), ("p1", 5), ("p2", 4)]

    def test_newer_write_replaces_the_unconsumed_record(self, factory):
        ledger = ContributionLedger()
        old, new = factory.make("a"), factory.make("b")
        ledger.note_write("first", "emotion", old, 0.05)
        ledger.note_write("second", "emotion", new, 0.10)
        assert [(s, r.production) for s, r in ledger.pending.items()] == [
            ("emotion", "second")]
        assert ledger.mark_consumed(old.id, 3) is None
        assert ledger.mark_consumed(new.id, 3).production == "second"
        assert ledger.pending == {}

    def test_chunk_consumed_at_most_once(self, factory):
        ledger = ContributionLedger()
        chunk = factory.make("a")
        ledger.note_write("p", "emotion", chunk, 0.05)
        assert ledger.mark_consumed(chunk.id, 2) is not None
        assert ledger.mark_consumed(chunk.id, 3) is None
        assert [r.consumed_cycle for r in ledger.take_consumed()] == [2]
        assert ledger.mark_consumed(chunk.id, 4) is None
        assert ledger.take_consumed() == []
