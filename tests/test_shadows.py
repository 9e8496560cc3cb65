"""Shadow system stepping and query answering."""

import pytest

from mmarch.chunks import ChunkFactory, complete_query
from mmarch.memory import MiddleMemory, WorkingMemory
from mmarch.model import ActionDef
from mmarch.productions import Condition, Production, Template
from mmarch.shadows import ShadowSystem, decide_shadow


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
        actions=(ActionDef("write-buffer", target="vision",
                           chunk=Template("percept", (("value", "?value"),))),))


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
            actions=(ActionDef("write-buffer", target="vision",
                               chunk=Template("alert", ())),))
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
        chunk = complete_query(decision.query, decision.answer_bindings, factory)
        assert dict(chunk.slots) == {"name": "Fido", "breed": "labrador"}

    def test_no_match_yields_a_miss_naming_the_query(self, wm, factory):
        """The runtime turns a miss into the failure chunk that names it."""
        mm = self._fact_store(factory)
        query = factory.make_query("dog", [("name", "?"), ("breed", "poodle")])
        wm.write("central", "declarative", query)
        system = _system("declarative", "declarative", ["semantic"])
        decision = decide_shadow(system, wm, mm, 2.0)
        assert decision.kind == "miss"
        assert decision.query is query and decision.answered_entry is None

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
        answer = complete_query(decision.query, decision.answer_bindings, factory)
        assert answer.get("name") == "Fido"

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
            actions=(ActionDef("write-buffer", target="declarative",
                               chunk=Template("noise", ())),))
        query = factory.make_query("dog", [("name", "?"), ("breed", "labrador")])
        wm.write("central", "declarative", query)
        system = _system("declarative", "declarative", ["semantic"], [always])
        assert decide_shadow(system, wm, mm, 2.0).kind == "answer"
