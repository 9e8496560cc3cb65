"""Shadow system stepping and query answering."""

import pytest
from hypothesis import given, settings, strategies as st

from mmarch import runtime
from mmarch.chunks import ChunkFactory, Query, complete_query
from mmarch.errors import ModelValidationError
from mmarch.memory import MiddleMemory, WorkingMemory
from mmarch.model import ActionDef, parse_model
from mmarch.productions import (
    Condition,
    MatchView,
    Production,
    Template,
    match_all,
    resolve,
)
from mmarch.runtime import run
from mmarch.shadows import ShadowSystem, decide_shadow

from pins import mm_scale_document
from test_acceptance import random_model_docs
from test_runtime import multi_step_model_docs


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


class TestFirstMatch:
    def test_productions_ranked_after_the_winner_are_never_matched(self, wm, factory):
        """A pool is matched in rank order up to its winner: a retrieval
        production that ties the winner's utility and sorts after it by
        name costs no middle-memory read."""
        mm = MiddleMemory()
        mm.deposit(1.0, "vision", chunk=factory.make("percept", [("value", "dog")]))
        pool = [_watch_production(factory, name=f"retrieve-{i}", tags=("vision",))
                for i in range(5)]
        pool.append(_watch_production(factory, name="notice", tags=("vision",)))
        reads = []
        retrieve = mm.retrieve
        mm.retrieve = lambda *args: reads.append(args) or retrieve(*args)
        decision = decide_shadow(_system("vision", "vision", ["vision"], pool), wm, mm, 2.0)
        assert decision.match.production.name == "notice"
        assert len(reads) == 1
        pool[3].utility = 1.0
        decision = decide_shadow(_system("vision", "vision", ["vision"], pool), wm, mm, 2.0)
        assert decision.match.production.name == "retrieve-3"
        assert len(reads) == 2


def _decides_as_resolve(doc, cycles, seed) -> int:
    """Run ``doc`` with every shadow decision checked against the one
    :func:`resolve` makes of the whole conflict set (a pending query is
    answered before any production is matched); return how many decisions
    had a winner that is neither the first match in declaration order nor
    the smallest matching name."""
    try:
        model = parse_model(doc)
    except ModelValidationError:
        return 0
    decide, ranked = runtime.decide_shadow, [0]

    def checked(system, wm, mm, now):
        content = wm.buffer(system.buffer).content
        if isinstance(content, Query) and content.has_wildcards():
            got = decide(system, wm, mm, now)
            assert got.kind in ("answer", "miss")
            return got
        conflict = match_all(system.productions, MatchView(wm, mm, now))
        got, want = decide(system, wm, mm, now), resolve(conflict)
        if want is None:
            assert got.kind == "idle"
            return got
        assert got.kind == "fire"
        assert (got.match.production.name, got.match.bindings) == (
            want.production.name, want.bindings)
        names = [match.production.name for match in conflict]
        ranked[0] += want.production.name not in (names[0], min(names))
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runtime, "decide_shadow", checked)
        run(model, cycles, mode="mm", seed=seed)
    return ranked[0]


def _rewarded_formation_doc(seed: int, rewards) -> dict:
    """A small ``mm_scale_document`` in which every entry forms a retrieval
    production, and the central walk uses the attention write, so that
    scheduled rewards move the attention productions' utilities apart."""
    doc = mm_scale_document(seed, 24, formation_threshold=-100.0)
    doc["central_productions"][0]["conditions"].append({"buffer": "attention",
                                                        "pattern": None})
    doc["learning"]["time_cost"] = 0.5
    doc["rewards"] = [{"cycle": cycle, "amount": amount} for cycle, amount in rewards]
    return doc


class TestDecisionsEqualTheResolvedConflictSet:
    """At every cycle, and at every step of a multi-step system, a shadow
    decides as :func:`resolve` of its whole conflict set would."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(doc=random_model_docs)
    def test_generated_models(self, doc):
        _decides_as_resolve(doc, 6, 0)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(doc=multi_step_model_docs(0.0), seed=st.integers(0, 3))
    def test_multi_step_models(self, doc, seed):
        _decides_as_resolve(doc, 10, seed)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 50), rewards=st.lists(
        st.tuples(st.integers(1, 29), st.sampled_from([-4.0, -1.0, 2.0, 6.0])),
        min_size=2, max_size=8))
    def test_formation_heavy_models_with_rewards(self, seed, rewards):
        _decides_as_resolve(_rewarded_formation_doc(seed, rewards), 30, seed)

    def test_the_formation_heavy_runs_rank_by_utility(self):
        """The formed pools decide by utility, not by declaration order or
        by name alone, in some cycles, so the check above is not vacuous."""
        rewards = [(3, -4.0), (8, 6.0), (14, -1.0), (20, 2.0), (25, -4.0)]
        assert _decides_as_resolve(_rewarded_formation_doc(3, rewards), 30, 3) > 0
