"""Cycle scheduler behavior: determinism, phases, staging, modes."""

import hashlib
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from mmarch import demos, memory
from mmarch.errors import ModelValidationError
from mmarch.memory import MiddleMemory
from mmarch.model import load_model, parse_model
from mmarch.productions import Condition, Production
from mmarch.runtime import Session, run, run_session
from mmarch.trace import trace_to_bytes


def two_system_doc():
    """Two shadow systems fed by two predictors, one reactive centre."""
    return {
        "name": "two-systems",
        "codebook": {"dimension": 64, "seed": 3},
        "buffers": [
            {"name": "goal", "owner": "central"},
            {"name": "sight", "owner": "vision"},
            {"name": "sound", "owner": "audio"},
        ],
        "shadow_systems": [
            {"name": "vision", "buffer": "sight", "subscriptions": ["vision"],
             "productions": [
                {"name": "see",
                 "conditions": [{"mm_tags": ["vision"],
                                 "pattern": {"isa": "percept", "slots": {"value": "?"}}}],
                 "actions": [{"kind": "write-buffer", "target": "sight",
                              "chunk": {"isa": "percept", "slots": {"value": "?value"}}}]}]},
            {"name": "audio", "buffer": "sound", "subscriptions": ["audio"],
             "productions": [
                {"name": "hear",
                 "conditions": [{"mm_tags": ["audio"],
                                 "pattern": {"isa": "percept", "slots": {"value": "?"}}}],
                 "actions": [{"kind": "write-buffer", "target": "sound",
                              "chunk": {"isa": "percept", "slots": {"value": "?value"}},
                              "urgent": True}]}]},
        ],
        "central_productions": [
            {"name": "note",
             "conditions": [{"buffer": "sound",
                             "pattern": {"isa": "percept", "slots": {"value": "?"}}}],
             "actions": [{"kind": "write-buffer", "target": "goal",
                          "chunk": {"isa": "goal", "slots": {"heard": "?value"}}},
                         {"kind": "emit-reward", "amount": 4.0}]},
        ],
        "predictors": [
            {"name": "vision-net", "kind": "associative", "tag": "vision",
             "pairs": [["watch", "blip"]], "emit_isa": "percept", "emit_slot": "value"},
            {"name": "audio-net", "kind": "associative", "tag": "audio",
             "pairs": [["watch", "beep"]], "emit_isa": "percept", "emit_slot": "value"},
        ],
        "initial_wm": [
            {"buffer": "goal", "chunk": {"isa": "goal", "slots": {"state": "watch"}}},
        ],
    }


@pytest.fixture
def model():
    return parse_model(two_system_doc())


def linked_facts_doc(size=60, seed=1, noise=0.3, links=2):
    """A ring of ``size`` linked facts walked by the centre through a
    declarative shadow, while an associative predictor deposits cues that
    an attention shadow reads back from middle memory.  Each fact draws
    ``links`` link targets (duplicates and self-links are dropped)."""
    rng = random.Random(seed)
    order = list(range(size))
    rng.shuffle(order)
    successor = {order[i]: order[(i + 1) % size] for i in range(size)}
    facts = [{
        "tag": "semantic",
        "chunk": {"isa": "fact", "slots": {"name": f"f{i}", "next": f"f{successor[i]}",
                                           "kind": f"k{i % 8}"}},
        "presentations": sorted(round(-rng.uniform(2.0, 6.0), 3)
                                for _ in range(rng.randint(4, 5))),
        "links": sorted({rng.randrange(size) for _ in range(links)} - {i}),
    } for i in range(size)]
    first = f"f{order[0]}"
    walk_query = {"isa": "fact", "slots": {"name": first, "next": "?"}}
    return {
        "name": "linked-facts",
        "codebook": {"dimension": 64, "seed": seed},
        "middle_memory": {"spread_weight": 1.5, "retrieval_threshold": 0.3,
                          "forget_threshold": 0.3, "formation_threshold": 2.5,
                          "noise": noise},
        "learning": {"provisional_ttl_s": 2.0},
        "buffers": [{"name": "goal", "owner": "central"},
                    {"name": "declarative", "owner": "declarative"},
                    {"name": "attention", "owner": "attention"}],
        "shadow_systems": [
            {"name": "declarative", "buffer": "declarative",
             "subscriptions": ["semantic"], "productions": []},
            {"name": "attention", "buffer": "attention", "subscriptions": ["percept"],
             "productions": [{
                 "name": "notice",
                 "conditions": [{"mm_tags": ["percept"],
                                 "pattern": {"isa": "percept", "slots": {"value": "?"}}}],
                 "actions": [{"kind": "write-buffer", "target": "attention",
                              "chunk": {"isa": "percept",
                                        "slots": {"value": "?value"}}}]}]},
        ],
        "central_productions": [
            {"name": "walk",
             "conditions": [
                 {"buffer": "goal", "pattern": {"isa": "goal", "slots": {"state": "walk"}}},
                 {"buffer": "declarative",
                  "pattern": {"isa": "fact", "slots": {"name": "?", "next": "?"}}}],
             "actions": [
                 {"kind": "post-query", "target": "declarative",
                  "query": {"isa": "fact", "slots": {"name": "?next", "next": "?"}}},
                 {"kind": "write-buffer", "target": "goal",
                  "chunk": {"isa": "goal", "slots": {"state": "walk", "at": "?name"}}}]},
            {"name": "recover",
             "conditions": [
                 {"buffer": "goal", "pattern": {"isa": "goal", "slots": {"state": "walk"}}},
                 {"buffer": "declarative",
                  "pattern": {"isa": "retrieval-failure", "slots": {}}}],
             "actions": [{"kind": "post-query", "target": "declarative",
                          "query": walk_query}]},
        ],
        "predictors": [{"name": "sensor", "kind": "associative", "tag": "percept",
                        "pairs": [[f"f{i}", f"cue{i}"] for i in range(size)],
                        "emit_isa": "percept", "emit_slot": "value"}],
        "initial_wm": [
            {"buffer": "goal", "chunk": {"isa": "goal", "slots": {"state": "walk"}}},
            {"buffer": "declarative", "query": walk_query},
            {"buffer": "attention", "chunk": {"isa": "percept", "slots": {"value": "none"}}},
        ],
        "initial_mm": facts,
    }


def multi_step_doc():
    """Two two-step shadows: ``stepper`` reads middle memory in both of its
    sub-steps, every cycle, and ``decl`` posts a query in its first and
    answers it, or misses at the end of the chain, in its second."""
    names = ["a", "b", "c", "d"]
    facts = [{"tag": "facts",
              "chunk": {"isa": "fact", "slots": {"name": name, "next": following}},
              "presentations": [-2.0, -1.0 + 0.1 * i], "links": [(i + 1) % 4]}
             for i, (name, following) in enumerate(zip(names, ["b", "c", "d", "e"]))]
    cue = {"mm_tags": ["cue"], "pattern": {"isa": "percept", "slots": {"value": "?"}}}

    def stage(name, n, holds):
        return {"name": name,
                "conditions": [{"buffer": "scratch", "pattern": holds,
                                "negated": holds is None}, cue],
                "actions": [{"kind": "write-buffer", "target": "scratch",
                             "chunk": {"isa": "stage",
                                       "slots": {"n": n, "cue": "?value"}}}]}

    def move_to(at, *extra):
        return [{"kind": "clear-buffer", "target": "decl"},
                {"kind": "write-buffer", "target": "goal",
                 "chunk": {"isa": "goal", "slots": {"at": at}}}, *extra]

    return {
        "name": "multi-step", "codebook": {"dimension": 64, "seed": 4},
        "middle_memory": {"noise": 0.2, "retrieval_threshold": -1.5,
                          "forget_threshold": -3.0, "formation_threshold": 50.0},
        "buffers": [{"name": "goal", "owner": "central"},
                    {"name": "scratch", "owner": "stepper"},
                    {"name": "decl", "owner": "decl"}],
        "shadow_systems": [
            {"name": "stepper", "buffer": "scratch", "subscriptions": ["cue"],
             "steps_per_cycle": 2,
             "productions": [
                stage("start", "one", None),
                stage("advance", "two", {"isa": "stage", "slots": {"n": "one", "cue": "?"}}),
                stage("again", "one", {"isa": "stage", "slots": {"n": "two", "cue": "?"}})]},
            {"name": "decl", "buffer": "decl", "subscriptions": ["facts"],
             "steps_per_cycle": 2,
             "productions": [
                {"name": "ask",
                 "conditions": [{"buffer": "decl", "pattern": None, "negated": True},
                                {"buffer": "goal",
                                 "pattern": {"isa": "goal", "slots": {"at": "?"}}}],
                 "actions": [{"kind": "post-query", "target": "decl",
                              "query": {"isa": "fact",
                                        "slots": {"name": "?at", "next": "?"}}}]}]}],
        "central_productions": [
            {"name": "walk", "utility": 1.0,
             "conditions": [{"buffer": "decl", "pattern": {
                 "isa": "fact", "slots": {"name": "?", "next": "?"}}}],
             "actions": move_to("?next")},
            {"name": "recover", "utility": 1.0,
             "conditions": [{"buffer": "decl", "pattern": {
                 "isa": "retrieval-failure", "slots": {}}}],
             "actions": move_to("a", {"kind": "emit-reward", "amount": 1.0})},
            {"name": "use",
             "conditions": [{"buffer": "scratch", "pattern": {
                 "isa": "stage", "slots": {"n": "two", "cue": "?"}}}],
             "actions": [{"kind": "clear-buffer", "target": "scratch"}]}],
        "predictors": [{"name": "sensor", "kind": "associative", "tag": "cue",
                        "pairs": [[name, f"cue-{name}"] for name in names + ["e"]],
                        "emit_isa": "percept", "emit_slot": "value"}],
        "initial_wm": [{"buffer": "goal", "chunk": {"isa": "goal", "slots": {"at": "a"}}}],
        "initial_mm": facts,
    }


# SHA-256 of 20 cycles of ``multi_step_doc`` at seed 3.
MULTI_STEP_GOLDEN = "e84adf077e255861fa507bda5d5ec6c39c3192e387b9d11e779d07d214e2924c"

# SHA-256 of 200 mm cycles of ``linked_facts_doc(noise=n)`` at seed 1, by noise n.
LINKED_FACTS_GOLDENS = {
    0.0: "dcb97245c25ec9e9484a21cfc15ced55332d012196b7c2f9081159f269fc45b5",
    0.3: "03a105ffa54556af6af6f0356273d1a455982cbea7e0a470e4dae31fb5ebd341",
}

# SHA-256 of 200 mm cycles of ``linked_facts_doc(size=300, noise=n)`` at seed 1.
# At noise 0.0 middle memory holds 77-315 entries; at 0.3 it falls from 250
# to 1, so these runs read middle memory at sizes on both sides of
# ``memory.COLUMN_MIN_ENTRIES``.
LARGE_LINKED_FACTS_GOLDENS = {
    0.0: "f56c0fdb6cb62e560951996bcdc335a9a6bc1fa728cf1b9d73ee5a9f1de34754",
    0.3: "f5da9b7bf5495cfd66dcb4a98b7cc5b6ac3edc73a296dc03580081749063b5fd",
}


def _multi_step_system(draw, i, n_systems):
    own = f"buf{i}"
    fact = {"mm_tags": ["facts"], "pattern": {"isa": "fact", "slots": {"name": "?", "next": "?"}}}
    empty = {"buffer": own, "pattern": None, "negated": True}
    marked = {"buffer": own, "pattern": {"isa": "mark", "slots": {"at": "?"}}}

    def write(at):
        return [{"kind": "write-buffer", "target": own,
                 "chunk": {"isa": "mark", "slots": {"at": at}}}]

    menu = {
        "see": ([empty, fact], write("?name")),
        "follow": ([marked, fact], write("?next")),
        "ask": ([empty], [{"kind": "post-query", "target": own, "query": {
            "isa": "fact", "slots": {"name": draw(st.sampled_from("abz")), "next": "?"}}}]),
        "peek": ([{"buffer": f"buf{(i + 1) % n_systems}", "pattern": None}], write("peer")),
        "drop": ([marked], [{"kind": "clear-buffer", "target": own}]),
        "wait": ([{"buffer": own, "pattern": None}], []),
    }
    chosen = draw(st.lists(st.sampled_from(sorted(menu)), min_size=1, max_size=3,
                           unique=True))
    productions = [{"name": f"{name}{i}", "conditions": menu[name][0],
                    "actions": menu[name][1],
                    "utility": draw(st.sampled_from([0.0, 1.0]))} for name in chosen]
    return {"name": f"sys{i}", "buffer": own, "subscriptions": ["facts", "cue"],
            "steps_per_cycle": draw(st.integers(1, 3)), "productions": productions}


@st.composite
def multi_step_model_docs(draw, noise):
    """2-3 shadow systems of 1-3 steps a cycle that read middle memory, read
    each other's buffers, post queries and clear their own buffers, while
    a predictor deposits and the centre empties one buffer a cycle."""
    n_systems = draw(st.integers(2, 3))
    chain = ["a", "b", "c", "d"]
    return {
        "name": "generated-multi-step", "codebook": {"dimension": 64, "seed": 1},
        "middle_memory": {"noise": noise, "retrieval_threshold": -1.5,
                          "forget_threshold": -3.0},
        "buffers": [{"name": "goal", "owner": "central"}]
                   + [{"name": f"buf{i}", "owner": f"sys{i}"} for i in range(n_systems)],
        "shadow_systems": [_multi_step_system(draw, i, n_systems)
                           for i in range(n_systems)],
        "central_productions": [
            {"name": f"take{i}", "utility": float(i),
             "conditions": [{"buffer": f"buf{i}", "pattern": None}],
             "actions": [{"kind": "clear-buffer", "target": f"buf{i}"}]}
            for i in range(n_systems)],
        "predictors": [{"name": "sensor", "kind": "associative", "tag": "cue",
                        "pairs": [[name, f"cue-{name}"] for name in chain],
                        "emit_isa": "percept", "emit_slot": "value"}],
        "initial_wm": [{"buffer": "goal", "chunk": {"isa": "goal", "slots": {"at": "a"}}}],
        "initial_mm": [{"tag": "facts",
                        "chunk": {"isa": "fact", "slots": {"name": name, "next": following}},
                        "presentations": [-1.0, -0.5 + 0.1 * i], "links": [(i + 1) % 4]}
                       for i, (name, following) in enumerate(zip(chain, "bcde"))],
    }


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, model):
        a = run(model, 30, mode="mm", seed=5)
        b = run(model, 30, mode="mm", seed=5)
        assert trace_to_bytes(a) == trace_to_bytes(b)

    def test_step_equals_run(self, model):
        session = Session(model, mode="mm", seed=5)
        for _ in range(30):
            session.step()
        session.finish()
        assert trace_to_bytes(session.trace) == \
            trace_to_bytes(run(model, 30, mode="mm", seed=5))

    def test_shadow_step_order_is_unobservable(self, model):
        base = run(model, 30, mode="mm", seed=5)
        permuted = run(model, 30, mode="mm", seed=5, shadow_step_order=[1, 0])
        assert trace_to_bytes(base) == trace_to_bytes(permuted)

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_shadow_step_order_is_unobservable_with_noise(self, noise):
        """Both shadows read middle memory every cycle while entries are
        deposited, forgotten and formed into productions; noisy activation
        must not make the order they are stepped in visible."""
        linked = parse_model(linked_facts_doc(noise=noise))
        base = run(linked, 60, mode="mm", seed=1)
        permuted = run(linked, 60, mode="mm", seed=1, shadow_step_order=[1, 0])
        assert {"forget", "form"} <= {e.kind for e in base.events}
        assert trace_to_bytes(base) == trace_to_bytes(permuted)

    def test_bad_permutation_rejected(self, model):
        with pytest.raises(ValueError):
            Session(model, shadow_step_order=[0, 0])

    def test_different_seed_changes_header_only_when_symbolic(self, model):
        a = run(model, 10, mode="mm", seed=1)
        b = run(model, 10, mode="mm", seed=2)
        assert a.seed != b.seed
        assert a.events == b.events  # reference predictors consume symbols


class TestPhases:
    def test_no_central_fire_precedes_cycle_deposits(self, model):
        trace = run(model, 40, mode="mm", seed=0)
        for cycle in range(40):
            events = [e for e in trace.events if e.cycle == cycle]
            kinds = [e.kind for e in events]
            if "central-fire" in kinds and "deposit" in kinds:
                assert kinds.index("deposit") < kinds.index("central-fire")

    def test_exactly_one_central_event_per_cycle(self, model):
        trace = run(model, 40, mode="mm", seed=0)
        for cycle in range(40):
            count = sum(1 for e in trace.events if e.cycle == cycle
                        and e.kind in ("central-fire", "idle"))
            assert count == 1

    def test_clock_is_integer_milliseconds(self, model):
        session = Session(model, mode="mm", seed=0)
        for expected in range(5):
            assert session.now_ms == expected * 50
            assert session.cycle == expected
            session.step()
        session.finish()

    def test_cycle_length_is_configurable(self):
        doc = two_system_doc()
        doc["cycle_length_ms"] = 100
        model = parse_model(doc)
        session = Session(model, mode="mm", seed=0)
        session.step()
        session.step()
        session.finish()
        assert session.trace.cycle_length_ms == 100
        assert session.now_ms == 200

    def test_shadow_write_lands_after_central_match(self, model):
        """An urgent shadow write at cycle n enters the central conflict set
        at cycle n+1, never at n."""
        trace = run(model, 30, mode="mm", seed=0)
        interrupts = [e.cycle for e in trace.by_kind("interrupt")]
        assert interrupts, "audio system never interrupted"
        first = interrupts[0]
        fire_cycles = [e.cycle for e in trace.by_kind("central-fire")]
        assert first + 1 in fire_cycles
        assert first not in fire_cycles

    def test_shadow_fire_per_system_per_cycle(self, model):
        trace = run(model, 30, mode="mm", seed=0)
        for cycle in range(30):
            per_system: dict = {}
            for event in trace.by_kind("shadow-fire"):
                if event.cycle == cycle:
                    name = event.data["system"]
                    per_system[name] = per_system.get(name, 0) + 1
            assert all(count == 1 for count in per_system.values())

    def test_two_systems_fire_into_distinct_buffers_same_cycle(self, model):
        trace = run(model, 30, mode="mm", seed=0)
        by_cycle: dict = {}
        for event in trace.by_kind("shadow-fire"):
            by_cycle.setdefault(event.cycle, []).append(event.data["system"])
        assert any(sorted(names) == ["audio", "vision"]
                   for names in by_cycle.values())


class TestPredictorIsolation:
    def test_predictions_reach_buffers_only_through_deposits(self, model):
        """In middle-memory mode a prediction's content may appear in a
        buffer only after a deposit carried it (no direct predictor path)."""
        trace = run(model, 30, mode="mm", seed=0)
        assert not any(e.data.get("route") == "pipeline"
                       for e in trace.by_kind("wm-write"))
        deposited: set[tuple] = set()
        system_names = {"vision", "audio"}
        for event in trace.events:
            if event.kind == "deposit" and event.data["content"] is not None:
                content = event.data["content"]
                deposited.add((content["isa"], tuple(sorted(content["slots"].items()))))
            elif event.kind == "wm-write" and event.data["writer"] in system_names:
                content = event.data["content"]
                if content is not None and not content.get("query"):
                    key = (content["isa"], tuple(sorted(content["slots"].items())))
                    assert key in deposited, (
                        f"shadow wrote {key} before any deposit carried it")


class TestInbox:
    def test_peer_lines_are_drained_once_in_arrival_order(self):
        """A peer's lines are numbered as they arrive, so they deposit in
        that order whatever their content; a malformed line costs an error
        event in the same order, and the next cycle drains nothing again."""
        session = Session(load_model(demos.path("threat")), mode="mm", seed=0)

        def percept(value):
            return json.dumps({"type": "prediction", "tag": "emotion",
                               "chunk": {"isa": "percept", "slots": {"value": value}}})

        for line in (percept("zeta"), "not json", percept("alpha"),
                     '{"type":"other"}', percept("mid")):
            session.inbox.put(("peer", 0, line))
        session.step()
        session.step()

        def from_peer(kind):
            return [e for e in session.trace.by_kind(kind)
                    if e.data.get("predictor") == "peer"
                    or e.data.get("source") == "predictor:peer"]

        assert [(e.cycle, e.data["content"]["slots"]["value"])
                for e in from_peer("deposit")] == [(0, "zeta"), (0, "alpha"), (0, "mid")]
        assert [(e.cycle, e.data["payload"]) for e in from_peer("error")] == [
            (0, "not json"), (0, '{"type":"other"}')]
        assert session.inbox.empty()


class TestRewardsAndCredit:
    def test_shadow_credit_arrives_with_reward(self, model):
        trace = run(model, 10, mode="mm", seed=0)
        updates = trace.by_kind("utility-update")
        hear = [u for u in updates if u.data["production"] == "hear"]
        assert hear and hear[0].data["new"] > 0
        see = [u for u in updates if u.data["production"] == "see"]
        assert see == []  # vision deposits were never consumed

    def test_credit_for_a_pruned_production_is_skipped(self, model):
        """A consumed write whose production was pruned before the reward
        earns nothing, and the reward still reaches the rest."""
        session = Session(model, mode="mm", seed=0)
        vision = session.systems[0]
        stale = Production(
            name="stale", owner="vision",
            conditions=(Condition(pattern=session.factory.make_query("never"),
                                  buffer="sight"),),
            actions=(), utility=0.0, permanent=False, created_at=-1000.0)
        vision.productions.append(stale)
        chunk = session.factory.make("percept", [("value", "x")])
        session.ledger.note_write("stale", "vision", chunk, -1000.0)
        session.ledger.mark_consumed(chunk.id, 0)
        session._scheduled[1] = [1.0]
        session.step()
        assert [e.data["production"] for e in session.trace.by_kind("prune")] == ["stale"]
        session.step()
        rewards = [(e.cycle, e.data["source"]) for e in session.trace.by_kind("reward")]
        assert (1, "schedule") in rewards
        assert "stale" not in [e.data["production"]
                               for e in session.trace.by_kind("utility-update")]
        assert session.ledger.take_consumed() == []

    def test_scheduled_rewards_fire_on_their_cycle(self):
        doc = two_system_doc()
        doc["central_productions"][0]["actions"].pop()  # drop the emit-reward
        doc["rewards"] = [{"cycle": 5, "amount": 3.0}]
        trace = run(parse_model(doc), 10, mode="mm", seed=0)
        rewards = trace.by_kind("reward")
        assert [(e.cycle, e.data["amount"], e.data["source"])
                for e in rewards] == [(5, 3.0, "schedule")]


    def test_ledger_keeps_one_unconsumed_record_per_system(self):
        """Only a system's latest write can still be matched, so long runs
        keep at most one unconsumed record per shadow system."""
        session = Session(load_model(demos.path("bottleneck")), mode="mm", seed=0)
        run_session(session, 3000)
        assert len(session.systems) == 3
        assert len(session.ledger.pending) <= 3


class TestHalt:
    def test_zero_cycles_yields_bare_halt(self):
        doc = {"name": "empty", "codebook": {"dimension": 64},
               "buffers": [{"name": "goal", "owner": "central"}]}
        trace = run(parse_model(doc), 0, mode="mm", seed=0)
        assert [e.kind for e in trace.events] == ["halt"]
        assert trace.events[0].data["reason"] == "cycles-exhausted"

    def test_halt_action_finalizes_trace(self):
        doc = {
            "name": "halter", "codebook": {"dimension": 64},
            "buffers": [{"name": "goal", "owner": "central"}],
            "central_productions": [
                {"name": "stop",
                 "conditions": [{"buffer": "goal", "pattern": None}],
                 "actions": [{"kind": "halt"}]}],
            "initial_wm": [{"buffer": "goal",
                            "chunk": {"isa": "goal", "slots": {}}}],
        }
        trace = run(parse_model(doc), 50, mode="mm", seed=0)
        halts = trace.by_kind("halt")
        assert len(halts) == 1
        assert halts[0].data["reason"] == "halt-action"
        assert halts[0].cycle == 0
        assert trace.events[-1].kind == "halt"

    def test_stepping_after_halt_raises(self):
        doc = {"name": "empty", "codebook": {"dimension": 64},
               "buffers": [{"name": "goal", "owner": "central"}]}
        session = Session(parse_model(doc), mode="mm", seed=0)
        session.finish()
        with pytest.raises(RuntimeError):
            session.step()


class TestPipelineMode:
    def test_predictions_bypass_middle_memory(self, model):
        trace = run(model, 20, mode="pipeline", seed=0)
        assert trace.by_kind("deposit") == []
        assert trace.by_kind("shadow-fire") == []
        routed = [e for e in trace.by_kind("wm-write")
                  if e.data.get("route") == "pipeline"]
        assert routed
        assert {e.data["buffer"] for e in routed} == {"sight", "sound"}

    def test_candidates_grow_with_inflow(self, model):
        trace = run(model, 40, mode="pipeline", seed=0)
        counts = [e.data["candidates"] for e in trace.events
                  if e.kind in ("central-fire", "idle")]
        assert counts[-1] > counts[5] > counts[1]

    def test_pipeline_needs_subscribers_for_every_tag(self, model):
        doc = two_system_doc()
        doc["predictors"].append({"name": "stray", "kind": "associative",
                                  "tag": "motor", "pairs": [["watch", "twitch"]]})
        stray = parse_model(doc)
        run(stray, 2, mode="mm", seed=0)  # fine in mm mode
        with pytest.raises(ModelValidationError):
            run(stray, 2, mode="pipeline", seed=0)

    def test_pipeline_central_sees_prediction_same_cycle(self, model):
        trace = run(model, 10, mode="pipeline", seed=0)
        first_route = next(e.cycle for e in trace.by_kind("wm-write")
                           if e.data.get("route") == "pipeline")
        first_fire = next(e.cycle for e in trace.by_kind("central-fire"))
        assert first_fire == first_route  # ungated: no one-cycle filter delay

    def test_unroutable_external_lines_are_errors(self):
        """An external line names its own tag, so validation cannot rule out
        a tag nobody subscribes to, and a vector-only line has no chunk to
        route; each costs an error event and the run goes on."""
        session = Session(load_model(demos.path("bottleneck")), mode="pipeline", seed=0)
        session.inbox.put(("peer", 0, json.dumps({
            "type": "prediction", "tag": "nobody",
            "chunk": {"isa": "percept", "slots": {"value": "x"}}})))
        session.inbox.put(("peer", 0, json.dumps({
            "type": "prediction", "tag": "vision",
            "vector": [1.0] + [0.0] * (session.book.dimension - 1)})))
        session.step()
        errors = [(e.cycle, e.data["message"], e.data["predictor"])
                  for e in session.trace.by_kind("error")]
        assert errors == [
            (0, "no module subscribes to tag 'nobody'", "peer"),
            (0, "vector-only prediction cannot be routed to a buffer", "peer")]
        session.step()
        assert session.cycle == 2 and not session.halted
        assert [e for e in session.trace.events if e.cycle == 1
                and e.kind in ("central-fire", "idle")]

    @pytest.mark.parametrize("demo,mode,tag", [("threat", "mm", "emotion"),
                                               ("bottleneck", "pipeline", "vision")])
    @pytest.mark.parametrize("extra", [
        {"chunk": {"isa": "percept", "slots": {"isa": "bear"}}},
        {"salience": True, "chunk": {"isa": "percept", "slots": {"value": "bear"}}}])
    def test_malformed_peer_chunk_costs_only_the_line(self, demo, mode, tag, extra):
        """A line the chunk grammar rejects is dropped at the wire, before the
        chunk factory could raise mid-cycle."""
        session = Session(load_model(demos.path(demo)), mode=mode, seed=0)
        session.inbox.put(("peer", 0, json.dumps(
            {"type": "prediction", "tag": tag, **extra})))
        session.step()
        errors = [e.data["message"] for e in session.trace.by_kind("error")]
        assert len(errors) == 1
        assert errors[0].startswith("dropped malformed prediction: ")
        session.step()
        assert session.cycle == 2 and not session.halted


class TestMultiRateSystems:
    def test_rate_multiplier_chains_substeps_within_a_cycle(self):
        doc = {
            "name": "fast", "codebook": {"dimension": 64},
            "buffers": [{"name": "goal", "owner": "central"},
                        {"name": "scratch", "owner": "stepper"}],
            "shadow_systems": [
                {"name": "stepper", "buffer": "scratch",
                 "subscriptions": ["seed"], "steps_per_cycle": 2,
                 "productions": [
                    {"name": "start",
                     "conditions": [{"buffer": "scratch", "pattern": None,
                                     "negated": True},
                                    {"mm_tags": ["seed"], "pattern": None}],
                     "actions": [{"kind": "write-buffer", "target": "scratch",
                                  "chunk": {"isa": "stage", "slots": {"n": "one"}}}]},
                    {"name": "advance",
                     "conditions": [{"buffer": "scratch",
                                     "pattern": {"isa": "stage", "slots": {"n": "one"}}}],
                     "actions": [{"kind": "write-buffer", "target": "scratch",
                                  "chunk": {"isa": "stage", "slots": {"n": "two"}}}]}]}],
            "initial_mm": [{"tag": "seed", "chunk": {"isa": "go", "slots": {}},
                            "presentations": [-0.5]}],
        }
        trace = run(parse_model(doc), 1, mode="mm", seed=0)
        fires = [e.data["production"] for e in trace.by_kind("shadow-fire")]
        assert fires == ["start", "advance"]  # both sub-steps, one cycle
        writes = [e for e in trace.by_kind("wm-write")
                  if e.data["writer"] == "stepper"]
        assert writes[-1].data["content"]["slots"] == {"n": "two"}

    def test_a_substep_without_a_write_leaves_the_buffer_as_it_was(self):
        doc = {
            "name": "no-write", "codebook": {"dimension": 64},
            "buffers": [{"name": "goal", "owner": "central"},
                        {"name": "vision", "owner": "vision"}],
            "shadow_systems": [
                {"name": "vision", "buffer": "vision", "subscriptions": ["seen"],
                 "steps_per_cycle": 2,
                 "productions": [
                    {"name": "look", "utility": 1.0,
                     "conditions": [{"buffer": "vision",
                                     "pattern": {"isa": "percept",
                                                 "slots": {"value": "?"}}}],
                     "actions": []},
                    {"name": "when-empty",
                     "conditions": [{"buffer": "vision", "pattern": None,
                                     "negated": True}],
                     "actions": [{"kind": "write-buffer", "target": "vision",
                                  "chunk": {"isa": "empty", "slots": {}}}]}]}],
            "initial_wm": [{"buffer": "vision",
                            "chunk": {"isa": "percept", "slots": {"value": "x"}}}],
        }
        trace = run(parse_model(doc), 1, mode="mm", seed=0)
        fires = [e.data["production"] for e in trace.by_kind("shadow-fire")]
        assert fires == ["look", "look"]
        assert not [e for e in trace.by_kind("wm-write") if e.data["writer"] == "vision"]

    @staticmethod
    def _ask_doc(fact_name):
        """One fact, ``a -> b``, or ``z -> b`` for a miss; ``decl`` posts
        ``fact(name:a next:?)`` in its first sub-step while its buffer is
        empty, and answers or misses it in its second."""
        return {
            "name": "ask", "codebook": {"dimension": 64},
            "buffers": [{"name": "goal", "owner": "central"},
                        {"name": "decl", "owner": "decl"}],
            "shadow_systems": [
                {"name": "decl", "buffer": "decl", "subscriptions": ["facts"],
                 "steps_per_cycle": 2,
                 "productions": [
                    {"name": "ask",
                     "conditions": [{"buffer": "decl", "pattern": None, "negated": True}],
                     "actions": [{"kind": "post-query", "target": "decl",
                                  "query": {"isa": "fact",
                                            "slots": {"name": "a", "next": "?"}}}]}]}],
            "initial_wm": [{"buffer": "goal", "chunk": {"isa": "task", "slots": {}}}],
            "initial_mm": [{"tag": "facts", "chunk": {"isa": "fact", "slots": {
                "name": fact_name, "next": "b"}}, "presentations": [-0.5]}],
        }

    def _posted_and_reply(self, fact_name):
        trace = run(parse_model(self._ask_doc(fact_name)), 1, mode="mm", seed=0)
        posted, reply = [e.data for e in trace.by_kind("wm-write")
                         if e.data["writer"] == "decl"]
        assert posted["content"]["query"]
        return posted["content"]["id"], reply

    def test_an_answer_names_the_query_posted_in_the_same_cycle(self):
        query_id, reply = self._posted_and_reply("a")
        assert reply["content"]["slots"] == {"name": "a", "next": "b"}
        assert reply["answers_query"] == query_id

    def test_a_miss_names_the_query_posted_in_the_same_cycle(self):
        query_id, reply = self._posted_and_reply("z")
        assert reply["content"]["isa"] == "retrieval-failure"
        assert reply["answers_query"] == query_id
        assert reply["content"]["slots"] == {"query-id": str(query_id)}

    def test_multi_step_golden(self):
        """Pinned when each shadow decision was first fired once, in system
        order; stepping the systems in the other order gives the same bytes."""
        model = parse_model(multi_step_doc())
        trace = run(model, 20, mode="mm", seed=3)
        fires = [e.data["production"] for e in trace.by_kind("shadow-fire")]
        assert {"start", "advance", "again", "ask"} <= set(fires)
        replies = [e.data for e in trace.by_kind("wm-write") if "answers_query" in e.data]
        assert {r["entry"] is None for r in replies} == {True, False}  # answers and misses
        data = trace_to_bytes(trace)
        assert hashlib.sha256(data).hexdigest() == MULTI_STEP_GOLDEN
        assert trace_to_bytes(run(model, 20, mode="mm", seed=3,
                                  shadow_step_order=[1, 0])) == data

    @pytest.mark.parametrize("noise", sorted(LINKED_FACTS_GOLDENS))
    def test_linked_facts_golden(self, noise):
        """Forgetting linked facts changes their neighbours' reach, so these
        runs pin spreading over a graph that loses edges as it runs."""
        trace = run(parse_model(linked_facts_doc(noise=noise)), 200, mode="mm", seed=1)
        assert sum(e.data["tag"] == "semantic" for e in trace.by_kind("forget")) >= 40
        assert hashlib.sha256(trace_to_bytes(trace)).hexdigest() == \
            LINKED_FACTS_GOLDENS[noise]

    @pytest.mark.parametrize("noise", sorted(LARGE_LINKED_FACTS_GOLDENS))
    def test_large_linked_facts_golden(self, noise):
        """300 linked facts: the same walk over a memory large enough that
        its reads take the column path for part or all of the run."""
        trace = run(parse_model(linked_facts_doc(size=300, noise=noise)), 200,
                    mode="mm", seed=1)
        assert sum(e.data["tag"] == "semantic" for e in trace.by_kind("forget")) >= 200
        assert hashlib.sha256(trace_to_bytes(trace)).hexdigest() == \
            LARGE_LINKED_FACTS_GOLDENS[noise]

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_step_order_is_unobservable_with_several_steps(self, noise, data):
        model = parse_model(data.draw(multi_step_model_docs(noise)))
        base = trace_to_bytes(run(model, 8, mode="mm", seed=2))
        for order in itertools.permutations(range(len(model.shadow_systems))):
            assert trace_to_bytes(run(model, 8, mode="mm", seed=2,
                                      shadow_step_order=list(order))) == base

    def test_a_preview_keeps_the_sweeps_table(self, monkeypatch):
        """A two-step shadow whose first write changes the spreading sources
        reads a preview table in its second step.  Every system's first step
        is decided before any preview, so the next system still reads the
        sweep's table, and cycle 0 builds three tables of its 50 entries
        (sweep, preview, broadcast) and not four.  The three tables share
        one time and version, so they compute each base level once."""
        fact = {"mm_tags": ["seed"], "pattern": {"isa": "fact", "slots": {"n": "?"}}}
        doc = {
            "name": "preview-table", "codebook": {"dimension": 64},
            "buffers": [{"name": "goal", "owner": "central"},
                        {"name": "scratch", "owner": "stepper"},
                        {"name": "watch", "owner": "watcher"}],
            "shadow_systems": [
                {"name": "stepper", "buffer": "scratch",
                 "subscriptions": ["seed"], "steps_per_cycle": 2,
                 "productions": [
                    {"name": "start",
                     "conditions": [{"buffer": "scratch", "pattern": None,
                                     "negated": True}, fact],
                     "actions": [{"kind": "write-buffer", "target": "scratch",
                                  "chunk": {"isa": "stage", "slots": {"n": "one"}}}]},
                    {"name": "advance",
                     "conditions": [{"buffer": "scratch",
                                     "pattern": {"isa": "stage", "slots": {"n": "one"}}},
                                    fact],
                     "actions": [{"kind": "write-buffer", "target": "scratch",
                                  "chunk": {"isa": "stage", "slots": {"n": "two"}}}]}]},
                {"name": "watcher", "buffer": "watch", "subscriptions": ["seed"],
                 "productions": [
                    {"name": "look",
                     "conditions": [{"buffer": "watch", "pattern": None,
                                     "negated": True}, fact],
                     "actions": [{"kind": "write-buffer", "target": "watch",
                                  "chunk": {"isa": "seen", "slots": {}}}]}]}],
            "initial_mm": [{"tag": "seed", "chunk": {"isa": "fact", "slots": {"n": f"f{i}"}},
                            "presentations": [-0.5]} for i in range(50)],
        }
        session = Session(parse_model(doc), mode="mm", seed=0)
        base_level, table = MiddleMemory.base_level, memory._Table
        calls = {"base_level": 0, "tables": 0}

        def counting_base_level(self, entry, now):
            calls["base_level"] += 1
            return base_level(self, entry, now)

        def counting_table(*args, **kwargs):
            calls["tables"] += 1
            return table(*args, **kwargs)

        monkeypatch.setattr(MiddleMemory, "base_level", counting_base_level)
        monkeypatch.setattr(memory, "_Table", counting_table)
        session.step()
        fires = [e.data["production"] for e in session.trace.by_kind("shadow-fire")]
        assert fires == ["start", "advance", "look"]
        assert len(session.mm) == 50
        assert calls == {"base_level": 50, "tables": 3}


class TestFormation:
    def test_hot_entries_form_in_id_order_across_tags(self):
        """Formation reads a system's tags through the tag index and forms
        its hot entries in id order, whatever the order of its tags."""
        doc = {
            "name": "form-order",
            "buffers": [{"name": "goal", "owner": "central"},
                        {"name": "watch", "owner": "watcher"}],
            "shadow_systems": [{"name": "watcher", "buffer": "watch",
                                "subscriptions": ["b", "a"]}],
            "middle_memory": {"formation_threshold": 0.5},
            "initial_mm": [
                {"tag": tag, "chunk": {"isa": "fact", "slots": {"n": f"f{i}"}},
                 "presentations": [-0.06, -0.04, -0.02]}
                for i, tag in enumerate(["a", "b", "a", "c", "b"])],
        }
        session = Session(parse_model(doc), mode="mm")
        session.step()
        assert [e.data["entry"] for e in session.trace.by_kind("form")] == [1, 2, 3, 5]

    def test_formation_sees_no_spreading_from_a_forgotten_entry(self):
        """The hub is hot only through its link to the weak entry, which the
        same cycle's sweep forgets; formation then reads the hub's activation
        without that spreading, as the shadow systems did, and forms nothing."""
        doc = {
            "name": "forgotten-link",
            "buffers": [{"name": "goal", "owner": "central"},
                        {"name": "watch", "owner": "watcher"}],
            "shadow_systems": [{"name": "watcher", "buffer": "watch",
                                "subscriptions": ["t"]}],
            "middle_memory": {"spread_weight": 2.0, "forget_threshold": -1.5,
                              "formation_threshold": 3.0},
            "initial_wm": [{"buffer": "goal",
                            "chunk": {"isa": "cue", "slots": {"v": "weakval"}}}],
            "initial_mm": [
                {"tag": "t", "chunk": {"isa": "fact", "slots": {"n": "hub"}},
                 "presentations": [-0.06, -0.04, -0.02], "links": [1]},
                {"tag": "t", "chunk": {"isa": "fact", "slots": {"n": "weak", "v": "weakval"}},
                 "presentations": [-1000000.0]},
            ],
        }
        session = Session(parse_model(doc), mode="mm")
        t_eval = session._cycle_time(1)
        assert session.mm.activations(session.wm, t_eval)[1] > 3.0  # before the sweep
        session.step()
        events = session.trace.events
        assert [e.data["entry"] for e in events if e.kind == "forget"] == [2]
        assert session.mm.activations(session.wm, t_eval)[1] < 3.0
        assert not [e for e in events if e.kind == "form"]


class TestBaseLevelLimits:
    """A base-level sum that leaves the float range must not stop a run of a
    valid model: a term that overflows makes the activation +inf, and a sum
    that underflows to 0.0 makes it -inf, so the first sweep forgets it."""

    @staticmethod
    def one_fact_doc(decay, presentation):
        return {
            "name": "base-level-limit",
            "buffers": [{"name": "goal", "owner": "central"},
                        {"name": "watch", "owner": "watcher"}],
            "shadow_systems": [{"name": "watcher", "buffer": "watch",
                                "subscriptions": ["t"]}],
            "middle_memory": {"decay": decay},
            "initial_mm": [{"tag": "t", "chunk": {"isa": "fact", "slots": {"n": "x"}},
                            "presentations": [presentation]}],
        }

    def test_an_overflowing_term_gives_infinite_activation(self):
        session = Session(parse_model(self.one_fact_doc(300.0, 0.0)), mode="mm")
        assert session.mm.activations(session.wm, session._cycle_time(1)) == {1: math.inf}
        for _ in range(3):
            session.step()
        assert len(session.mm) == 1
        assert not session.trace.by_kind("forget")
        trace_to_bytes(session.trace)

    def test_an_underflowing_sum_is_forgotten_at_the_first_sweep(self):
        session = Session(parse_model(self.one_fact_doc(60.0, -1e7)), mode="mm")
        session.step()
        assert [(e.data["entry"], e.data["activation"])
                for e in session.trace.by_kind("forget")] == [(1, -math.inf)]
        assert len(session.mm) == 0
        trace_to_bytes(session.trace)
