"""Cycle scheduler behavior: determinism, phases, staging, modes."""

import io
import itertools
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from mmarch import demos, memory, predictors
from mmarch.errors import ModelValidationError
from mmarch.model import load_model, parse_model
from mmarch.productions import Condition, Production
from mmarch.runtime import Session, _clip, _line_text, run, run_session
from mmarch.trace import read_trace, trace_to_bytes

from pins import (demo_run, digest, emptying_run, linked_facts_doc, linked_facts_run,
                  multi_step_run, pinned)
from test_memory import count_base_levels

# Pieces of a peer line: one- to four-byte characters, and invalid bytes, a
# lone continuation byte and truncated sequences, each rendered per byte.
EMOJI = "😀".encode()
LINE_PIECES = (b"a", "é".encode(), "€".encode(), EMOJI, b"\xff", b"\x80",
               b"\xe2\x82", b"\xf0\x9f\x98", b"\xc0")


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
        "mark": ([empty], write(draw(st.sampled_from("abz")))),  # new spreading sources
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
    a predictor deposits and the centre empties one buffer a cycle.  With
    ``tied`` every fact has the same history, so facts whose reach meets the
    same sources tie exactly and spreading alone tells the others apart."""
    n_systems = draw(st.integers(2, 3))
    chain = ["a", "b", "c", "d"]
    tied = draw(st.booleans())
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
                        "presentations": [-1.0, -0.5 + (0.0 if tied else 0.1 * i)],
                        "links": [(i + 1) % 4]}
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

    def test_negative_seed_rejected(self, model):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            Session(model, seed=-1)

    @pytest.mark.parametrize("seed", [True, False, 3.0, "3", None])
    def test_seed_that_is_not_an_int_rejected(self, seed):
        """A seed a trace header may not hold is refused before the run
        (a bool is not an int), so every trace a session writes reads back."""
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            Session(load_model(demos.path("threat")), seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 70])
    def test_trace_of_an_accepted_seed_reads_back(self, seed):
        trace = run(load_model(demos.path("threat")), 3, seed=seed)
        assert read_trace(io.BytesIO(trace_to_bytes(trace))) == trace

    def test_different_seed_changes_header_only_when_symbolic(self, model):
        a = run(model, 10, mode="mm", seed=1)
        b = run(model, 10, mode="mm", seed=2)
        assert a.seed != b.seed
        assert a.events == b.events  # reference predictors consume symbols


class TestConstruction:
    def test_productions_fire_the_models_own_actions(self, model):
        session = Session(model, mode="mm", seed=0)
        pairs = list(zip(session.central_productions, model.central_productions,
                         strict=True))
        for system, sdef in zip(session.systems, model.shadow_systems, strict=True):
            pairs += zip(system.productions, sdef.productions, strict=True)
        assert len(pairs) > len(model.central_productions) > 0
        for production, pdef in pairs:
            assert production.actions is pdef.actions

    def test_set_up_files_middle_memory_once(self, monkeypatch):
        """A linked-facts session keeps its seeded entries and links unfiled
        until its first cycle reads middle memory, which builds the columns
        once, in one pass, from all 60: no ``add`` or ``repost`` runs
        before that build, and ``add`` files no seeded entry."""
        columns = memory._Columns
        init, add, repost = columns.__init__, columns.add, columns.repost
        calls = []

        def counting_init(self, entries):
            init(self, entries)
            calls.append(("build", len(self.entries)))

        def counting_add(self, entry):
            calls.append(("add", entry.id))
            add(self, entry)

        def counting_repost(self, slot):
            calls.append(("repost", self.entries[slot].id))
            repost(self, slot)

        monkeypatch.setattr(columns, "__init__", counting_init)
        monkeypatch.setattr(columns, "add", counting_add)
        monkeypatch.setattr(columns, "repost", counting_repost)
        session = Session(parse_model(linked_facts_doc()), mode="mm", seed=1)
        seeded = set(session.mm.entries)
        assert len(seeded) == 60
        assert sum(len(entry.links) for entry in session.mm.entries.values()) > 60
        assert calls == []
        session.step()
        assert calls[0] == ("build", 60)
        assert [call for call in calls if call[0] == "build"] == [("build", 60)]
        assert not seeded & {entry_id for kind, entry_id in calls if kind == "add"}


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
            session.inbox.append(("peer", 0, line.encode()))
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
        assert not session.inbox

    @pytest.mark.parametrize("demo,mode", [("threat", "mm"), ("bottleneck", "pipeline")])
    def test_a_huge_peer_line_costs_one_bounded_error_event(self, demo, mode):
        """A multi-MB line keeps its first and last characters in the event,
        and a message keeps the reason at its end, so each costs under 1 KB
        of trace; a tag no module subscribes to is bounded the same way."""
        session = Session(load_model(demos.path(demo)), mode=mode, seed=0)
        lines = [b"x" * 3_000_000,
                 json.dumps({"type": "prediction", "tag": "a " + "t" * 1_000_000,
                             "chunk": {"isa": "percept", "slots": {}}}).encode()]
        if mode == "pipeline":
            lines.append(json.dumps({"type": "prediction", "tag": "u" * 1_000_000,
                                     "chunk": {"isa": "percept", "slots": {}}}).encode())
        for line in lines:
            session.inbox.append(("peer", 0, line))
        session.step()
        errors = [e for e in session.trace.by_kind("error") if e.data["predictor"] == "peer"]
        assert len(errors) == len(lines)
        assert errors[0].data["payload"] == "x" * 128 + "…" + "x" * 128
        assert errors[1].data["message"].endswith("may not contain ':' or whitespace")
        encoded = [line for line in trace_to_bytes(session.trace).splitlines()
                   if b'"kind":"error"' in line]
        assert len(encoded) == len(lines) and max(map(len, encoded)) < 1024

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(head=st.integers(120, 128), tail=st.integers(120, 128),
           middle=st.lists(st.sampled_from(LINE_PIECES), max_size=48))
    def test_a_dropped_line_keeps_what_clipping_its_whole_decoding_keeps(
            self, head, middle, tail):
        """Lines of about ``4 * ERROR_TEXT_MAX`` bytes: a run of four-byte
        characters at each end puts the middle's pieces across the cuts
        ``2 * ERROR_TEXT_MAX`` bytes from either end."""
        line = EMOJI * head + b"".join(middle) + EMOJI * tail
        assert _clip(_line_text(line)) == _clip(line.decode(errors="backslashreplace"))

    def test_dropping_a_line_max_head_decodes_only_its_ends(self):
        """A ``LINE_MAX`` head costs its error event under 1 MiB of memory
        at peak, and its payload is what the whole decoding would clip to."""
        session = Session(load_model(demos.path("wordloop")), mode="mm", seed=0)
        line = "é".encode() + b"\xff" + b"x" * (predictors.LINE_MAX - 6) + "€".encode()
        session.inbox.append(("peer", 0, line))
        tracemalloc.start()
        try:
            session.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024
        [error] = [e for e in session.trace.by_kind("error") if e.data["predictor"] == "peer"]
        assert error.data["payload"] == _clip(line.decode(errors="backslashreplace"))


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
        session.learner.consumed.append((chunk.id, "vision", "stale", -1000.0))
        session._scheduled[1] = [1.0]
        session.step()
        assert [e.data["production"] for e in session.trace.by_kind("prune")] == ["stale"]
        session.step()
        rewards = [(e.cycle, e.data["source"]) for e in session.trace.by_kind("reward")]
        assert (1, "schedule") in rewards
        assert "stale" not in [e.data["production"]
                               for e in session.trace.by_kind("utility-update")]
        assert session.learner.consumed == []

    @staticmethod
    def _quiet_two_systems():
        """``two_system_doc`` after two cycles, both shadows holding a
        credited write, with every shadow production kept but unable to fire."""
        doc = two_system_doc()
        doc["middle_memory"] = {"formation_threshold": 100.0}
        session = Session(parse_model(doc), mode="mm", seed=0)
        session.step()
        session.step()
        never = (Condition(pattern=session.factory.make_query("never"), buffer="goal"),)
        for system in session.systems:
            for production in system.productions:
                production.conditions = never
        return session

    def test_a_shadow_write_is_consumed_once(self):
        """The first central firing on a shadow write takes its credit; a
        later firing on the same chunk takes none, and a reward leaves an
        unused write's credit on its buffer."""
        session = self._quiet_two_systems()
        sight, sound = session.wm.buffer("sight"), session.wm.buffer("sound")
        assert sight.credit == ("see", 0.05) and sound.credit == ("hear", 0.05)
        session.step()
        session.step()
        fires = session.trace.by_kind("central-fire")
        assert [(e.cycle, e.data["consumed"]) for e in fires] == [
            (2, [{"buffer": "sound", "chunk": sound.content.id,
                  "producer": "hear", "system": "audio"}]),
            (3, [])]
        assert sound.credit is None and sight.credit == ("see", 0.05)
        assert [(e.cycle, e.data["production"])
                for e in session.trace.by_kind("utility-update")] == [
            (2, "note"), (2, "hear"), (3, "note")]

    def test_a_write_over_a_shadow_write_takes_its_credit(self):
        """A chunk the centre wrote over a shadow write is matched but never
        consumed: the newer write replaced the credit."""
        session = self._quiet_two_systems()
        chunk = session.factory.make("percept", [("value", "x")])
        session.wm.write("central", "sound", chunk)
        session.step()
        (fire,) = session.trace.by_kind("central-fire")
        assert fire.data["matched"] == [{"buffer": "sound", "chunk": chunk.id}]
        assert fire.data["consumed"] == []
        assert [e.data["production"] for e in session.trace.by_kind("utility-update")] == [
            "note"]

    @pytest.mark.parametrize("name,mode", [("wordloop", "mm"), ("bottleneck", "pipeline")])
    def test_no_credit_is_kept_once_no_reward_can_come(self, name, mode):
        """Neither demo emits a reward, and wordloop's last scheduled one is
        at cycle 150: from then on the learner keeps no record."""
        session = Session(load_model(demos.path(name)), mode=mode, seed=0)
        held = []
        run_session(session, 3000, after_step=lambda s: held.append(
            (len(s.learner.pending), len(s.learner.consumed))))
        assert len(held) == 3000 and set(held[150:]) == {(0, 0)}

    def test_a_model_that_emits_rewards_keeps_its_credit(self):
        """threat's flee-threat emits a reward, so credit is recorded all run:
        in mm mode the reward reaches every firing and the used emotion
        write; in pipeline mode flee-threat never fires, so the three walks
        stay pending."""
        trace = demo_run("threat", 200, "mm")
        walk = {"owner": "central", "old": 1.0, "new": 2.8, "effective_reward": 10.0,
                "made_permanent": False}
        assert [(e.cycle, e.data) for e in trace.by_kind("utility-update")] == [
            (4, {"production": "walk-to-trailhead", **walk}),
            (4, {"production": "walk-to-ridge", **walk}),
            (4, {"production": "walk-to-campsite", **walk}),
            (4, {"production": "flee-threat", "owner": "central", "old": 10.0,
                 "new": 10.0, "effective_reward": 10.0, "made_permanent": False}),
            (4, {"production": "raise-alarm", "owner": "emotion", "old": 0.0,
                 "new": 2.0, "effective_reward": 10.0, "made_permanent": False})]
        assert list(trace.by_kind("utility-update")[0].data) == [
            "production", "owner", "old", "new", "effective_reward", "made_permanent"]
        session = Session(load_model(demos.path("threat")), mode="pipeline", seed=0)
        run_session(session, 3000)
        assert [(p.name, t) for p, t in session.learner.pending] == [
            ("walk-to-trailhead", 0.0), ("walk-to-ridge", 0.05), ("walk-to-campsite", 0.1)]
        assert session.learner.consumed == []

    def test_scheduled_rewards_fire_on_their_cycle(self):
        doc = two_system_doc()
        doc["central_productions"][0]["actions"].pop()  # drop the emit-reward
        doc["rewards"] = [{"cycle": 5, "amount": 3.0}]
        trace = run(parse_model(doc), 10, mode="mm", seed=0)
        rewards = trace.by_kind("reward")
        assert [(e.cycle, e.data["amount"], e.data["source"])
                for e in rewards] == [(5, 3.0, "schedule")]

    def test_a_reward_may_come_while_one_is_scheduled_ahead(self):
        """The kept last scheduled cycle answers as a scan of every scheduled
        cycle does, at each cycle of a run with many scheduled rewards, and
        past its last; a model with none never records credit."""
        doc = two_system_doc()
        doc["central_productions"][0]["actions"].pop()  # drop the emit-reward
        doc["rewards"] = [{"cycle": cycle, "amount": 1.0}
                          for cycle in random.Random(4).sample(range(300), 60) + [7, 7]]
        session = Session(parse_model(doc), mode="mm", seed=0)
        assert not session._emits_reward
        answers = []
        run_session(session, 310, after_step=lambda s: answers.append(
            (s._reward_may_come(s.cycle), any(c >= s.cycle for c in s._scheduled))))
        assert [new for new, _ in answers] == [old for _, old in answers]
        assert {new for new, _ in answers} == {True, False}
        del doc["rewards"]
        assert not Session(parse_model(doc), mode="mm", seed=0)._reward_may_come(0)


    def test_a_buffer_holds_credit_only_for_its_unused_shadow_write(self):
        """Over a long run each buffer holds a credit exactly when its content
        is a chunk a shadow production wrote and the centre has not yet
        used, and the credit names that production and write time."""
        session = Session(load_model(demos.path("bottleneck")), mode="mm", seed=0)
        shadows = {s.name for s in session.systems}
        written, fired, used = {}, {}, set()  # chunk id -> (production, cycle)
        seen = 0

        def check(session):
            nonlocal seen
            for e in session.trace.events[seen:]:
                if e.kind == "shadow-fire":
                    fired[e.data["system"]] = e.data["production"]
                elif (e.kind == "wm-write" and e.data["writer"] in shadows
                      and "answers_query" not in e.data and e.data["content"]
                      and not e.data["content"].get("query")):
                    written[e.data["content"]["id"]] = (fired[e.data["writer"]], e.cycle)
                elif e.kind == "central-fire":
                    ids = [item["chunk"] for item in e.data["consumed"]]
                    assert used.isdisjoint(ids) and len(set(ids)) == len(ids)
                    used.update(ids)
            seen = len(session.trace.events)
            for buf in session.wm.buffers.values():
                key = getattr(buf.content, "id", None)
                expected = None
                if key in written and key not in used:
                    production, cycle = written[key]
                    expected = (production, session._cycle_time(cycle))
                assert buf.credit == expected

        run_session(session, 3000, after_step=check)
        assert used and len(session.systems) == 3

@st.composite
def rewarded_multi_step_docs(draw):
    doc = draw(multi_step_model_docs(0.0))
    doc["learning"] = {"time_cost": draw(st.sampled_from([0.3, 0.7, 1.3]))}
    doc["rewards"] = [{"cycle": cycle, "amount": amount} for cycle, amount in draw(
        st.lists(st.tuples(st.integers(0, 29), st.sampled_from([-2.0, 1.0, 3.5])),
                 min_size=1, max_size=6))]
    return doc


class TestCreditProperty:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(doc=rewarded_multi_step_docs())
    def test_a_reward_credits_used_shadow_writes_in_write_order(self, doc):
        """At each reward, the shadow utility updates follow the order of the
        wm-write events that wrote the chunks the centre used since the last
        reward, and each is discounted from its own write time."""
        model = parse_model(doc)
        trace = run(model, 30, mode="mm", seed=2)
        assert not trace.by_kind("prune")  # 1.5 s, under the provisional lifetime
        shadows = {s.name for s in model.shadow_systems}

        def seconds(cycle):
            return cycle * model.cycle_length_ms / 1000.0

        writes, used, reward = {}, [], None  # chunk id -> (position, cycle)
        for position, e in enumerate(trace.events):
            if e.kind == "wm-write" and e.data["writer"] in shadows and e.data["content"]:
                writes[e.data["content"]["id"]] = (position, e.cycle)
            elif e.kind == "central-fire":
                used += [(item["chunk"], item["system"], item["producer"])
                         for item in e.data["consumed"]]
            elif e.kind == "reward":
                reward = e
                expected = [(system, producer, writes[chunk][1])
                            for chunk, system, producer in sorted(
                                used, key=lambda item: writes[item[0]][0])]
                used = []
            elif e.kind == "utility-update" and e.data["owner"] != "central":
                system, producer, cycle = expected.pop(0)
                assert (e.cycle, e.data["owner"], e.data["production"]) == (
                    reward.cycle, system, producer)
                assert e.data["effective_reward"] == reward.data["amount"] - \
                    model.learning.time_cost * (seconds(reward.cycle) - seconds(cycle))
            elif e.kind not in ("utility-update", "reward") and reward is not None:
                assert expected == []  # every used write was credited


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

    def test_an_empty_middle_memory_builds_no_columns(self):
        """A pipeline run bypasses middle memory, so every broadcast answers
        from the buffers alone and the run never builds the columns."""
        session = Session(load_model(demos.path("bottleneck")), mode="pipeline", seed=0)
        for _ in range(50):
            session.step()
        assert not session.mm.entries and session.mm._filed is None

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

    def test_a_tag_routes_to_its_first_subscriber(self):
        doc = two_system_doc()
        doc["shadow_systems"][1]["subscriptions"].append("vision")
        trace = run(parse_model(doc), 10, mode="pipeline", seed=0)
        routed = {(e.data["writer"], e.data["buffer"]) for e in trace.by_kind("wm-write")
                  if e.data.get("route") == "pipeline"}
        assert routed == {("vision", "sight"), ("audio", "sound")}
        doc["shadow_systems"].reverse()
        trace = run(parse_model(doc), 10, mode="pipeline", seed=0)
        assert {e.data["buffer"] for e in trace.by_kind("wm-write")
                if e.data.get("route") == "pipeline"} == {"sound"}

    def test_unroutable_external_lines_are_errors(self):
        """An external line names its own tag, so validation cannot rule out
        a tag nobody subscribes to, and a vector-only line has no chunk to
        route; each costs an error event and the run goes on."""
        session = Session(load_model(demos.path("bottleneck")), mode="pipeline", seed=0)
        session.inbox.append(("peer", 0, json.dumps({
            "type": "prediction", "tag": "nobody",
            "chunk": {"isa": "percept", "slots": {"value": "x"}}}).encode()))
        session.inbox.append(("peer", 0, json.dumps({
            "type": "prediction", "tag": "vision",
            "vector": [1.0] + [0.0] * (session.book.dimension - 1)}).encode()))
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
        session.inbox.append(("peer", 0, json.dumps(
            {"type": "prediction", "tag": tag, **extra}).encode()))
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
        trace = multi_step_run()
        fires = [e.data["production"] for e in trace.by_kind("shadow-fire")]
        assert {"start", "advance", "again", "ask"} <= set(fires)
        replies = [e.data for e in trace.by_kind("wm-write") if "answers_query" in e.data]
        assert {r["entry"] is None for r in replies} == {True, False}  # answers and misses
        assert digest(trace) == pinned("runtime/multi-step")
        assert trace_to_bytes(multi_step_run([1, 0])) == trace_to_bytes(trace)

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_linked_facts_golden(self, noise):
        """Forgetting linked facts changes their neighbours' reach, so these
        runs pin spreading over a graph that loses edges as it runs."""
        trace = linked_facts_run(60, noise)
        assert sum(e.data["tag"] == "semantic" for e in trace.by_kind("forget")) >= 40
        assert digest(trace) == pinned(f"runtime/linked-facts/noise={noise}")

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_large_linked_facts_golden(self, noise):
        """300 linked facts: middle memory holds 77-315 entries at noise 0.0
        and falls from 250 to 1 at 0.3, so reads take the column path for part
        or all of the run (``memory.COLUMN_MIN_ENTRIES``)."""
        trace = linked_facts_run(300, noise)
        assert sum(e.data["tag"] == "semantic" for e in trace.by_kind("forget")) >= 200
        assert digest(trace) == pinned(f"runtime/large-linked-facts/noise={noise}")

    @pytest.mark.parametrize("mode", ["mm", "pipeline"])
    def test_emptying_golden(self, mode):
        """Reads switch from tables to the empty path when the last entry
        is forgotten, and in mm mode back again when a deposit refills it."""
        sizes = []
        trace = emptying_run(mode, after_step=lambda s: sizes.append(len(s.mm)))
        assert sizes[:20] == [6] * 10 + [5, 5, 4, 4, 3, 3, 2, 2, 1, 1]
        refill = [1, 1] if mode == "mm" else [0, 0]
        assert sizes[20:] == [0] * 10 + refill + [0] * 48
        assert digest(trace) == pinned(f"runtime/emptying/{mode}")

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
        table, tables = memory._Table, 0
        counts = count_base_levels(monkeypatch)

        def counting_table(*args, **kwargs):
            nonlocal tables
            tables += 1
            return table(*args, **kwargs)

        monkeypatch.setattr(memory, "_Table", counting_table)
        session.step()
        fires = [e.data["production"] for e in session.trace.by_kind("shadow-fire")]
        assert fires == ["start", "advance", "look"]
        assert len(session.mm) == 50
        assert (counts["evals"], tables) == (50, 3)

    def test_a_wordloop_cycle_builds_spreading_sources_at_most_twice(self, monkeypatch):
        """In steady state a wordloop cycle builds the spreading sources at
        most twice: a read finds them kept by working memory unless a write
        came after the last build.  Every other read (the sweep,
        formation, each retrieval) takes the kept tuple."""
        session = Session(load_model(demos.path("wordloop")), mode="mm", seed=0)
        for _ in range(30):
            session.step()
        sources, builds = memory.spread_sources, 0

        def counting_sources(wm):
            nonlocal builds
            builds += wm._sources is None
            return sources(wm)

        monkeypatch.setattr(memory, "spread_sources", counting_sources)
        for _ in range(40):
            builds = 0
            session.step()
            assert builds <= 2


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
