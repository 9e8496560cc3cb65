"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
and the measured load numbers.
"""

import math
import random
import time
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmarch import demos
from mmarch.chunks import ChunkFactory
from mmarch.codec import Codebook, bind, pack
from mmarch.errors import ModelValidationError
from mmarch.memory import MiddleMemory, WorkingMemory
from mmarch.metrics import metrics
from mmarch.model import load_model, parse_model
from mmarch.productions import UtilityLearner, Production
from mmarch.runtime import run
from mmarch.trace import trace_to_bytes

from pins import demo_run

DEMO_RUNS = [("threat", 200, "mm"), ("retrieval", 200, "mm"),
             ("wordloop", 200, "mm"), ("bottleneck", 500, "mm")]

# Load numbers for the bundled comparison workload, measured once on the
# first correct run and frozen (the runtime is deterministic).
PINNED_MEAN_CANDIDATES_MM = 2.988
PINNED_MEAN_CANDIDATES_PIPELINE = 751.494


def _report(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE {number}] {name}: PASS{suffix}")


def test_1_seriality_and_demo_runtime():
    """At most one central firing per cycle, on every bundled demo."""
    slowest = 0.0
    for name, cycles, mode in DEMO_RUNS:
        start = time.perf_counter()  # a fresh run, not the pinned one, since it is timed
        trace = run(load_model(demos.path(name)), cycles, mode=mode, seed=7)
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        assert elapsed < 5.0, f"{name} took {elapsed:.2f}s"
        per_cycle: dict[int, int] = {}
        for event in trace.by_kind("central-fire"):
            per_cycle[event.cycle] = per_cycle.get(event.cycle, 0) + 1
        violations = {c: n for c, n in per_cycle.items() if n > 1}
        assert violations == {}
        assert trace.events[-1].cycle >= cycles
    _report(1, "seriality over all demo traces",
            f"slowest demo {slowest:.2f}s")


def _random_model_doc(draw):
    n_systems = draw(st.integers(1, 3))
    buffers = [{"name": "goal", "owner": "central"}]
    systems = []
    for i in range(n_systems):
        buffers.append({"name": f"buf{i}", "owner": f"sys{i}"})
    buffer_names = [b["name"] for b in buffers]
    for i in range(n_systems):
        productions = []
        for j in range(draw(st.integers(0, 2))):
            target = draw(st.sampled_from(buffer_names))
            if draw(st.booleans()):
                condition = {"mm_tags": [f"tag{i}"],
                             "pattern": {"isa": "percept", "slots": {"value": "?"}}}
            else:
                condition = {"buffer": draw(st.sampled_from(buffer_names)),
                             "pattern": None}
            productions.append({
                "name": f"p{i}x{j}",
                "conditions": [condition],
                "actions": [{"kind": "write-buffer", "target": target,
                             "chunk": {"isa": "mark", "slots": {"by": f"sys{i}"}}}]})
        systems.append({"name": f"sys{i}", "buffer": f"buf{i}",
                        "subscriptions": [f"tag{i}"], "productions": productions})
    predictors = [{"name": f"net{i}", "kind": "associative", "tag": f"tag{i}",
                   "pairs": [["watch", f"sig{i}"]],
                   "emit_isa": "percept", "emit_slot": "value"}
                  for i in range(n_systems)]
    return {
        "name": "generated", "codebook": {"dimension": 64, "seed": 1},
        "buffers": buffers, "shadow_systems": systems,
        "central_productions": [], "predictors": predictors,
        "initial_wm": [{"buffer": "goal",
                        "chunk": {"isa": "goal", "slots": {"state": "watch"}}}],
    }


random_model_docs = st.composite(_random_model_doc)()


@settings(max_examples=500, deadline=None, derandomize=True)
@given(doc=random_model_docs)
def test_2_write_one_rule_property(doc):
    """Foreign shadow writes are rejected statically; accepted models never
    produce one at runtime."""
    expects_foreign = any(
        action["target"] != system["buffer"]
        for system in doc["shadow_systems"]
        for production in system["productions"]
        for action in production["actions"])
    if expects_foreign:
        with pytest.raises(ModelValidationError) as err:
            parse_model(doc)
        assert any("may write only its own buffer" in message
                   for _, message in err.value.violations)
        return
    model = parse_model(doc)
    trace = run(model, 3, mode="mm", seed=0)
    owned = {s.name: s.buffer for s in model.shadow_systems}
    for event in trace.by_kind("wm-write"):
        writer = event.data["writer"]
        if writer in owned:
            assert event.data["buffer"] == owned[writer]


def test_2_write_one_rule_report():
    _report(2, "write-one rule over 500 generated models")


def test_3_activation_math():
    factory = ChunkFactory()
    wm = WorkingMemory()
    mm = MiddleMemory(decay=0.5)
    entry_id, _ = mm.deposit(1.0, "t", chunk=factory.make("a"))
    entry = mm.entry(entry_id)
    entry.presentations[:] = array("d", [1.0, 3.0])  # lags 4 s and 2 s at now=5
    assert mm.activation(entry, wm, 5.0) == pytest.approx(0.18823, abs=1e-5)

    rng = random.Random(123)
    for _ in range(1000):
        mm = MiddleMemory(decay=rng.uniform(0.1, 0.9))
        entry_id, _ = mm.deposit(0.0, "t", chunk=factory.make("a"))
        entry = mm.entry(entry_id)
        entry.presentations[:] = array("d", sorted(rng.uniform(0.0, 50.0)
                                                   for _ in range(rng.randint(1, 8))))
        now = entry.presentations[-1] + rng.uniform(0.01, 20.0)
        before = mm.base_level(entry, now)
        entry.presentations.append(
            entry.presentations[-1] + (now - entry.presentations[-1]) / 2)
        assert mm.base_level(entry, now) > before
        entry.presentations.pop()
        assert mm.base_level(entry, now + rng.uniform(0.01, 20.0)) < before
    _report(3, "base-level value and monotonicity over 1000 cases")


def test_4_utility_learning_and_credit_soundness():
    rng = random.Random(7)
    for _ in range(20):
        alpha = rng.uniform(0.05, 1.0)
        reward = rng.uniform(-10.0, 10.0)
        learner = UtilityLearner(alpha=alpha)
        production = Production(name="p", owner="central",
                                conditions=(), actions=())
        for n in range(1, 31):
            learner.record_fire(production, 0.0)
            learner.apply_reward(reward, 0.0, lambda owner, name: None)
            closed_form = reward * (1.0 - (1.0 - alpha) ** n)
            assert production.utility == pytest.approx(closed_form, abs=1e-9)

    for name, cycles, mode in DEMO_RUNS:
        trace = demo_run(name, cycles, mode)  # the pinned run, not made again
        consumed_window: set[str] = set()
        window: set[str] = set()
        for event in trace.events:
            if event.kind == "central-fire":
                for item in event.data["consumed"]:
                    consumed_window.add(item["producer"])
            elif event.kind == "reward":
                window, consumed_window = consumed_window, set()
            elif event.kind == "utility-update" and event.data["owner"] != "central":
                assert event.data["production"] in window, (
                    f"{name}: shadow {event.data['production']} credited "
                    "without a consumed contribution")
    _report(4, "closed-form utility learning and shadow credit soundness")


def test_5_interrupt_latency_exactly_one_cycle():
    model = load_model(demos.path("threat"))
    seeds = random.Random(99).sample(range(10 ** 6), 50)
    for seed in seeds:
        trace = run(model, 30, mode="mm", seed=seed)
        interrupts = trace.by_kind("interrupt")
        assert len(interrupts) == 1
        cycle = interrupts[0].cycle
        chunk = interrupts[0].data["chunk"]
        matches = [e.cycle for e in trace.by_kind("central-fire")
                   if any(m["chunk"] == chunk for m in e.data["matched"])]
        assert matches and min(matches) == cycle + 1
    _report(5, "interrupt latency exactly 1 cycle across 50 seeds")


def test_6_pipeline_load_exceeds_mm_load():
    mm_mean = metrics(demo_run("bottleneck", 500, "mm"))["central_candidates"]["mean"]
    pipeline_mean = metrics(
        demo_run("bottleneck", 500, "pipeline"))["central_candidates"]["mean"]
    assert pipeline_mean > mm_mean
    assert mm_mean == pytest.approx(PINNED_MEAN_CANDIDATES_MM, abs=1e-9)
    assert pipeline_mean == pytest.approx(PINNED_MEAN_CANDIDATES_PIPELINE, abs=1e-9)
    _report(6, "serial-bottleneck load comparison",
            f"pipeline {pipeline_mean:.3f} vs mm {mm_mean:.3f}, "
            f"ratio {pipeline_mean / mm_mean:.1f}x")


def test_7_codec_fidelity():
    vocab = [f"s{i:03d}" for i in range(100)]
    book = Codebook(dimension=1024, seed=7)
    atoms = np.stack([book.atom(name) for name in vocab])
    factory = ChunkFactory()
    rng = np.random.default_rng(0)

    def decode(v, slot):
        # v . bind(role, atom) for every atom at once: correlate v with the
        # role, then dot the result with each atom.
        role = book.role(slot)
        correlated = np.fft.irfft(np.conj(np.fft.rfft(role)) * np.fft.rfft(v), n=v.shape[0])
        return vocab[int(np.argmax(atoms @ correlated))]

    recovered = total = 0
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        names = [str(x) for x in rng.choice(vocab, size=k, replace=False)]
        values = [str(x) for x in rng.choice(vocab, size=k)]
        ctype = str(rng.choice(vocab))
        packed = pack(factory.make(ctype, list(zip(names, values))), book)
        total += 1 + k
        recovered += int(decode(packed, "isa") == ctype)
        recovered += sum(int(decode(packed, n) == v) for n, v in zip(names, values))
    accuracy = recovered / total
    assert accuracy >= 0.99
    assert accuracy == 1.0  # pinned calibration value

    # Binding by a unitary atom preserves dot products, which is what
    # makes every filler recoverable from its role.
    worst = 0.0
    for _ in range(1000):
        a, b, c = (book.atom(str(x)) for x in rng.choice(vocab, size=3, replace=False))
        worst = max(worst, abs(np.dot(bind(a, b), bind(a, c)) - np.dot(b, c)))
    assert worst <= 1e-9
    _report(7, "codec round-trip and adjoint fidelity",
            f"accuracy {accuracy:.4f}, worst adjoint deviation {worst:.1e}")


def test_8_byte_identical_determinism():
    model = load_model(demos.path("bottleneck"))
    for mode in ("mm", "pipeline"):
        first = trace_to_bytes(run(model, 100, mode=mode, seed=5))
        again = trace_to_bytes(run(model, 100, mode=mode, seed=5))
        assert first == again
        for order in ([2, 1, 0], [1, 2, 0]):
            permuted = trace_to_bytes(
                run(model, 100, mode=mode, seed=5, shadow_step_order=order))
            assert permuted == first
    _report(8, "byte-identical traces across reruns and step-order permutations")


def _formation_doc(with_reward: bool) -> dict:
    doc = {
        "name": "formation", "codebook": {"dimension": 64, "seed": 2},
        "learning": {"rate": 0.2, "time_cost": 0.0, "provisional_ttl_s": 1.0},
        "buffers": [
            {"name": "goal", "owner": "central"},
            {"name": "recall", "owner": "recall"},
        ],
        "shadow_systems": [
            {"name": "recall", "buffer": "recall",
             "subscriptions": ["seed"], "productions": []},
        ],
        "central_productions": [
            {"name": "use-it",
             "conditions": [
                {"buffer": "recall", "pattern": {"isa": "fact", "slots": {"about": "?"}}},
                {"buffer": "goal", "pattern": {"isa": "goal", "slots": {"state": "done"}},
                 "negated": True}],
             "actions": [{"kind": "write-buffer", "target": "goal",
                          "chunk": {"isa": "goal", "slots": {"state": "done"}}}]},
        ],
        "predictors": [],
        "initial_mm": [
            {"tag": "seed", "chunk": {"isa": "fact", "slots": {"about": "water"}},
             "presentations": [-0.5, -0.45, -0.4, -0.35, -0.3,
                               -0.25, -0.2, -0.15, -0.1, -0.05]},
        ],
    }
    if with_reward:
        doc["rewards"] = [{"cycle": 2, "amount": 10.0}]
    return doc


def test_9_production_formation_lifecycle():
    rewarded = run(parse_model(_formation_doc(True)), 30, mode="mm", seed=0)
    forms = rewarded.by_kind("form")
    assert forms and forms[0].cycle == 0
    name = forms[0].data["production"]
    promotions = [e for e in rewarded.by_kind("utility-update")
                  if e.data["production"] == name]
    assert promotions and promotions[0].data["made_permanent"]
    assert promotions[0].cycle == 2
    assert promotions[0].data["new"] == pytest.approx(2.0)
    assert not any(e.data["production"] == name
                   for e in rewarded.by_kind("prune"))

    control = run(parse_model(_formation_doc(False)), 30, mode="mm", seed=0)
    control_forms = control.by_kind("form")
    assert control_forms and control_forms[0].cycle == 0
    prunes = [e for e in control.by_kind("prune")
              if e.data["production"] == control_forms[0].data["production"]]
    assert prunes and prunes[0].cycle == 21  # first cycle past the 1 s ttl
    assert not any(e.data.get("made_permanent")
                   for e in control.by_kind("utility-update"))
    _report(9, "provisional retrieval production forms, earns permanence, "
               "and prunes without reward")
