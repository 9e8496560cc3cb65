"""Bundled demo models: structure, pinned golden traces, key behaviors."""

import pytest

from mmarch import demos
from mmarch.metrics import metrics
from mmarch.model import load_model
from pins import (DEMO_RUNS, canonical_model, demo_metrics_file, demo_run, digest,
                  noisy_retrieval_run, pinned)


def test_every_demo_validates():
    for name in demos.names():
        load_model(demos.path(name))


def test_demo_models_round_trip(tmp_path):
    from mmarch.model import write_model
    for name in demos.names():
        model = load_model(demos.path(name))
        path = tmp_path / f"{name}.json"
        write_model(model, path)
        assert load_model(path) == model


@pytest.mark.parametrize("name", demos.names())
def test_canonical_model_bytes(name):
    assert digest(canonical_model(name)) == pinned(f"model/{name}/canonical")


def test_threat_demo_shape():
    model = load_model(demos.path("threat"))
    assert len(model.shadow_systems) == 1
    assert model.shadow_systems[0].name == "emotion"
    assert len(model.central_productions) == 4


@pytest.mark.parametrize("name,cycles,mode", DEMO_RUNS)
def test_golden_traces(name, cycles, mode):
    trace = demo_run(name, cycles, mode)
    assert digest(trace) == pinned(f"demo/{name}/{cycles}/{mode}/trace")


@pytest.mark.parametrize("name,cycles,mode", DEMO_RUNS)
def test_golden_metrics_files(name, cycles, mode):
    data = demo_metrics_file(name, cycles, mode)
    assert digest(data) == pinned(f"demo/{name}/{cycles}/{mode}/metrics")


def test_noisy_retrieval_trace():
    trace = noisy_retrieval_run()
    assert trace.by_kind("forget")
    assert digest(trace) == pinned("demo/retrieval/200/mm/noise=0.3/trace")


def test_threat_trace_story():
    trace = demo_run("threat", 200, "mm")
    fires = [e for e in trace.events if e.kind == "central-fire"]
    assert [e.data["production"] for e in fires] == [
        "walk-to-trailhead", "walk-to-ridge", "walk-to-campsite", "flee-threat"]
    interrupts = trace.by_kind("interrupt")
    assert len(interrupts) == 1
    assert fires[-1].cycle == interrupts[0].cycle + 1
    # the emotion system's deposit was consumed and credited
    updates = [e for e in trace.by_kind("utility-update")
               if e.data["production"] == "raise-alarm"]
    assert updates and updates[0].data["new"] == pytest.approx(2.0)
    # decay eventually forgets the unrefreshed percept
    assert trace.by_kind("forget")


def test_retrieval_trace_story():
    trace = demo_run("retrieval", 200, "mm")
    fires = [e.data["production"] for e in trace.events
             if e.kind == "central-fire"]
    assert fires == ["ask-for-labrador", "report-labrador",
                     "ask-for-poodle", "accept-miss"]
    answers = [e for e in trace.by_kind("wm-write")
               if e.data.get("answers_query") is not None]
    assert len(answers) == 2
    completed, failed = answers
    assert completed.data["content"]["slots"] == \
        {"name": "Fido", "breed": "labrador"}  # higher-activation labrador wins
    assert failed.data["content"]["isa"] == "retrieval-failure"
    # Buddy then Rex decay past the forgetting floor
    assert len(trace.by_kind("forget")) == 2


def test_wordloop_trace_story():
    trace = demo_run("wordloop", 200, "mm")
    deposits = [e.data["content"]["slots"]["value"]
                for e in trace.by_kind("deposit")]
    assert set(deposits) == {"the", "lazy", "dog"}
    # spreading-shaped but deterministic next-word walk
    assert deposits[:4] == ["lazy", "dog", "dog", "the"]
    assert all(deposits.count(w) > 20 for w in ("the", "lazy", "dog"))
    formed = [e.data for e in trace.by_kind("form")]
    assert len(formed) == 3 and all(f["owner"] == "language" for f in formed)
    # scheduled rewards keep pushing the attender's utility toward 5
    updates = [e for e in trace.by_kind("utility-update")
               if e.data["production"] == "attend-word"]
    assert updates and abs(updates[-1].data["new"] - 5.0) < 1e-6


def test_bottleneck_demo_direction():
    mm_mean = metrics(demo_run("bottleneck", 500, "mm"))["central_candidates"]["mean"]
    pipeline_mean = metrics(
        demo_run("bottleneck", 500, "pipeline"))["central_candidates"]["mean"]
    assert pipeline_mean > mm_mean
