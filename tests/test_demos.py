"""Bundled demo models: structure, pinned golden traces, key behaviors."""

import hashlib
import json

import pytest

from mmarch import demos
from mmarch.metrics import metrics, write_metrics
from mmarch.model import dumps_model, load_model, parse_model
from mmarch.runtime import run
from mmarch.trace import trace_to_bytes

# SHA-256 of the canonical trace bytes, pinned from the first correct runs.
GOLDEN = {
    ("threat", 200, "mm"):
        "7e34ba36dc5f2800d6c23f1efa88791321c53fa7e7931f180ea65a5771e1d0e6",
    ("retrieval", 200, "mm"):
        "a1d6a5970629cd761ecd16325f52cb6be0c5a3f5fb0e83fd9dcf541e199c0c36",
    ("wordloop", 200, "mm"):
        "f5720538135edd9fbfa19514372a8d835792c79a21b29100a6a86a4db3237611",
    ("bottleneck", 500, "mm"):
        "5bc098519e362fefd9034e8a816194aabb772e7ddc02482e80bcfd6e3a8e97df",
    ("bottleneck", 500, "pipeline"):
        "0663588d80736f8d7648bea587676b005d02bdfb0d53fbda17d99a463e1d805f",
}

# SHA-256 of the ``write_metrics`` file of each GOLDEN run.
GOLDEN_METRICS = {
    ("threat", 200, "mm"):
        "d877759685a288b28145fe08704adf39ec158c64ff95a7f3ad7a3a3e694ec6e5",
    ("retrieval", 200, "mm"):
        "2525606283db2da8a8aab0e77176dddd08ed45dfe06b7338974f391410792717",
    ("wordloop", 200, "mm"):
        "a50d203954d5863cd888b373d056441253092ac3be569be87528068ca888a1d1",
    ("bottleneck", 500, "mm"):
        "b7b5ef9a3603096e5ab12328bca6fd4a76119a821c2c61673bdde881468e1d16",
    ("bottleneck", 500, "pipeline"):
        "f62f7877c73ae76b94071641c6bfb38ba232d31a136f189521d260ddad3ff53c",
}


# SHA-256 of each bundled demo's canonical model bytes (``dumps_model``).
CANONICAL = {
    "bottleneck": "bcac32bb5457059f81c509fda3ff9694ef378f3dc36e6d51985a73d89049f4fd",
    "retrieval": "66722d45f4a86a3e9c0b63371ecc21fafb414cc64ed029b8912f30a955364b70",
    "threat": "cbabb844135417e17e80649483b5a48c4ae9dc9486f66ea78464dd0a2afe9387",
    "wordloop": "f3d1740fdb7846bcd665510d7e3d6e4bafd742918ce4b8a20be5008ce7e4bf55",
}


def _trace(name, cycles, mode):
    return run(load_model(demos.path(name)), cycles, mode=mode, seed=7)


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


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_canonical_model_bytes(name):
    text = dumps_model(load_model(demos.path(name)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CANONICAL[name]


def test_threat_demo_shape():
    model = load_model(demos.path("threat"))
    assert len(model.shadow_systems) == 1
    assert model.shadow_systems[0].name == "emotion"
    assert len(model.central_productions) == 4


@pytest.mark.parametrize("name,cycles,mode", sorted(GOLDEN))
def test_golden_traces(name, cycles, mode):
    trace = _trace(name, cycles, mode)
    digest = hashlib.sha256(trace_to_bytes(trace)).hexdigest()
    assert digest == GOLDEN[(name, cycles, mode)]


@pytest.mark.parametrize("name,cycles,mode", sorted(GOLDEN_METRICS))
def test_golden_metrics_files(name, cycles, mode, tmp_path):
    path = tmp_path / "metrics.json"
    write_metrics(metrics(_trace(name, cycles, mode)), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_METRICS[(name, cycles, mode)]


# SHA-256 of the retrieval demo's trace with ``noise: 0.3``: pins the noise
# draws, one per entry per activation table.
NOISY_RETRIEVAL = "90b43893608d08bd85a8a0c09a9036cafc6f44f8a038b0d758cd2ad0d5c28b03"


def test_noisy_retrieval_trace():
    doc = json.loads(demos.path("retrieval").read_text())
    doc["middle_memory"]["noise"] = 0.3
    trace = run(parse_model(doc), 200, mode="mm", seed=7)
    assert trace.by_kind("forget")
    assert hashlib.sha256(trace_to_bytes(trace)).hexdigest() == NOISY_RETRIEVAL


def test_threat_trace_story():
    trace = _trace("threat", 200, "mm")
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
    trace = _trace("retrieval", 200, "mm")
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
    trace = _trace("wordloop", 200, "mm")
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
    mm_mean = metrics(_trace("bottleneck", 500, "mm"))["central_candidates"]["mean"]
    pipeline_mean = metrics(
        _trace("bottleneck", 500, "pipeline"))["central_candidates"]["mean"]
    assert pipeline_mean > mm_mean
