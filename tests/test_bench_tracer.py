"""The benchmark's tracer still fits the program.

``bench/layers.py`` wraps program functions by name while a run is traced,
and its hooks read those functions' arguments and results.  Renaming one of
them, or changing what a hook reads, breaks the benchmark, so these tests
install the tracer here, where the program's own suite notices.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from mmarch import demos
from mmarch.model import load_model
from mmarch.runtime import run
from mmarch.trace import trace_to_bytes

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("chunks", "codec", "memory", "metrics", "model", "predictors",
           "productions", "runtime", "shadows", "trace")
CLASSES = (("memory", "MiddleMemory"), ("runtime", "Session"), ("trace", "Trace"),
           ("predictors", "NgramPredictor"), ("predictors", "AssociativePredictor"))


def _state():
    modules = [importlib.import_module(f"mmarch.{name}") for name in MODULES]
    return ([dict(vars(m)) for m in modules],
            [dict(vars(getattr(importlib.import_module(f"mmarch.{m}"), c)))
             for m, c in CLASSES],
            (np.fft.rfft, np.fft.irfft))


def test_tracer_wraps_and_restores_every_function(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from layers import Tracer

    from mmarch import memory

    before = _state()
    retrievable, context_vector = memory.MiddleMemory.retrievable, memory.context_vector
    with Tracer():
        assert memory.MiddleMemory.retrievable is not retrievable
        assert memory.context_vector is not context_vector
    assert _state() == before


@pytest.mark.parametrize("name, mode, counters", [
    ("threat", "mm", ("memory.base_level.terms", "memory.retrieve.scanned",
                      "productions.tested", "shadows.decide.")),
    ("bottleneck", "pipeline", ("productions.tested", "chunks.match_query")),
])
def test_traced_run_is_unchanged_and_counted(monkeypatch, name, mode, counters):
    monkeypatch.syspath_prepend(str(BENCH))
    from layers import Tracer

    model = load_model(demos.path(name))
    untraced = trace_to_bytes(run(model, 30, mode=mode, seed=7))
    with Tracer() as tracer:
        traced = trace_to_bytes(run(model, 30, mode=mode, seed=7))
    assert traced == untraced
    for counter in counters:
        assert sum(n for key, n in tracer.counts.items() if key.startswith(counter)) > 0, counter
    # the broadcast runs every cycle; a span it no longer calls through reads 0
    assert tracer.calls["memory.context"] > 0


def test_each_decision_fires_once(monkeypatch):
    """Every fired production is one ``shadow-fire`` or ``central-fire``
    event, also for shadows that run several steps a cycle."""
    monkeypatch.syspath_prepend(str(BENCH))
    from layers import Tracer
    from pins import multi_step_doc

    from mmarch.model import parse_model

    model = parse_model(multi_step_doc())
    untraced = trace_to_bytes(run(model, 20, mode="mm", seed=3))
    with Tracer() as tracer:
        trace = run(model, 20, mode="mm", seed=3)
    assert trace_to_bytes(trace) == untraced
    fired = len(trace.by_kind("shadow-fire")) + len(trace.by_kind("central-fire"))
    assert tracer.calls["productions.fire"] == fired
