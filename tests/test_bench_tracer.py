"""The benchmark's tracer still fits the program.

``bench/layers.py`` wraps program functions by name while a run is traced.
Renaming one of them breaks the benchmark, so this test installs and removes
the tracer here, where the program's own suite notices.
"""

import importlib
from pathlib import Path

import numpy as np

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
