"""Metamorphic relations: behaviour checked without a golden.

Seed: with ``noise`` 0 and no external predictor, nothing in a run draws
from the session seed, so the trace after its header line (which names the
seed) is the same at every seed.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mmarch import demos
from mmarch.errors import ModelValidationError
from mmarch.model import load_model, parse_model
from mmarch.runtime import run
from mmarch.trace import trace_to_bytes

from pins import DEMO_RUNS, demo_run
from test_acceptance import random_model_docs
from test_runtime import multi_step_model_docs

SEEDS = (0, 1, 7)


def _noiseless(doc):
    doc.setdefault("middle_memory", {})["noise"] = 0.0
    model = parse_model(doc)
    assert all(p.kind != "external" for p in model.predictors)
    return model


def _same_after_the_header(model, cycles, mode="mm", made=()):
    """``made`` maps a seed to a run of ``model`` that exists already."""
    bodies = set()
    for seed in SEEDS:
        trace = made[seed] if seed in made else run(model, cycles, mode=mode, seed=seed)
        header, body = trace_to_bytes(trace).split(b"\n", 1)
        assert f'"seed":{seed},'.encode() in header
        bodies.add(body)
    assert len(bodies) == 1


@pytest.mark.parametrize("mode", ("mm", "pipeline"))
@pytest.mark.parametrize("name", demos.names())
def test_a_noiseless_demo_does_not_depend_on_the_seed(name, mode):
    """A pinned seed-7 run of a demo that is noiseless as bundled is read
    from :func:`pins.demo_run`, not made again."""
    model = _noiseless(json.loads(demos.path(name).read_text()))
    made = {}
    if (name, 200, mode) in DEMO_RUNS and model == load_model(demos.path(name)):
        made[7] = demo_run(name, 200, mode)
    _same_after_the_header(model, 200, mode, made)


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=random_model_docs)
def test_a_noiseless_generated_model_does_not_depend_on_the_seed(doc):
    try:
        model = _noiseless(doc)
    except ModelValidationError:
        return
    _same_after_the_header(model, 15)


@settings(max_examples=10, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_noiseless_multi_step_model_does_not_depend_on_the_seed(data):
    _same_after_the_header(_noiseless(data.draw(multi_step_model_docs(0.0))), 10)
