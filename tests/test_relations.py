"""Metamorphic relations: behaviour checked without a golden.

Seed: with ``noise`` 0 and no external predictor, nothing in a run draws
from the session seed, so the trace after its header line (which names the
seed) is the same at every seed.

Table kind: middle memory's per-entry tables and its column tables give the
same bits, so a run with ``COLUMN_MIN_ENTRIES`` at 0, where every table is
columns and every broadcast ranks by codes, writes the bytes of a run at the
default.

Shadow order: shadow systems decide on the state the cycle started from,
so stepping them in any order writes the same bytes.

Renaming: every tie between names is broken by name order, so a renaming
that keeps that order writes the same trace, renamed.  Appending ``!`` to
each name the model declares keeps it: ``!`` sorts below every symbol
character, so the map is strictly increasing over the declared names and
the names the program makes (``central``, ``?``, ``retrieval-failure``,
``query-id`` and ``retrieve-<id>``), which stay as they are.
"""

import itertools
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mmarch import demos, memory
from mmarch.errors import ModelValidationError
from mmarch.model import load_model, model_to_dict, parse_model
from mmarch.runtime import run
from mmarch.trace import trace_to_bytes

from pins import DEMO_RUNS, demo_run, mm_scale_document
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


def _same_at_every_table_kind(model, cycles, mode="mm", made=None):
    """``made`` is a run of ``model`` at the default cut-over that exists already."""
    default = trace_to_bytes(made or run(model, cycles, mode=mode, seed=7))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(memory, "COLUMN_MIN_ENTRIES", 0)
        assert trace_to_bytes(run(model, cycles, mode=mode, seed=7)) == default


@pytest.mark.parametrize("mode", ("mm", "pipeline"))
@pytest.mark.parametrize("name", demos.names())
def test_a_demo_does_not_depend_on_the_table_kind(name, mode):
    """A pinned run is read from :func:`pins.demo_run`, not made again."""
    model = load_model(demos.path(name))
    made = demo_run(name, 200, mode) if (name, 200, mode) in DEMO_RUNS else None
    _same_at_every_table_kind(model, 200, mode, made)


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=random_model_docs)
def test_a_generated_model_does_not_depend_on_the_table_kind(doc):
    try:
        model = parse_model(doc)
    except ModelValidationError:
        return
    _same_at_every_table_kind(model, 15)


@settings(max_examples=10, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_multi_step_model_does_not_depend_on_the_table_kind(data):
    noise = data.draw(st.sampled_from([0.0, 0.3]))
    _same_at_every_table_kind(parse_model(data.draw(multi_step_model_docs(noise))), 10)


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=random_model_docs)
def test_a_generated_model_does_not_depend_on_the_shadow_order(doc):
    """Every permutation of the model's one to three shadow systems."""
    try:
        model = parse_model(doc)
    except ModelValidationError:
        return
    first, *others = itertools.permutations(range(len(model.shadow_systems)))
    made = trace_to_bytes(run(model, 15, mode="mm", seed=0, shadow_step_order=list(first)))
    for order in others:
        assert trace_to_bytes(run(model, 15, mode="mm", seed=0,
                                  shadow_step_order=list(order))) == made


_MADE = re.compile(r"central|\?|retrieval-failure|query-id|retrieve-[0-9]+")


def _marked(value, key=None):
    """``value``, a canonical model document or part of one, with ``!``
    appended to every name it declares: every string but an action's or a
    predictor's ``kind`` and the names the program makes, and every slot
    name."""
    if isinstance(value, dict):
        if key == "slots":
            return {_marked(name): _marked(item) for name, item in value.items()}
        return {name: _marked(item, name) for name, item in value.items()}
    if isinstance(value, list):
        return [_marked(item, key) for item in value]
    if isinstance(value, str) and key != "kind" and not _MADE.fullmatch(value):
        return value + "!"
    return value


def _unmarked(value):
    """``value``, a parsed trace line, with one trailing ``!`` stripped from
    every string and key."""
    if isinstance(value, dict):
        return {_unmarked(name): _unmarked(item) for name, item in value.items()}
    if isinstance(value, list):
        return [_unmarked(item) for item in value]
    if isinstance(value, str) and value.endswith("!"):
        return value[:-1]
    return value


def _lines(trace):
    return [json.loads(line) for line in trace_to_bytes(trace).splitlines()]


@pytest.mark.parametrize("mode", ("mm", "pipeline"))
@pytest.mark.parametrize("name", [*demos.names(), "mm-scale"])
def test_an_order_preserving_renaming_renames_the_trace(name, mode):
    """Noiseless, for 150 cycles; ``mm-scale`` is ``mm_scale_document(3, 100)``."""
    doc = (mm_scale_document(3, 100) if name == "mm-scale"
           else json.loads(demos.path(name).read_text()))
    doc = model_to_dict(_noiseless(doc))
    renamed = {**_marked(doc), "name": doc["name"]}
    assert renamed != doc
    want = _lines(run(parse_model(doc), 150, mode=mode, seed=7))
    got = _lines(run(parse_model(renamed), 150, mode=mode, seed=7))
    assert got != want
    assert [_unmarked(line) for line in got] == want
