"""Run metrics recomputed from a trace."""

from collections import Counter

import pytest

from mmarch import demos
from mmarch.metrics import metrics
from mmarch.model import load_model
from mmarch.runtime import Session, run, run_session
from mmarch.trace import Trace


def _fire(trace, cycle, *chunks):
    trace.append(cycle, "central-fire", {
        "production": "p", "bindings": {}, "candidates": 1, "conflict": ["p"],
        "matched": [{"buffer": "b", "chunk": c} for c in chunks], "consumed": []})


def test_interrupt_latency_resolved_at_first_later_match():
    trace = Trace(seed=0, mode="mm", cycle_length_ms=50)
    for cycle, chunk in ((1, 10), (2, 11), (2, 12), (3, 13)):
        trace.append(cycle, "interrupt", {"system": "s", "buffer": "b", "chunk": chunk})
    _fire(trace, 3, 11, 13)  # 13 is matched in its own cycle: not a latency
    _fire(trace, 4, 10)      # 10 is consumed after 11, its later interrupt
    _fire(trace, 5, 10, 11)  # repeated matches change nothing
    _fire(trace, 6, 13)
    # 12 is never consumed
    assert metrics(trace)["interrupt_latencies"] == [3, 1, 3]


def test_interrupt_latency_on_threat():
    trace = run(load_model(demos.path("threat")), 30, mode="mm", seed=7)
    assert metrics(trace)["interrupt_latencies"] == [1]


@pytest.mark.parametrize("name", demos.names())
def test_mm_size_per_cycle_follows_middle_memory(name):
    sizes = []
    session = Session(load_model(demos.path(name)), mode="mm", seed=7)
    run_session(session, 120, after_step=lambda s: sizes.append(len(s.mm)))
    assert metrics(session.trace)["mm_size"]["per_cycle"][:len(sizes)] == sizes


@pytest.mark.parametrize("name", demos.names())
def test_consumption_by_system_counts_consumed_items(name):
    trace = run(load_model(demos.path(name)), 120, mode="mm", seed=7)
    counted = Counter(item["system"] for event in trace.by_kind("central-fire")
                      for item in event.data["consumed"])
    assert metrics(trace)["consumption_by_system"] == dict(counted)
