"""Checks on the benchmark itself: pinned traces, exact counts, a clean tracer.

    python3 -m pytest bench -q

Several tests run shortened copies of the workloads; the properties they
check (determinism, exact counts, traced bytes equal untraced bytes) do not
depend on run length.
"""

from __future__ import annotations

import dataclasses
import importlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layers import Tracer
from workloads import (HELD_OUT_SEED, PINNED, REFERENCE_SEED, WORKLOADS, Workload,
                       import_program, mm_scale_document)

BENCH = Path(__file__).resolve().parent


def short(name: str) -> Workload:
    workload = WORKLOADS[name]
    return dataclasses.replace(workload, warmup=min(workload.warmup, 20), cycles=40)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_seed_reproduces_pinned_hash(name):
    workload = WORKLOADS[name]
    rep = run.run_rep(workload, REFERENCE_SEED, reverse=True, report_passes=1)
    assert rep.digest == PINNED[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_are_exact_and_bytes_unchanged(name):
    workload = short(name)
    plain = run.run_rep(workload, HELD_OUT_SEED, report_passes=1)
    first_rep, first = run.traced_rep(workload, HELD_OUT_SEED)
    second_rep, second = run.traced_rep(workload, HELD_OUT_SEED)
    assert first["counts"] == second["counts"]
    assert first_rep.digest == second_rep.digest == plain.digest


def test_mm_scale_step_order_is_unobservable():
    workload = short("mm-scale")
    forward = run.run_rep(workload, HELD_OUT_SEED, report_passes=1)
    backward = run.run_rep(workload, HELD_OUT_SEED, reverse=True, report_passes=1)
    assert forward.digest == backward.digest


def test_tracer_restores_every_function():
    import_program()
    modules = [importlib.import_module(f"mmarch.{name}") for name in (
        "codec", "memory", "productions", "runtime", "shadows", "trace", "metrics")]
    before = [dict(vars(m)) for m in modules]
    methods = dict(vars(importlib.import_module("mmarch.memory").MiddleMemory))
    with Tracer():
        pass
    assert [dict(vars(m)) for m in modules] == before
    assert dict(vars(importlib.import_module("mmarch.memory").MiddleMemory)) == methods


def test_mm_scale_document_depends_only_on_seed():
    assert mm_scale_document(4, 50) == mm_scale_document(4, 50)
    assert mm_scale_document(4, 50) != mm_scale_document(5, 50)


def test_mm_scale_keeps_its_facts_and_exercises_every_path():
    """Facts are never forgotten or formed; cues are deposited, formed, forgotten."""
    workload = WORKLOADS["mm-scale"]
    session, _ = run.setup(workload, HELD_OUT_SEED)
    for _ in range(workload.cycles):
        session.step()
    facts = set(range(1, workload.size + 1))
    events = session.trace.events
    assert not [e for e in events if e.kind == "forget" and e.data["entry"] in facts]
    assert not [e for e in events if e.kind == "form" and e.data["owner"] == "declarative"]
    assert [e for e in events if e.kind == "forget"]
    assert [e for e in events if e.kind == "form"]
    assert [e for e in events if e.kind == "prune"]
    assert not [e for e in events if e.kind == "wm-write" and e.data.get("answers_query")
                and e.data["entry"] is None]  # every query found its fact


def test_run_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero silently."""
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mm-scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
