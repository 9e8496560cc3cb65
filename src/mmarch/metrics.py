"""Run metrics, recomputable offline from a trace alone.

The central engine logs its per-cycle match-candidate count on every
central-fire or idle event, so the load comparison between pipeline and
middle-memory wiring falls straight out of the trace.
"""

from __future__ import annotations

import json
from pathlib import Path

from .trace import Trace


def metrics(trace: Trace) -> dict:
    """Summarize a trace as the document ``--metrics`` writes; a pure
    function of its events."""
    candidates: list[int] = []
    firings = 0
    latencies: list[int | None] = []  # per interrupt, None until matched
    waiting: dict[int, list[tuple[int, int]]] = {}  # chunk id -> [(index, cycle)]
    mm_sizes: list[int] = []
    size = 0
    per_cycle_size: dict[int, int] = {}
    trajectories: dict[str, list[list[float]]] = {}
    consumption: dict[str, int] = {}

    for event in trace.events:
        kind = event.kind
        data = event.data
        if kind in ("central-fire", "idle"):
            candidates.append(data["candidates"])
        if kind == "central-fire":
            firings += 1
            for item in data.get("matched", []):
                for index, cycle in waiting.pop(item["chunk"], []):
                    if cycle < event.cycle:
                        latencies[index] = event.cycle - cycle
                    else:  # a match in the interrupt's own cycle does not count
                        waiting.setdefault(item["chunk"], []).append((index, cycle))
            for item in data.get("consumed", []):
                consumption[item["system"]] = consumption.get(item["system"], 0) + 1
        elif kind == "interrupt":
            waiting.setdefault(data["chunk"], []).append((len(latencies), event.cycle))
            latencies.append(None)
        elif kind == "deposit":
            if data["new"]:
                size += 1
        elif kind == "forget":
            size -= 1
        elif kind == "utility-update":
            key = f"{data['owner']}/{data['production']}"
            trajectories.setdefault(key, []).append([float(event.cycle), data["new"]])
        per_cycle_size[event.cycle] = size

    if per_cycle_size:
        last = 0
        for cycle in range(max(per_cycle_size) + 1):
            last = per_cycle_size.get(cycle, last)
            mm_sizes.append(last)

    return {
        "cycles": len(candidates),
        "central_candidates": {
            "mean": sum(candidates) / len(candidates) if candidates else 0.0,
            "max": max(candidates, default=0),
            "per_cycle": candidates,
        },
        "central_firings": firings,
        "interrupt_latencies": [lat for lat in latencies if lat is not None],
        "mm_size": {
            "final": size,
            "max": max(mm_sizes, default=0),
            "per_cycle": mm_sizes,
        },
        "utility_trajectories": trajectories,
        "consumption_by_system": consumption,
    }


def write_metrics(report: dict, path) -> None:
    Path(path).write_text(json.dumps(report, ensure_ascii=False, indent=2) + "\n",
                          encoding="utf-8")
