"""Run metrics, recomputable offline from a trace alone.

The central engine logs its per-cycle match-candidate count on every
central-fire or idle event, so the load comparison between pipeline and
middle-memory wiring falls straight out of the trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .trace import Trace


@dataclass
class RunMetrics:
    cycles: int
    central_candidates_per_cycle: list[int]
    central_candidates_mean: float
    central_candidates_max: int
    central_firings: int
    interrupt_latencies: list[int]
    mm_size_per_cycle: list[int]
    mm_size_final: int
    mm_size_max: int
    utility_trajectories: dict[str, list[list[float]]] = field(default_factory=dict)
    consumption_by_system: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            "central_candidates": {
                "mean": self.central_candidates_mean,
                "max": self.central_candidates_max,
                "per_cycle": self.central_candidates_per_cycle,
            },
            "central_firings": self.central_firings,
            "interrupt_latencies": self.interrupt_latencies,
            "mm_size": {
                "final": self.mm_size_final,
                "max": self.mm_size_max,
                "per_cycle": self.mm_size_per_cycle,
            },
            "utility_trajectories": self.utility_trajectories,
            "consumption_by_system": self.consumption_by_system,
        }


def metrics(trace: Trace) -> RunMetrics:
    """Summarize a trace; a pure function of its events."""
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

    mean = sum(candidates) / len(candidates) if candidates else 0.0
    return RunMetrics(
        cycles=len(candidates),
        central_candidates_per_cycle=candidates,
        central_candidates_mean=mean,
        central_candidates_max=max(candidates, default=0),
        central_firings=firings,
        interrupt_latencies=[lat for lat in latencies if lat is not None],
        mm_size_per_cycle=mm_sizes,
        mm_size_final=size,
        mm_size_max=max(mm_sizes, default=0),
        utility_trajectories=trajectories,
        consumption_by_system=consumption,
    )


def write_metrics(run_metrics: RunMetrics, path) -> None:
    Path(path).write_text(
        json.dumps(run_metrics.to_dict(), ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8")
