"""Every cell of the differential manifest reproduces its pinned trace bytes,
and its trace keeps the learner's rules."""

import pytest

from mmarch.memory import CENTRAL
from pins import cells, digest, pinned


def learner_faults(model, trace) -> list[str]:
    """Each break of the engine's seriality or the learner's chain in a trace.

    At most one ``central-fire`` or ``idle`` event per cycle; each
    ``utility-update``'s ``old`` is the ``new`` of that production's last
    update, or its declared utility, or 0.0 after it was formed; and only a
    positive effective reward makes a production permanent.
    """
    utility = {(CENTRAL, p.name): p.utility for p in model.central_productions}
    utility.update(((s.name, p.name), p.utility)
                   for s in model.shadow_systems for p in s.productions)
    engine_cycles = set()
    faults = []
    for event in trace.events:
        data = event.data
        if event.kind in ("central-fire", "idle"):
            if event.cycle in engine_cycles:
                faults.append(f"cycle {event.cycle}: a second central-fire/idle")
            engine_cycles.add(event.cycle)
        elif event.kind == "form":
            utility[data["owner"], data["production"]] = 0.0
        elif event.kind == "utility-update":
            key = (data["owner"], data["production"])
            if utility.get(key) != data["old"]:
                faults.append(f"event {event.seq}: {key} old {data['old']!r}, "
                              f"expected {utility.get(key)!r}")
            utility[key] = data["new"]
            if data["made_permanent"] and not data["effective_reward"] > 0.0:
                faults.append(f"event {event.seq}: {key} made permanent by "
                              f"{data['effective_reward']!r}")
    return faults


@pytest.fixture(scope="module")
def checked() -> dict[str, tuple[str, list[str], int]]:
    """Cell name -> (digest, learner faults, utility updates), from one run."""
    out = {}
    for name, cell in cells().items():
        model, trace = cell()
        out[name] = (digest(trace), learner_faults(model, trace),
                     len(trace.by_kind("utility-update")))
    return out


def test_every_cell_matches_the_manifest(checked):
    differing = [name for name in sorted(checked)
                 if checked[name][0] != pinned(f"differential/{name}")]
    assert differing == []


def test_every_cell_keeps_the_learners_rules(checked):
    faults = {name: found for name, (_, found, _) in checked.items() if found}
    assert faults == {}
    assert sum(updates for _, _, updates in checked.values()) > 0
