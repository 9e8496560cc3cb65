"""The in-process A/B tool: its schedule, its statistics and its digest check.

No test here reads a real clock's value: timings come from an injected
clock that each step of a session advances by a planted cost.
"""

import importlib.util
import shutil
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["ab"] = module
    spec.loader.exec_module(module)
    return module


ab = _load_ab()


@pytest.fixture(scope="module")
def trees():
    """This checkout as both trees."""
    return ab.load_trees(ROOT, ROOT)


class Clock:
    """Time that only a planted step cost advances."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def plant(monkeypatch, trees, cost):
    """Make each step of a session advance ``clock`` by ``cost(tree, built)``,
    where ``built`` counts the sessions built before it; return the clock and
    the list of trees in the order their steps ran."""
    clock, built, stepped = Clock(), [0], []
    for tree, copies in trees.items():
        for package in copies:
            session = package.runtime.Session
            init, step = session.__init__, session.step

            def planted_init(self, *args, init=init, **kwargs):
                init(self, *args, **kwargs)
                self.built = built[0]
                built[0] += 1

            def planted_step(self, step=step, tree=tree):
                clock.now += cost(tree, self.built)
                stepped.append(tree)
                return step(self)

            monkeypatch.setattr(session, "__init__", planted_init)
            monkeypatch.setattr(session, "step", planted_step)
    return clock, stepped


def test_a_constant_slowdown_gives_exact_ratios_and_interval(monkeypatch, trees):
    clock, _ = plant(monkeypatch, trees, lambda tree, _: 21 if tree == "change" else 20)
    report = ab.compare(trees, "bottleneck-pipeline", 3, rounds=2, block=5, cycles=20,
                        clock=clock)
    assert report.ratios == [1.05] * 8
    assert ab.bootstrap_median(report.ratios) == (1.05, 1.05)
    assert report.equal


def test_alternating_build_order_cancels_a_build_order_cost(monkeypatch, trees):
    """The session built first in a round steps 3% dearer.  An A/A with the
    build order alternating reads about 1.0, where a fixed order would read
    100/103 throughout; a 5% slowdown of the change is still detected."""
    clock, _ = plant(monkeypatch, trees,
                     lambda tree, built: 100 + 3 * (built % 2 == 0))
    same = ab.compare(trees, "bottleneck-pipeline", 3, rounds=4, block=5, cycles=20,
                      clock=clock)
    assert sorted(set(same.ratios)) == [100 / 103, 103 / 100]
    low, high = ab.bootstrap_median(same.ratios)
    assert low < 1.0 < high
    assert statistics.median(same.ratios) == pytest.approx(1.0, abs=0.002)

    clock, _ = plant(monkeypatch, trees,
                     lambda tree, built: 100 + 5 * (tree == "change") + 3 * (built % 2 == 0))
    slower = ab.compare(trees, "bottleneck-pipeline", 3, rounds=4, block=5, cycles=20,
                        clock=clock)
    assert ab.bootstrap_median(slower.ratios)[0] > 1.0
    assert statistics.median(slower.ratios) == pytest.approx(1.05, abs=0.003)
    assert all(ratio > 1.0 for ratio in slower.ratios)


def test_the_tree_stepped_first_alternates_from_pair_to_pair(monkeypatch, trees):
    clock, stepped = plant(monkeypatch, trees, lambda tree, built: 1)
    warmup = ab.workloads.WORKLOADS["bottleneck-pipeline"].warmup
    ab.compare(trees, "bottleneck-pipeline", 3, rounds=2, block=3, cycles=12, clock=clock)
    warm = ["base"] * warmup + ["change"] * warmup
    first_round = ["base", "change", "change", "base"] * 2
    assert stepped[:2 * warmup] == warm
    assert stepped[2 * warmup:2 * warmup + 24:3] == first_round
    assert stepped[2 * warmup + 24:4 * warmup + 24] == warm[::-1]


def test_setup_times_each_build_after_a_gc_collect(monkeypatch, trees):
    """With ``setup`` a round's one pair is the change's build over the
    base's, each build (parse or load, ``Session()`` and the warm-up) timed
    just after a ``gc.collect()``, the build order alternating from round to
    round, after one untimed build of each imported copy; nothing steps
    after the warm-up, whose trace the digests read."""
    clock, stepped = plant(monkeypatch, trees, lambda tree, _: 21 if tree == "change" else 20)
    events, build = [], ab.build

    class Recording(Clock):
        def __call__(self):
            events.append("clock")
            return clock.now

    def recorded_build(package, workload, seed):
        events.append(package.__name__)
        return build(package, workload, seed)

    monkeypatch.setattr(ab.gc, "collect", lambda: events.append("collect"))
    monkeypatch.setattr(ab, "build", recorded_build)
    report = ab.compare(trees, "bottleneck-pipeline", 3, rounds=4, setup=True,
                        clock=Recording())
    assert report.ratios == [1.05] * 4
    untimed = ["ab_base_0", "ab_base_1", "ab_change_0", "ab_change_1"]
    order = ["ab_base_0", "ab_change_0", "ab_change_1", "ab_base_1"] * 2
    assert events == untimed + [event for package in order
                                for event in ("collect", "clock", package, "clock")]
    warmup = ab.workloads.WORKLOADS["bottleneck-pipeline"].warmup
    assert len(stepped) == 12 * warmup
    package = trees["base"][0]
    warmed = build(package, ab.workloads.WORKLOADS["bottleneck-pipeline"], 3)
    assert report.digests == {tree: ab.digest(package, warmed) for tree in ab.TREES}
    assert report.lines()[0].endswith("4 rounds, 4 pairs of set-ups")


def test_an_a_a_setup_run_exits_zero(capsys):
    args = ["--workload", "bottleneck-pipeline", "--setup", "--rounds", "2"]
    assert ab.main(["--base", str(ROOT), "--change", str(ROOT), *args]) == 0
    assert "2 pairs of set-ups" in capsys.readouterr().out


@pytest.mark.parametrize("workload", sorted(ab.workloads.WORKLOADS))
def test_an_a_a_run_gives_equal_digests(trees, workload):
    report = ab.compare(trees, workload, 3, rounds=2, block=10, cycles=20)
    assert report.equal
    assert len(report.ratios) == 4


def _renamed_goal_tree(tmp_path):
    """A copy of this checkout's ``src`` whose bundled bottleneck demo names
    its goal state otherwise."""
    shutil.copytree(ROOT / "src", tmp_path / "src")
    demo = tmp_path / "src" / "mmarch" / "demos" / "bottleneck.json"
    demo.write_text(demo.read_text().replace('"watch"', '"wait"'))
    return tmp_path


def test_unequal_traces_exit_non_zero(tmp_path, capsys):
    changed = _renamed_goal_tree(tmp_path)
    args = ["--workload", "bottleneck-pipeline", "--rounds", "2", "--cycles", "4"]
    assert ab.main(["--base", str(ROOT), "--change", str(changed), *args]) == 1
    assert capsys.readouterr().out.rstrip().endswith("TRACES DIFFER")
    assert ab.main(["--base", str(ROOT), "--change", str(ROOT), *args]) == 0


PIN_RUN = ["--workload", "bottleneck-pipeline", "--seed", "0", "--rounds", "2"]


def test_a_full_run_at_the_reference_seed_checks_the_pin(capsys):
    """The workload's full cycles at seed 0: both digests are the pin."""
    assert ab.main(["--base", str(ROOT), "--change", str(ROOT), *PIN_RUN]) == 0
    out = capsys.readouterr().out
    assert out.count(ab.workloads.PINNED["bottleneck-pipeline"]) == 2
    assert "PIN DIFFERS" not in out


def test_a_digest_off_the_pin_exits_non_zero(tmp_path, capsys):
    """Only the tree whose trace moved is marked; a shortened run carries
    no pin, so it marks nothing."""
    changed = _renamed_goal_tree(tmp_path)
    assert ab.main(["--base", str(ROOT), "--change", str(changed), *PIN_RUN]) == 1
    base, change = capsys.readouterr().out.splitlines()[2:]
    assert not base.endswith("PIN DIFFERS")
    assert change.endswith("TRACES DIFFER  PIN DIFFERS")
    report = ab.compare(ab.load_trees(ROOT, changed), "bottleneck-pipeline", 0,
                        rounds=2, cycles=4)
    assert report.pinned is None and "PIN DIFFERS" not in "".join(report.lines())
