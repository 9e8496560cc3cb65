"""Every SHA-256 pin the tests hold, and the one function that makes each.

``pins.json`` beside this file holds each pin's digest under its name, and
``registry()`` maps the same name to the function that makes the artifact:
a trace, a metrics file, canonical model bytes, context lines or
``inspect`` output.  The test that checks a pin calls that function, keeps
its own asserts on the artifact, and reads the digest with ``pinned(name)``.

The ``differential/...`` pins are cells: a bundled demo run for 200 cycles
in one mode at one seed with at most one knob edit (``EDITS``), two
200-fact ``mm_scale_document`` models (``bench/workloads.py``) run for 60
cycles with every entry forming a production, and a noisy linked-facts
model run for 200.  A change that moves a pin re-pins with ``--write``
and lists each pin and why in CHANGES.md.

    PYTHONPATH=src python tests/pins.py          # name every moved pin; exit 1 if any
    PYTHONPATH=src python tests/pins.py --write  # re-pin: rewrite pins.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from functools import cache, partial
from pathlib import Path
from unittest import mock

from mmarch import cli, demos
from mmarch.metrics import metrics, write_metrics
from mmarch.model import ModelDefinition, dumps_model, load_model, parse_model
from mmarch.predictors import ExternalPredictor
from mmarch.runtime import Session, run, run_session
from mmarch.trace import Trace, trace_to_bytes

HERE = Path(__file__).resolve().parent
PIN_FILE = HERE / "pins.json"
sys.path.append(str(HERE.parent / "bench"))  # for workloads.mm_scale_document

from workloads import mm_scale_document  # noqa: E402


def linked_facts_doc(size=60, seed=1, noise=0.3, links=2, domain=False):
    """A ring of ``size`` linked facts walked by the centre through a
    declarative shadow, while an associative predictor deposits cues that
    an attention shadow reads back from middle memory.  Each fact draws
    ``links`` link targets (duplicates and self-links are dropped).  With
    ``domain`` the goal also holds ``domain: fact``, as in the benchmark's
    generated model, so it spreads to every fact through the fact's type."""
    goal = {"state": "walk", "domain": "fact"} if domain else {"state": "walk"}
    rng = random.Random(seed)
    order = list(range(size))
    rng.shuffle(order)
    successor = {order[i]: order[(i + 1) % size] for i in range(size)}
    facts = [{
        "tag": "semantic",
        "chunk": {"isa": "fact", "slots": {"name": f"f{i}", "next": f"f{successor[i]}",
                                           "kind": f"k{i % 8}"}},
        "presentations": sorted(round(-rng.uniform(2.0, 6.0), 3)
                                for _ in range(rng.randint(4, 5))),
        "links": sorted({rng.randrange(size) for _ in range(links)} - {i}),
    } for i in range(size)]
    first = f"f{order[0]}"
    walk_query = {"isa": "fact", "slots": {"name": first, "next": "?"}}
    return {
        "name": "linked-facts",
        "codebook": {"dimension": 64, "seed": seed},
        "middle_memory": {"spread_weight": 1.5, "retrieval_threshold": 0.3,
                          "forget_threshold": 0.3, "formation_threshold": 2.5,
                          "noise": noise},
        "learning": {"provisional_ttl_s": 2.0},
        "buffers": [{"name": "goal", "owner": "central"},
                    {"name": "declarative", "owner": "declarative"},
                    {"name": "attention", "owner": "attention"}],
        "shadow_systems": [
            {"name": "declarative", "buffer": "declarative",
             "subscriptions": ["semantic"], "productions": []},
            {"name": "attention", "buffer": "attention", "subscriptions": ["percept"],
             "productions": [{
                 "name": "notice",
                 "conditions": [{"mm_tags": ["percept"],
                                 "pattern": {"isa": "percept", "slots": {"value": "?"}}}],
                 "actions": [{"kind": "write-buffer", "target": "attention",
                              "chunk": {"isa": "percept",
                                        "slots": {"value": "?value"}}}]}]},
        ],
        "central_productions": [
            {"name": "walk",
             "conditions": [
                 {"buffer": "goal", "pattern": {"isa": "goal", "slots": {"state": "walk"}}},
                 {"buffer": "declarative",
                  "pattern": {"isa": "fact", "slots": {"name": "?", "next": "?"}}}],
             "actions": [
                 {"kind": "post-query", "target": "declarative",
                  "query": {"isa": "fact", "slots": {"name": "?next", "next": "?"}}},
                 {"kind": "write-buffer", "target": "goal",
                  "chunk": {"isa": "goal", "slots": {**goal, "at": "?name"}}}]},
            {"name": "recover",
             "conditions": [
                 {"buffer": "goal", "pattern": {"isa": "goal", "slots": {"state": "walk"}}},
                 {"buffer": "declarative",
                  "pattern": {"isa": "retrieval-failure", "slots": {}}}],
             "actions": [{"kind": "post-query", "target": "declarative",
                          "query": walk_query}]},
        ],
        "predictors": [{"name": "sensor", "kind": "associative", "tag": "percept",
                        "pairs": [[f"f{i}", f"cue{i}"] for i in range(size)],
                        "emit_isa": "percept", "emit_slot": "value"}],
        "initial_wm": [
            {"buffer": "goal", "chunk": {"isa": "goal", "slots": goal}},
            {"buffer": "declarative", "query": walk_query},
            {"buffer": "attention", "chunk": {"isa": "percept", "slots": {"value": "none"}}},
        ],
        "initial_mm": facts,
    }


def multi_step_doc():
    """Two two-step shadows: ``stepper`` reads middle memory in both of its
    sub-steps, every cycle, and ``decl`` posts a query in its first and
    answers it, or misses at the end of the chain, in its second."""
    names = ["a", "b", "c", "d"]
    facts = [{"tag": "facts",
              "chunk": {"isa": "fact", "slots": {"name": name, "next": following}},
              "presentations": [-2.0, -1.0 + 0.1 * i], "links": [(i + 1) % 4]}
             for i, (name, following) in enumerate(zip(names, ["b", "c", "d", "e"]))]
    cue = {"mm_tags": ["cue"], "pattern": {"isa": "percept", "slots": {"value": "?"}}}

    def stage(name, n, holds):
        return {"name": name,
                "conditions": [{"buffer": "scratch", "pattern": holds,
                                "negated": holds is None}, cue],
                "actions": [{"kind": "write-buffer", "target": "scratch",
                             "chunk": {"isa": "stage",
                                       "slots": {"n": n, "cue": "?value"}}}]}

    def move_to(at, *extra):
        return [{"kind": "clear-buffer", "target": "decl"},
                {"kind": "write-buffer", "target": "goal",
                 "chunk": {"isa": "goal", "slots": {"at": at}}}, *extra]

    return {
        "name": "multi-step", "codebook": {"dimension": 64, "seed": 4},
        "middle_memory": {"noise": 0.2, "retrieval_threshold": -1.5,
                          "forget_threshold": -3.0, "formation_threshold": 50.0},
        "buffers": [{"name": "goal", "owner": "central"},
                    {"name": "scratch", "owner": "stepper"},
                    {"name": "decl", "owner": "decl"}],
        "shadow_systems": [
            {"name": "stepper", "buffer": "scratch", "subscriptions": ["cue"],
             "steps_per_cycle": 2,
             "productions": [
                stage("start", "one", None),
                stage("advance", "two", {"isa": "stage", "slots": {"n": "one", "cue": "?"}}),
                stage("again", "one", {"isa": "stage", "slots": {"n": "two", "cue": "?"}})]},
            {"name": "decl", "buffer": "decl", "subscriptions": ["facts"],
             "steps_per_cycle": 2,
             "productions": [
                {"name": "ask",
                 "conditions": [{"buffer": "decl", "pattern": None, "negated": True},
                                {"buffer": "goal",
                                 "pattern": {"isa": "goal", "slots": {"at": "?"}}}],
                 "actions": [{"kind": "post-query", "target": "decl",
                              "query": {"isa": "fact",
                                        "slots": {"name": "?at", "next": "?"}}}]}]}],
        "central_productions": [
            {"name": "walk", "utility": 1.0,
             "conditions": [{"buffer": "decl", "pattern": {
                 "isa": "fact", "slots": {"name": "?", "next": "?"}}}],
             "actions": move_to("?next")},
            {"name": "recover", "utility": 1.0,
             "conditions": [{"buffer": "decl", "pattern": {
                 "isa": "retrieval-failure", "slots": {}}}],
             "actions": move_to("a", {"kind": "emit-reward", "amount": 1.0})},
            {"name": "use",
             "conditions": [{"buffer": "scratch", "pattern": {
                 "isa": "stage", "slots": {"n": "two", "cue": "?"}}}],
             "actions": [{"kind": "clear-buffer", "target": "scratch"}]}],
        "predictors": [{"name": "sensor", "kind": "associative", "tag": "cue",
                        "pairs": [[name, f"cue-{name}"] for name in names + ["e"]],
                        "emit_isa": "percept", "emit_slot": "value"}],
        "initial_wm": [{"buffer": "goal", "chunk": {"isa": "goal", "slots": {"at": "a"}}}],
        "initial_mm": facts,
    }


def emptying_doc():
    """Six facts, each seeded with three recent presentations, are forgotten
    two cycles apart, so middle memory is empty from cycle 20.  The centre
    walks a 40-step goal chain and then holds its goal, so the broadcast
    repeats one context.  At ``s30`` the predictor emits ``ping``: in mm
    mode it refills the memory for two cycles, below the retrieval
    threshold, so it never enters the context; in pipeline mode it is routed
    to ``notice``, and from then on the predictor alternates ``ping`` and
    ``s30`` through that buffer."""
    chain = [{"name": f"step{i}",
              "conditions": [{"buffer": "goal",
                              "pattern": {"isa": "goal", "slots": {"at": f"s{i}"}}}],
              "actions": [{"kind": "write-buffer", "target": "goal",
                           "chunk": {"isa": "goal", "slots": {"at": f"s{i + 1}"}}}]}
             for i in range(40)]

    def shadow(name, buffer, tag, production, pattern, write):
        return {"name": name, "buffer": buffer, "subscriptions": [tag],
                "productions": [{"name": production,
                                 "conditions": [{"mm_tags": [tag], "pattern": pattern}],
                                 "actions": [{"kind": "write-buffer", "target": buffer,
                                              "chunk": write}]}]}

    return {
        "name": "emptying", "codebook": {"dimension": 64, "seed": 5},
        "middle_memory": {"retrieval_threshold": 1.6, "forget_threshold": 1.0},
        "buffers": [{"name": "goal", "owner": "central"},
                    {"name": "decl", "owner": "decl"},
                    {"name": "notice", "owner": "attention"}],
        "shadow_systems": [
            shadow("decl", "decl", "semantic", "recall",
                   {"isa": "fact", "slots": {"name": "?"}}, {"isa": "seen", "slots": {}}),
            shadow("attention", "notice", "cue", "look",
                   {"isa": "percept", "slots": {"value": "?"}},
                   {"isa": "percept", "slots": {"value": "?value"}})],
        "central_productions": chain,
        "predictors": [{"name": "sensor", "kind": "associative", "tag": "cue",
                        "pairs": [["s30", "ping"]], "emit_isa": "percept",
                        "emit_slot": "value"}],
        "initial_wm": [{"buffer": "goal", "chunk": {"isa": "goal", "slots": {"at": "s0"}}}],
        "initial_mm": [{"tag": "semantic",
                        "chunk": {"isa": "fact", "slots": {"name": f"f{i}", "kind": f"k{i % 2}"}},
                        "presentations": [-0.3 - 0.1 * i, -0.2 - 0.1 * i, -0.1 - 0.1 * i]}
                       for i in range(6)],
    }


# A peer that reads every line and answers none, so the run stays deterministic.
SILENT_PEER = "import sys\nfor line in sys.stdin:\n    pass\n"


def context_lines_doc():
    """Six seeded percepts read by one shadow, with a silent external peer."""
    return {
        "name": "wire-lines",
        "codebook": {"dimension": 64, "seed": 1},
        "buffers": [{"name": "goal", "owner": "central"},
                    {"name": "sight", "owner": "vision"},
                    {"name": "ask", "owner": "central"}],
        "shadow_systems": [{
            "name": "vision", "buffer": "sight", "subscriptions": ["vision"],
            "productions": [{
                "name": "see",
                "conditions": [{"mm_tags": ["vision"],
                                "pattern": {"isa": "percept", "slots": {"value": "?"}}}],
                "actions": [{"kind": "write-buffer", "target": "sight",
                             "chunk": {"isa": "percept", "slots": {"value": "?value"}}}]}]}],
        "predictors": [{"name": "peer", "kind": "external", "tag": "vision",
                        "command": [sys.executable, "-c", SILENT_PEER]}],
        "initial_wm": [
            {"buffer": "goal", "chunk": {"isa": "goal", "slots": {"state": "watch"}}},
            {"buffer": "ask", "query": {"isa": "?", "slots": {"value": "?"}}}],
        "initial_mm": [
            {"tag": "vision", "chunk": {"isa": "percept", "slots": {"value": f"p{i}"}},
             "presentations": [-0.5 * (i + 1), -0.1 * (i + 1)]}
            for i in range(6)],
    }


# The bundled demo runs whose trace and metrics file are pinned, at seed 7.
DEMO_RUNS = (("bottleneck", 500, "mm"), ("bottleneck", 500, "pipeline"),
             ("retrieval", 200, "mm"), ("threat", 200, "mm"), ("wordloop", 200, "mm"))


@cache
def demo_run(name: str, cycles: int, mode: str) -> Trace:
    """Made once for a demo's trace pin, its metrics pin and its story tests,
    which share it and only read it."""
    return run(load_model(demos.path(name)), cycles, mode=mode, seed=7)


def demo_metrics_file(name: str, cycles: int, mode: str) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "metrics.json"
        write_metrics(metrics(demo_run(name, cycles, mode)), path)
        return path.read_bytes()


def canonical_model(name: str) -> str:
    return dumps_model(load_model(demos.path(name)))


def noisy_retrieval_run() -> Trace:
    """Pins the noise draws, one per entry per activation table."""
    doc = _edited(demos.path("retrieval").read_text(), {"middle_memory": {"noise": 0.3}})
    return run(parse_model(doc), 200, mode="mm", seed=7)


def multi_step_run(order=None) -> Trace:
    return run(parse_model(multi_step_doc()), 20, mode="mm", seed=3, shadow_step_order=order)


def linked_facts_run(size: int, noise: float) -> Trace:
    return run(parse_model(linked_facts_doc(size=size, noise=noise)), 200, mode="mm", seed=1)


def emptying_run(mode: str, after_step=None) -> Trace:
    session = Session(parse_model(emptying_doc()), mode=mode, seed=2)
    return run_session(session, 80, after_step=after_step).trace


def context_lines(doc: dict | None = None, cycles: int = 20) -> str:
    """The context lines a seed-0 run of ``doc`` (``context_lines_doc`` by
    default) sends to any peer, one a line.  Pinned when the context vector
    was still a per-entry left fold."""
    sent, send = [], ExternalPredictor.send_context
    with mock.patch.object(ExternalPredictor, "send_context",
                           lambda self, line, cycle: sent.append(line) or send(self, line, cycle)):
        run(parse_model(doc or context_lines_doc()), cycles, mode="mm", seed=0)
    return "\n".join(sent)


def inspect_output() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["inspect", "--model", "threat", "--cycles", "5"]) == 0
    return out.getvalue()


REWARDS = [{"cycle": 17, "amount": 2.0}, {"cycle": 60, "amount": -1.0},
           {"cycle": 61, "amount": 3.0}, {"cycle": 150, "amount": 0.5}]
BOTH, MM = ("mm", "pipeline"), ("mm",)

# Knob edits: name -> (sections merged into the model document, modes it can
# change).  The time cost (0 by default) acts only through rewards, so its
# cell also schedules them.  Formation, pruning and the shadow step order act
# only in mm mode; the order is reversed only where a model has several systems.
EDITS = {
    "base": ({}, BOTH),
    "formation_threshold=-1": ({"middle_memory": {"formation_threshold": -1.0}}, MM),
    "formation_threshold=0.5": ({"middle_memory": {"formation_threshold": 0.5}}, MM),
    "provisional_ttl_s=0.5": ({"learning": {"provisional_ttl_s": 0.5}}, MM),
    "rewards": ({"rewards": REWARDS}, BOTH),
    "rewards+time_cost=0.7": ({"rewards": REWARDS, "learning": {"time_cost": 0.7}}, BOTH),
    "reversed": ({}, MM),
}


def _edited(source: str, edit: dict) -> dict:
    doc = json.loads(source)
    for key, value in edit.items():
        doc[key] = {**doc.get(key, {}), **value} if isinstance(value, dict) else value
    return doc


def _run(make_doc, mode: str, seed: int, reverse: bool = False,
         cycles: int = 200) -> tuple[ModelDefinition, Trace]:
    model = parse_model(make_doc())
    order = list(range(len(model.shadow_systems)))[::-1] if reverse else None
    return model, run(model, cycles, mode=mode, seed=seed, shadow_step_order=order)


def cells() -> dict:
    """Cell name -> a function returning that cell's ``(model, trace)``."""
    out = {}
    for name in demos.names():
        source = demos.path(name).read_text(encoding="utf-8")
        systems = len(json.loads(source)["shadow_systems"])
        for mode in BOTH:
            for seed in (0, 1, 5):
                for label, (edit, modes) in EDITS.items():
                    if mode in modes and (label != "reversed" or systems > 1):
                        out[f"{name}/{mode}/seed{seed}/{label}"] = partial(
                            _run, partial(_edited, source, edit), mode, seed, label == "reversed")
    for seed in (0, 1):  # every entry forms a production: the costliest cells per cycle
        out[f"mm-scale-200/mm/seed{seed}/formation_threshold=-100"] = partial(
            _run, partial(mm_scale_document, seed, 200, -100.0), "mm", seed, cycles=60)
    out["linked-facts/mm/seed5/noise=0.5"] = partial(
        _run, partial(linked_facts_doc, seed=5, noise=0.5), "mm", 5)
    return out


def registry() -> dict:
    """Pin name -> the one function that makes the pinned artifact."""
    pins = {"cli/inspect/threat/5": inspect_output, "wire/context-lines": context_lines,
            "demo/retrieval/200/mm/noise=0.3/trace": noisy_retrieval_run,
            "runtime/multi-step": multi_step_run}
    for name, cycles, mode in DEMO_RUNS:
        for pin, make in (("trace", demo_run), ("metrics", demo_metrics_file)):
            pins[f"demo/{name}/{cycles}/{mode}/{pin}"] = partial(make, name, cycles, mode)
    for name in demos.names():
        pins[f"model/{name}/canonical"] = partial(canonical_model, name)
    for noise in (0.0, 0.3):
        pins[f"runtime/linked-facts/noise={noise}"] = partial(linked_facts_run, 60, noise)
        pins[f"runtime/large-linked-facts/noise={noise}"] = partial(linked_facts_run, 300, noise)
    for mode in BOTH:
        pins[f"runtime/emptying/{mode}"] = partial(emptying_run, mode)
    for name, cell in cells().items():
        pins[f"differential/{name}"] = lambda cell=cell: cell()[1]
    return pins


def digest(artifact: Trace | bytes | str) -> str:
    """SHA-256 of a trace's canonical bytes, of bytes, or of text as UTF-8."""
    data = trace_to_bytes(artifact) if isinstance(artifact, Trace) else artifact
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def pinned(name: str) -> str:
    """The digest ``pins.json`` holds for pin ``name``."""
    return json.loads(PIN_FILE.read_text(encoding="utf-8"))["sha256"][name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="re-pin: rewrite pins.json")
    args = parser.parse_args(argv)
    doc = json.loads(PIN_FILE.read_text(encoding="utf-8"))
    current = {name: digest(make()) for name, make in sorted(registry().items())}
    if args.write:
        doc["sha256"] = current
        PIN_FILE.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {len(current)} pins to {PIN_FILE.name}")
        return 0
    held = doc["sha256"]
    moved = sorted(name for name in held.keys() | current.keys()
                   if held.get(name) != current.get(name))
    for name in moved:
        print(name)
    print(f"{len(moved)} of {len(held)} pins differ")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
