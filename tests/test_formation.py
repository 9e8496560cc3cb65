"""Formation's duplicate test: each shadow system's set of pattern keys.

A hot entry forms a retrieval production in a subscribing system unless the
system's pool already holds a non-negated middle-memory condition with the
same tags and exact pattern.  The runtime answers that from
``ShadowSystem.patterns``, kept in step with the pool by formation and
pruning; :class:`PoolScan` answers it by scanning the whole pool, field by
field, and the traces of the two must be equal.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mmarch.chunks import ChunkFactory
from mmarch.errors import ModelValidationError
from mmarch.memory import MiddleMemory
from mmarch.model import ActionDef, parse_model
from mmarch.productions import Condition, Production, form_retrieval_production, pattern_keys
from mmarch.runtime import Session, run_session
from mmarch.shadows import ShadowSystem
from mmarch.trace import trace_to_bytes

from test_acceptance import random_model_docs
from pins import linked_facts_doc


class PoolScan:
    """The duplicate test as a scan of the owner's whole pool, in place of
    its key set; formation's and pruning's updates to the set are no-ops."""

    def __init__(self, system):
        self.system = system

    def __contains__(self, key):
        tags, ctype, slots = key
        return any(cond.mm_tags == tags and cond.pattern is not None and not cond.negated
                   and cond.pattern.ctype == ctype and cond.pattern.slots == slots
                   for production in self.system.productions
                   for cond in production.conditions)

    def update(self, keys):
        pass

    def difference_update(self, keys):
        pass


def pool_keys(system):
    return {key for production in system.productions for key in pattern_keys(production)}


def _run(model, cycles, seed, scan=False):
    session = Session(model, mode="mm", seed=seed)
    if scan:
        for system in session.systems:
            system.patterns = PoolScan(system)
    run_session(session, cycles)
    return session


def _forming(doc, ttl):
    """``doc`` with every entry hot and provisional productions pruned
    after ``ttl`` seconds, so patterns prune and form again."""
    doc.setdefault("middle_memory", {})["formation_threshold"] = -100.0
    doc.setdefault("learning", {})["provisional_ttl_s"] = ttl
    return doc


def _same_bytes(model, cycles, seed):
    real = _run(model, cycles, seed)
    for system in real.systems:
        assert system.patterns == pool_keys(system)
    expected = trace_to_bytes(_run(model, cycles, seed, scan=True).trace)
    assert trace_to_bytes(real.trace) == expected
    return real


def _declared(draw, doc):
    """Give the declarative system a production over up to three facts'
    exact patterns, some negated, which blocks formation of the others."""
    facts = [item["chunk"] for item in doc["initial_mm"]]
    picks = draw(st.lists(st.sampled_from(range(len(facts))), max_size=3, unique=True))
    if not picks:
        return
    conditions = [{"mm_tags": ["semantic"], "pattern": facts[i], "negated": draw(st.booleans())}
                  for i in picks]
    doc["shadow_systems"][0]["productions"].append({
        "name": "declared", "conditions": conditions,
        "actions": [{"kind": "write-buffer", "target": "declarative",
                     "chunk": {"isa": "seen", "slots": {}}}]})


def formation(examples):
    return settings(max_examples=examples, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@formation(40)
@given(doc=random_model_docs, seed=st.integers(0, 3),
       ttl=st.sampled_from([0.1, 0.25, 60.0]))
def test_generated_models_form_as_a_pool_scan_does(doc, seed, ttl):
    try:
        model = parse_model(_forming(doc, ttl))
    except ModelValidationError:
        return
    _same_bytes(model, 20, seed)


@formation(30)
@given(data=st.data(), size=st.integers(4, 60), seed=st.integers(0, 9),
       noise=st.sampled_from([0.0, 0.3]), ttl=st.sampled_from([0.1, 0.2, 0.5]))
def test_linked_facts_form_as_a_pool_scan_does(data, size, seed, noise, ttl):
    doc = _forming(linked_facts_doc(size=size, seed=seed, noise=noise), ttl)
    _declared(data.draw, doc)
    _same_bytes(parse_model(doc), 25, seed)


def test_a_pruned_pattern_forms_again():
    """Every fact forms at cycle 0, is pruned once older than the ttl, and
    forms again at a later cycle, under the same name."""
    model = parse_model(_forming(linked_facts_doc(size=6, noise=0.0), 0.1))
    session = _same_bytes(model, 12, 1)
    events = [(e.cycle, e.kind, e.data["production"]) for e in session.trace.events
              if e.kind in ("form", "prune") and e.data["owner"] == "declarative"]
    formed = {name for cycle, kind, name in events if kind == "form" and cycle == 0}
    assert len(formed) == 6
    for name in formed:
        mine = [(cycle, kind) for cycle, kind, other in events if other == name]
        assert [kind for _, kind in mine][:3] == ["form", "prune", "form"]


@pytest.fixture
def entry():
    mm = MiddleMemory()
    entry_id, _ = mm.deposit(0.0, "semantic",
                             chunk=ChunkFactory().make("fact", [("name", "a"), ("next", "b")]))
    return mm.entry(entry_id)


def _system(name, conditions=()):
    productions = [Production(name="declared", owner=name, conditions=tuple(conditions),
                              actions=(ActionDef("clear-buffer", target=name),))]
    return ShadowSystem(name=name, buffer=name, subscriptions=("semantic",),
                        productions=productions if conditions else [])


def _exact(entry, negated=False, tags=("semantic",)):
    query = ChunkFactory().make_query(entry.chunk.ctype, entry.chunk.slots)
    return Condition(pattern=query, mm_tags=tags, negated=negated)


@pytest.mark.parametrize("multi", [False, True])
def test_a_declared_exact_pattern_blocks_formation(entry, multi):
    """In a single-condition production, and beside a buffer condition and
    a wildcard pattern in a multi-condition one."""
    factory = ChunkFactory()
    others = [Condition(pattern=None, buffer="goal"),
              Condition(pattern=factory.make_query("fact", [("name", "?"), ("next", "b")]),
                        mm_tags=("semantic",))] if multi else []
    system = _system("decl", [*others, _exact(entry)])
    assert len(system.patterns) == 1 + multi
    assert form_retrieval_production(entry, system.name, system.buffer,
                                     system.patterns, 1.0) is None


def test_a_negated_or_other_tagged_condition_does_not_block_formation(entry):
    system = _system("decl", [_exact(entry, negated=True),
                              _exact(entry, tags=("semantic", "other"))])
    formed = form_retrieval_production(entry, system.name, system.buffer,
                                       system.patterns, 1.0)
    assert formed is not None and formed.conditions[0].mm_tags == ("semantic",)


def test_another_owner_still_forms(entry):
    blocked, other = _system("decl", [_exact(entry)]), _system("attention")
    assert form_retrieval_production(entry, blocked.name, blocked.buffer,
                                     blocked.patterns, 1.0) is None
    formed = form_retrieval_production(entry, other.name, other.buffer, other.patterns, 1.0)
    assert formed is not None and formed.owner == "attention"
    other.patterns.update(pattern_keys(formed))
    assert form_retrieval_production(entry, other.name, other.buffer,
                                     other.patterns, 2.0) is None
