"""Production representation, matching, conflict resolution, and learning.

Matching is strictly binary: a production is in the conflict set exactly
when every condition holds, and bindings come from single definite sources
(a buffer's one chunk, or the top-ranked middle-memory entry) with no
backtracking.  One function finds the first content a condition's pattern
matches; :func:`match_production` alone decides negation and unifies
bindings across conditions.  Conflict resolution is argmax by utility with a
lexicographic tie-break, so runs are deterministic.  The central engine
builds its whole conflict set (:func:`match_all`, then :func:`resolve`),
because the trace records it; a shadow system needs only the winner, and
:func:`first_match` matches its pool in resolution order up to the winner,
so a production ranked after it costs nothing.  Utilities learn by a
time-discounted delta rule, and sufficiently active middle-memory entries
spawn provisional retrieval productions that survive only if rewarded.

A production fires the model's own :class:`.model.ActionDef` records; the
action kinds (:class:`.model.ActionKind`, :data:`.model.ACTION_KINDS`) and
the learning defaults are declared in :mod:`.model`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chunks import WILDCARD, Chunk, ChunkFactory, Query, Template, is_reference, match_query
from .errors import BindingError
from .memory import MiddleMemory, WorkingMemory
from .model import (
    ACTION_KINDS,
    DEFAULT_LEARNING_RATE,
    DEFAULT_PROVISIONAL_TTL,
    DEFAULT_TIME_COST,
    FORMED_PREFIX,
    ActionDef,
)


@dataclass(frozen=True)
class Condition:
    """One test: a pattern against a buffer or against tagged middle memory.

    Exactly one of ``buffer``/``mm_tags`` is set.  A ``None`` pattern tests
    bare presence.  Negated conditions invert satisfaction and never bind.
    """

    pattern: Query | None
    buffer: str | None = None
    mm_tags: tuple[str, ...] | None = None
    negated: bool = False


@dataclass
class Production:
    """Condition/action rule with a learned utility.

    Model-declared productions are permanent; productions formed at run
    time start provisional (``permanent=False``) with a creation time and
    are made permanent only by a positive effective reward.
    """

    name: str
    owner: str
    conditions: tuple[Condition, ...]
    actions: tuple[ActionDef, ...]
    utility: float = 0.0
    permanent: bool = True
    created_at: float | None = None


def _resolve_value(value: str, bindings: dict[str, str], production: str,
                   *, allow_wildcard: bool) -> str:
    if value == WILDCARD:
        if not allow_wildcard:
            raise BindingError(
                f"production {production!r}: bare wildcard in a chunk template")
        return value
    if is_reference(value):
        try:
            return bindings[value[1:]]
        except KeyError:
            raise BindingError(
                f"production {production!r}: unresolved binding reference {value!r}") from None
    return value


def instantiate(template: Template, bindings: dict[str, str], factory: ChunkFactory,
                production: str, *, query: bool) -> Chunk | Query:
    """Resolve a template's binding references into a new chunk or query.

    Only a query keeps bare wildcards, in its type or its slot values.
    """
    ctype = _resolve_value(template.ctype, bindings, production, allow_wildcard=query)
    slots = [(n, _resolve_value(v, bindings, production, allow_wildcard=query))
             for n, v in template.slots]
    return (factory.make_query if query else factory.make)(ctype, slots)


@dataclass
class MatchView:
    """Everything one engine step matches against, plus the candidate counter.

    ``inflows`` (pipeline mode only) maps buffer names to the unbounded
    lists of directly-routed predictions the engine must also consider;
    ``candidates`` counts every content in scope of the conditions this
    view evaluated (buffer content plus retained inflow), whether or not
    it was tested.
    """

    wm: WorkingMemory
    mm: MiddleMemory | None
    now: float
    inflows: dict[str, list[Chunk]] | None = None
    candidates: int = 0


@dataclass
class Match:
    production: Production
    bindings: dict[str, str]
    # (buffer name, chunk id) pairs whose content the conditions matched
    sources: list[tuple[str, int]]


def _first_match(cond: Condition, view: MatchView) -> tuple[dict[str, str], int | None] | None:
    """``(bindings, chunk id or None)`` for the first content the pattern matches, or None.

    A buffer condition reads the buffer's content, then (pipeline mode) its
    retained inflow newest first; all of them count as candidates, tested
    or not.  A pending query satisfies only a bare-presence pattern and
    gives no id.  A middle-memory condition binds from its most active match.
    """
    if cond.buffer is None:
        hits = view.mm.retrieve(view.wm, view.now, cond.pattern, cond.mm_tags)
        return (hits[0][2], None) if hits else None
    content = view.wm.buffer(cond.buffer).content
    inflow = (view.inflows or {}).get(cond.buffer, ())
    view.candidates += (content is not None) + len(inflow)
    pattern = cond.pattern
    if pattern is None:
        if content is not None:
            return {}, (content.id if isinstance(content, Chunk) else None)
        return ({}, inflow[-1].id) if inflow else None
    if isinstance(content, Chunk) and (bindings := match_query(pattern, content)) is not None:
        return bindings, content.id
    for item in reversed(inflow):
        if (bindings := match_query(pattern, item)) is not None:
            return bindings, item.id
    return None


def match_production(production: Production, view: MatchView) -> Match | None:
    """All-conditions test with cross-condition unification of bindings.

    A negated condition holds exactly when nothing matches it, and it never
    binds or names a source.
    """
    merged: dict[str, str] = {}
    sources: list[tuple[str, int]] = []
    for cond in production.conditions:
        found = _first_match(cond, view)
        if (found is None) != cond.negated:
            return None
        if found is None:
            continue
        bindings, chunk_id = found
        for key, value in bindings.items():
            if merged.setdefault(key, value) != value:
                return None  # same binding key must unify across conditions
        if chunk_id is not None:
            sources.append((cond.buffer, chunk_id))
    return Match(production, merged, sources)


def match_all(productions, view: MatchView) -> list[Match]:
    """Conflict set, in production declaration order."""
    return [match for production in productions
            if (match := match_production(production, view)) is not None]


def _rank(production: Production) -> tuple[float, str]:
    return -production.utility, production.name


def resolve(conflict: list[Match]) -> Match | None:
    """Highest utility wins; exact ties go to the smaller production name."""
    if not conflict:
        return None
    return min(conflict, key=lambda m: _rank(m.production))


def first_match(productions, view: MatchView) -> Match | None:
    """:func:`resolve`'s winner of :func:`match_all`, matching no production after it.

    Productions are tried in :func:`resolve`'s order.  Names are unique
    within a pool and utilities finite, so that order is total and its first
    match is the winner.  ``view`` counts only the candidates of the
    productions tried.
    """
    for production in sorted(productions, key=_rank):
        if (match := match_production(production, view)) is not None:
            return match
    return None


def fire(production: Production, bindings: dict[str, str],
         factory: ChunkFactory) -> list[tuple[ActionDef, Chunk | Query | None]]:
    """Each of the production's actions, in listed order, paired with the
    chunk or query it instantiates (None for a kind that needs neither).

    Pure apart from allocating ids from ``factory``: the caller applies the
    actions and does the engine-specific bookkeeping.
    """
    fired = []
    for action in production.actions:
        needs = ACTION_KINDS[action.kind].needs
        content = None
        if "chunk" in needs or "query" in needs:
            query = "query" in needs
            content = instantiate(action.query if query else action.chunk, bindings,
                                  factory, production.name, query=query)
        fired.append((action, content))
    return fired


def buffer_write(action: ActionDef, content) -> tuple[Chunk | Query | None, bool] | None:
    """The ``(content, urgent)`` a fired action writes to its target, or None.

    A clear writes ``None``; only a kind that may be urgent writes urgently.
    """
    kind = ACTION_KINDS[action.kind]
    if "target" not in kind.needs:
        return None
    return content, action.urgent and kind.may_be_urgent


class UtilityLearner:
    """Delta-rule utility learning with a per-second time cost.

    Everything waiting for a reward is credited (and cleared) at the next
    one: central firings in ``pending``, and in ``consumed`` the shadow
    writes the centre used, as ``(chunk id, owner, production, write time)``.
    """

    def __init__(self, alpha: float = DEFAULT_LEARNING_RATE,
                 rho: float = DEFAULT_TIME_COST):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("learning rate must be in (0, 1]")
        self.alpha = alpha
        self.rho = rho
        self.pending: list[tuple[Production, float]] = []
        self.consumed: list[tuple[int, str, str, float]] = []

    def record_fire(self, production: Production, fire_time: float) -> None:
        self.pending.append((production, fire_time))

    def _apply(self, production: Production, effective: float) -> dict:
        """Update one production; return the ``utility-update`` event data."""
        old = production.utility
        production.utility = old + self.alpha * (effective - old)
        made_permanent = effective > 0.0 and not production.permanent
        if made_permanent:
            production.permanent = True
        return {"production": production.name, "owner": production.owner, "old": old,
                "new": production.utility, "effective_reward": effective,
                "made_permanent": made_permanent}

    def apply_reward(self, reward: float, reward_time: float, find) -> list[dict]:
        """Credit every pending firing, then every consumed write, then clear.

        Each is discounted from its own time.  ``find(owner, name)`` gives a
        consumed write's production, or None once it is pruned, which earns
        nothing.  Chunk ids are allocated in write order (systems emit in
        index order and cycles only increase), so consumed writes are
        credited in the order they were written.
        """
        if not math.isfinite(reward):
            raise ValueError("reward must be finite")
        credits = list(self.pending)
        for _, owner, name, write_time in sorted(self.consumed):
            production = find(owner, name)
            if production is not None:
                credits.append((production, write_time))
        updates = [self._apply(production, reward - self.rho * (reward_time - time))
                   for production, time in credits]
        self.pending.clear()
        self.consumed.clear()
        return updates


def pattern_keys(production: Production) -> list[tuple]:
    """The ``(mm_tags, ctype, slots)`` key of each of ``production``'s
    non-negated middle-memory conditions that has a pattern: what
    formation's duplicate test compares.  A plain tuple, because comparing
    whole :class:`Condition` records made formation about twice as slow."""
    return [(cond.mm_tags, cond.pattern.ctype, cond.pattern.slots)
            for cond in production.conditions
            if cond.mm_tags is not None and cond.pattern is not None and not cond.negated]


def form_retrieval_production(entry, system: str, buffer: str, patterns,
                              now: float) -> Production | None:
    """Spawn a provisional production that retrieves a hot entry.

    The caller picks the hot entries (above the formation threshold) and
    passes ``patterns``, the :func:`pattern_keys` of the owner's own pool.
    Returns ``None`` for vector-only entries (nothing to pattern-match), or
    when the pool already has a production retrieving the same tagged
    pattern, that is when the formed production's key is in ``patterns``.
    """
    chunk = entry.chunk
    if chunk is None:
        return None
    tags = (entry.tag,)
    if (tags, chunk.ctype, chunk.slots) in patterns:
        return None
    return Production(
        name=f"{FORMED_PREFIX}{entry.id}",
        owner=system,
        conditions=(Condition(pattern=Query(chunk.ctype, chunk.slots, -1),  # exact
                              mm_tags=tags),),
        actions=(ActionDef("write-buffer", target=buffer,
                           chunk=Template.from_chunk(chunk)),),
        utility=0.0,
        permanent=False,
        created_at=now,
    )


def prune_provisional(productions, now: float,
                      ttl: float = DEFAULT_PROVISIONAL_TTL) -> tuple[list, list]:
    """Split productions into (kept, pruned) by the provisional lifetime.

    A provisional production older than ``ttl`` whose utility never rose
    above zero is pruned; permanent productions are never touched.
    """
    if ttl <= 0:
        raise ValueError("ttl must be positive")
    kept, pruned = [], []
    for production in productions:
        stale = (not production.permanent
                 and production.created_at is not None
                 and now - production.created_at > ttl
                 and production.utility <= 0.0)
        (pruned if stale else kept).append(production)
    return kept, pruned
