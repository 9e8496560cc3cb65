"""Shadow production systems.

A shadow system is a peripheral module's own rule engine: it reads any
working-memory buffer and its subscribed middle-memory tags, but writes
only the single buffer it owns.  When its owned buffer holds a pending
query it answers the query instead of running its productions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chunks import Query
from .memory import MiddleMemory, WorkingMemory
from .productions import Match, MatchView, Production, first_match, pattern_keys

RETRIEVAL_FAILURE = "retrieval-failure"


@dataclass
class ShadowSystem:
    """One peripheral module: productions, subscriptions, one owned buffer.

    ``patterns`` holds the :func:`.productions.pattern_keys` of every
    production in the pool, built from the productions the system is made
    with.  After that the pool changes only through formation, which adds a
    formed production's key, and pruning, which discards a pruned one's:
    formation never forms a key the pool holds, and only formed productions
    are pruned, so the set stays exactly the pool's keys.
    """

    name: str
    buffer: str
    subscriptions: tuple[str, ...]
    productions: list[Production] = field(default_factory=list)
    steps_per_cycle: int = 1
    patterns: set[tuple] = field(init=False, repr=False)

    def __post_init__(self):
        self.patterns = {key for production in self.productions
                         for key in pattern_keys(production)}


@dataclass
class ShadowDecision:
    """Read-only outcome of one shadow step, applied later by the runtime.

    ``kind`` is ``"fire"`` (a production won), ``"answer"`` (a pending
    query was completed from middle memory), ``"miss"`` (a pending query
    found nothing), or ``"idle"``.
    """

    kind: str
    system: ShadowSystem
    match: Match | None = None
    query: Query | None = None
    answer_bindings: dict[str, str] | None = None
    answered_entry: int | None = None


def decide_shadow(system: ShadowSystem, wm: WorkingMemory, mm: MiddleMemory,
                  now: float) -> ShadowDecision:
    """Choose this system's action for the cycle without touching state.

    Answering a pending query in the owned buffer, with the most active
    middle-memory match under the subscriptions, precedes firing a
    production; either way it makes at most one write, to its owned buffer.
    Only the winner acts, so the system stops at its first match in
    resolution order (:func:`.productions.first_match`) and builds no
    conflict set.
    """
    content = wm.buffer(system.buffer).content
    if isinstance(content, Query) and content.has_wildcards():
        hits = mm.retrieve(wm, now, content, system.subscriptions)
        if hits:
            entry, _, bindings = hits[0]
            return ShadowDecision("answer", system, query=content,
                                  answer_bindings=bindings, answered_entry=entry.id)
        return ShadowDecision("miss", system, query=content)
    winner = first_match(system.productions, MatchView(wm, mm, now))
    if winner is None:
        return ShadowDecision("idle", system)
    return ShadowDecision("fire", system, match=winner)
