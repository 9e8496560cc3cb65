"""Shadow production systems and contribution credit bookkeeping.

A shadow system is a peripheral module's own rule engine: it reads any
working-memory buffer and its subscribed middle-memory tags, but writes
only the single buffer it owns.  When its owned buffer holds a pending
query it answers the query instead of running its productions.  The
contribution ledger records which shadow deposits the central system later
matched, so rewards can propagate to the shadow productions that earned
them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .chunks import Chunk, ChunkFactory, Query, complete_query
from .memory import MiddleMemory, WorkingMemory
from .productions import Match, MatchView, Production, match_all, resolve

RETRIEVAL_FAILURE = "retrieval-failure"


@dataclass
class ShadowSystem:
    """One peripheral module: productions, subscriptions, one owned buffer."""

    name: str
    buffer: str
    subscriptions: tuple[str, ...]
    productions: list[Production] = field(default_factory=list)
    steps_per_cycle: int = 1


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

    Answering a pending query in the owned buffer takes precedence over
    firing a production; either way the system performs at most one write,
    and that write targets only its owned buffer.
    """
    content = wm.buffer(system.buffer).content
    if isinstance(content, Query) and content.has_wildcards():
        hits = mm.retrieve(wm, now, pattern=content,
                           tags=frozenset(system.subscriptions), k=1)
        if hits:
            entry, _, bindings = hits[0]
            return ShadowDecision("answer", system, query=content,
                                  answer_bindings=bindings, answered_entry=entry.id)
        return ShadowDecision("miss", system, query=content)
    view = MatchView(wm, mm, now)
    winner = resolve(match_all(system.productions, view))
    if winner is None:
        return ShadowDecision("idle", system)
    return ShadowDecision("fire", system, match=winner)


def answer_chunk(decision: ShadowDecision, factory: ChunkFactory) -> Chunk:
    """Materialize the completed chunk for an ``answer`` decision."""
    return complete_query(decision.query, decision.answer_bindings, factory)


def failure_chunk(decision: ShadowDecision, factory: ChunkFactory) -> Chunk:
    """Materialize the failure marker for a ``miss`` decision."""
    return factory.make(RETRIEVAL_FAILURE, [("query-id", str(decision.query.id))])


@dataclass
class ContributionRecord:
    production: str
    system: str
    chunk_id: int
    deposit_time: float
    seq: int  # write order, which credit follows
    consumed_cycle: int | None = None


class ContributionLedger:
    """Tracks shadow buffer deposits and their consumption by the centre.

    A deposit is consumed when a fired central production's conditions
    matched that chunk in the shadow's buffer.  Only a system's latest
    deposit can still be in its buffer, so ``pending`` keeps one
    unconsumed record per system; a newer write replaces it.  Each deposit
    is consumed at most once (first central cycle recorded), and each
    consumed record is credited at most once, by the next reward.
    """

    def __init__(self):
        self.pending: dict[str, ContributionRecord] = {}
        self.consumed: list[ContributionRecord] = []
        self._seq = itertools.count()

    def note_write(self, production: str, system: str, chunk: Chunk, time: float) -> None:
        self.pending[system] = ContributionRecord(production, system, chunk.id,
                                                  time, next(self._seq))

    def mark_consumed(self, chunk_id: int, cycle: int) -> ContributionRecord | None:
        for system, record in self.pending.items():
            if record.chunk_id == chunk_id:
                del self.pending[system]
                record.consumed_cycle = cycle
                self.consumed.append(record)
                return record
        return None

    def take_consumed(self) -> list[ContributionRecord]:
        """Remove and return every consumed, not-yet-credited record, in write order."""
        taken = sorted(self.consumed, key=lambda record: record.seq)
        self.consumed = []
        return taken
