"""The cycle scheduler: clock, phase order, event logging, run entry point.

Every cycle executes a fixed phase order: (1) drain the predictions made
since the last drain, built-in emissions and external peers' lines numbered
in arrival order, into middle memory (or, in pipeline mode, straight into
module buffers and their unbounded inflow lists) in (cycle, predictor,
index) order; (2) sweep/forget; (3) shadow systems decide their first
steps, read-only, against the frozen cycle-start state, and each system's
decisions are then fired once, in system order, with a multi-step system's
later steps reading only its own staged write; (4) the central engine
matches, resolves, and fires, and (5) each shadow write it matched hands the
credit its buffer has kept since the write to the learner, once; then shadow
writes commit, each credited to its production until the centre uses it or
another write replaces it; (6) a reward credits every central firing and
every used shadow write since the last one (both are recorded only while a
reward can still arrive); (7) retrieval productions form and stale
provisional ones are pruned, (8) the context broadcasts to every predictor,
and (9) the clock advances.

Shadow decisions read the cycle-start state and commit after central
matching, so an urgent shadow write at cycle n reaches the central conflict
set at exactly cycle n+1, and the order in which systems are stepped is
unobservable.  Event timestamps use the cycle-start time; activation
evaluations use the cycle-end time, so a presentation deposited this cycle
already has a positive lag.  Time is integer milliseconds internally.

Activation is computed by middle-memory reads; how their tables are built,
cached and read is described once, in :class:`.memory.MiddleMemory`.  The
sweep's table serves shadow retrieval, middle-memory conditions and
formation, so formation tests the activations the shadows saw: in mm mode,
one read right after the sweep takes the entries above the formation
threshold, and each system forms from those whose tag it subscribes to.  A
table built after the commit serves the broadcast, which reads it once for
its symbols and its ``zero_context`` flag and packs a context vector only
for a live external predictor.
"""

from __future__ import annotations

import copy
import queue
from itertools import starmap

import numpy as np

from .chunks import Chunk, ChunkFactory, Query, Template, complete_query
from .codec import Codebook
from .memory import (
    CENTRAL,
    Buffer,
    MiddleMemory,
    MMEntry,
    WorkingMemory,
    context_symbols,
    context_vector,
)
from .model import ModelDefinition, validate_for_mode
from .predictors import (
    AssociativePredictor,
    ExternalPredictor,
    NgramPredictor,
    Prediction,
    decode_prediction,
    encode_context,
)
from .productions import (
    ACTION_KINDS,
    Action,
    Condition,
    MatchView,
    Production,
    UtilityLearner,
    buffer_write,
    fire,
    form_retrieval_production,
    match_all,
    prune_provisional,
    resolve,
)
from .shadows import RETRIEVAL_FAILURE, ShadowDecision, ShadowSystem, decide_shadow
from .trace import Trace, content_data

CONTEXT_SYMBOL_COUNT = 5


def _to_query(pattern: Template | None, factory: ChunkFactory) -> Query | None:
    if pattern is None:
        return None
    return factory.make_query(pattern.ctype, pattern.slots)


class Session:
    """One deterministic run of a model: step cycles, accumulate the trace."""

    def __init__(self, model: ModelDefinition, mode: str = "mm", seed: int = 0,
                 shadow_step_order: list[int] | None = None):
        validate_for_mode(model, mode)
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self.model = model
        self.mode = mode
        self.seed = seed
        self.cycle = 0
        self.halted = False
        self._halt_reason: str | None = None
        self.factory = ChunkFactory()
        self.trace = Trace(seed=seed, mode=mode,
                           cycle_length_ms=model.cycle_length_ms)

        mix = np.random.SeedSequence([seed, model.codebook.seed]).generate_state(2)
        self.book = Codebook(model.codebook.dimension, seed=int(mix[0]))
        self.wm = WorkingMemory(capacity=model.wm_capacity)
        for buffer in model.buffers:
            self.wm.add_buffer(buffer.name, buffer.owner)
        self.mm = MiddleMemory(
            decay=model.middle_memory.decay,
            spread_weight=model.middle_memory.spread_weight,
            retrieval_threshold=model.middle_memory.retrieval_threshold,
            forget_threshold=model.middle_memory.forget_threshold,
            noise=model.middle_memory.noise, noise_seed=int(mix[1]))

        self.central_productions = [
            self._build_production(p, CENTRAL) for p in model.central_productions]
        self.systems: list[ShadowSystem] = []
        for sdef in model.shadow_systems:
            system = ShadowSystem(
                name=sdef.name, buffer=sdef.buffer,
                subscriptions=sdef.subscriptions,
                productions=[self._build_production(p, sdef.name)
                             for p in sdef.productions],
                steps_per_cycle=sdef.steps_per_cycle)
            self.systems.append(system)
        if shadow_step_order is not None:
            if sorted(shadow_step_order) != list(range(len(self.systems))):
                raise ValueError("shadow_step_order must permute the system indices")
        self.shadow_step_order = shadow_step_order

        self.learner = UtilityLearner(alpha=model.learning.rate,
                                      rho=model.learning.time_cost)
        self._predicted: list[Prediction] = []  # built-in emissions since the last drain
        self.inbox: queue.SimpleQueue = queue.SimpleQueue()  # peers' (predictor, cycle, line)
        # each module buffer's directly-routed predictions; pipeline mode only
        self.inflows: dict[str, list[Chunk]] | None = (
            {s.buffer: [] for s in self.systems} if mode == "pipeline" else None)
        self._pending_rewards: list[tuple[float, str]] = []
        self._hot: list[tuple[MMEntry, float]] = []  # the sweep's entries that may form
        self._scheduled: dict[int, list[float]] = {}
        for reward in model.rewards:
            self._scheduled.setdefault(reward.cycle, []).append(reward.amount)
        # Only central productions emit rewards, and formation adds none.
        self._emits_reward = any(action.kind == "emit-reward"
                                 for p in self.central_productions for action in p.actions)

        self.predictors = [self._build_predictor(p) for p in model.predictors]
        self._stall_warned: set[str] = set()
        for predictor in self.predictors:
            if isinstance(predictor, ExternalPredictor):
                predictor.start(self.inbox.put)

        self._install_initial_state()

    # -- construction ---------------------------------------------------

    def _build_production(self, pdef, owner: str) -> Production:
        conditions = tuple(
            Condition(pattern=_to_query(c.pattern, self.factory),
                      buffer=c.buffer, mm_tags=c.mm_tags, negated=c.negated)
            for c in pdef.conditions)
        actions = tuple(
            Action(kind=a.kind, target=a.target,
                   template=a.query if "query" in ACTION_KINDS[a.kind].needs else a.chunk,
                   amount=a.amount, urgent=a.urgent)
            for a in pdef.actions)
        return Production(name=pdef.name, owner=owner, conditions=conditions,
                          actions=actions, utility=pdef.utility,
                          permanent=pdef.permanent)

    def _build_predictor(self, pdef):
        if pdef.kind == "ngram":
            return NgramPredictor(pdef.name, pdef.tag, pdef.corpus,
                                  order=pdef.order, rate=pdef.rate,
                                  emit_ctype=pdef.emit_isa, emit_slot=pdef.emit_slot)
        if pdef.kind == "associative":
            return AssociativePredictor(pdef.name, pdef.tag, pdef.pairs, rate=pdef.rate,
                                        emit_ctype=pdef.emit_isa,
                                        emit_slot=pdef.emit_slot)
        return ExternalPredictor(pdef.name, pdef.tag,
                                 command=list(pdef.command) if pdef.command else None,
                                 host=pdef.host, port=pdef.port)

    def _install_initial_state(self) -> None:
        for item in self.model.initial_wm:
            content = (_to_query(item.query, self.factory) if item.chunk is None
                       else self.factory.make(item.chunk.ctype, item.chunk.slots))
            self.wm.write(CENTRAL, item.buffer, content)
            self._log_write(0, "initial", item.buffer, content)
        entry_ids = []
        for item in self.model.initial_mm:
            chunk = self.factory.make(item.chunk.ctype, item.chunk.slots)
            entry_id = self.mm.seed_entry(item.tag, chunk=chunk,
                                          presentations=item.presentations)
            entry_ids.append(entry_id)
            self._log_deposit(0, entry_id, item.tag, "initial", chunk)
        for index, item in enumerate(self.model.initial_mm):
            for link in item.links:
                self.mm.link(entry_ids[index], entry_ids[link])

    # -- clock ------------------------------------------------------------

    @property
    def now_ms(self) -> int:
        return self.cycle * self.model.cycle_length_ms

    def _cycle_time(self, cycle: int) -> float:
        return cycle * self.model.cycle_length_ms / 1000.0

    # -- cycle -----------------------------------------------------------

    def step(self) -> None:
        """Execute one full cycle; raises if the session already halted."""
        if self.halted:
            raise RuntimeError("session has halted")
        n = self.cycle
        t_now = self._cycle_time(n)
        t_eval = self._cycle_time(n + 1)

        self._drain_predictions(n, t_now)
        self._sweep(n, t_eval)
        staged = self._shadow_phase(n, t_eval) if self.mode == "mm" else {}
        self._central_phase(n, t_now, t_eval)
        self._commit_staged(t_now, staged)
        self._reward_phase(n, t_now)
        if self.mode == "mm":
            self._formation_phase(n, t_now)
        self._broadcast_phase(n, t_eval)

        self.cycle += 1
        if self._halt_reason is not None:
            self.trace.append(n, "halt", {"reason": self._halt_reason})
            self.halted = True

    # phase 1
    def _drain_predictions(self, n: int, t_now: float) -> None:
        predictions, self._predicted = self._predicted, []
        for index in range(self.inbox.qsize()):  # only this thread takes from the inbox
            predictor, cycle, line = self.inbox.get_nowait()
            try:
                decoded = decode_prediction(line, self.book.dimension)
            except ValueError as exc:
                self._log_error(n, f"dropped malformed prediction: {exc}", predictor, line)
                continue
            predictions.append(Prediction(predictor=predictor, produced_at_cycle=cycle,
                                          emission_index=index, **decoded))
        predictions.sort(key=lambda p: p.sort_key())
        for prediction in predictions:
            if self.mode == "mm":
                self._deposit_prediction(n, t_now, prediction)
            else:
                self._route_prediction(n, prediction)

    def _deposit_prediction(self, n: int, t_now: float, prediction) -> None:
        chunk = None
        if prediction.ctype is not None:
            chunk = self.factory.make(prediction.ctype, prediction.slots)
        entry_id, created = self.mm.deposit(
            t_now, prediction.tag, chunk=chunk, vector=prediction.vector)
        self._log_deposit(n, entry_id, prediction.tag, f"predictor:{prediction.predictor}",
                          chunk, new=created, salience=prediction.salience,
                          has_vector=prediction.vector is not None)

    def _route_prediction(self, n: int, prediction) -> None:
        target = None
        for system in self.systems:
            if prediction.tag in system.subscriptions:
                target = system
                break
        if target is None:  # an external line names its own tag, unchecked by validation
            self._log_error(n, f"no module subscribes to tag {prediction.tag!r}",
                            prediction.predictor)
            return
        if prediction.ctype is None:
            self._log_error(n, "vector-only prediction cannot be routed to a buffer",
                            prediction.predictor)
            return
        chunk = self.factory.make(prediction.ctype, prediction.slots)
        self.wm.write(target.name, target.buffer, chunk)
        self.inflows[target.buffer].append(chunk)
        self._log_write(n, target.name, target.buffer, chunk, route="pipeline")

    # phase 2
    def _sweep(self, n: int, t_eval: float) -> None:
        for entry, activation in self.mm.sweep(self.wm, t_eval):
            self.trace.append(n, "forget", {
                "entry": entry.id, "tag": entry.tag,
                "activation": activation})
        if self.mode == "mm":
            self._hot = self.mm.above(self.wm, t_eval,
                                      self.model.middle_memory.formation_threshold)

    # phase 3
    def _shadow_phase(self, n: int, t_eval: float) -> dict[int, tuple]:
        """Each system's one write, ``index -> (content, urgent, production)``.

        Every system's first step is decided against the cycle-start state.
        Then, in system order, each decision is logged and fired once, and a
        multi-step system decides its next step against a view in which its
        own buffer holds the write it has staged so far; nobody else sees
        that view.  A system's last write in the cycle is the one committed.
        """
        order = self.shadow_step_order or range(len(self.systems))
        first = {index: decide_shadow(self.systems[index], self.wm, self.mm, t_eval)
                 for index in order}
        staged: dict[int, tuple] = {}
        for index, system in enumerate(self.systems):
            decision = first[index]
            for sub in range(system.steps_per_cycle):
                if decision.kind == "idle":
                    break
                write = self._emit_decision(n, decision)
                if write is not None:
                    staged[index] = write
                if decision.kind != "fire" or sub + 1 == system.steps_per_cycle:
                    break
                view = self.wm
                if index in staged:
                    content, urgent, _ = staged[index]
                    view = copy.copy(self.wm)
                    view.buffers = {**self.wm.buffers, system.buffer: Buffer(
                        name=system.buffer, owner=system.name,
                        content=content, urgent=urgent)}
                decision = decide_shadow(system, view, self.mm, t_eval)
        return staged

    def _emit_decision(self, n: int, decision: ShadowDecision) -> tuple | None:
        """Log a decision's writes; return the last as ``(content, urgent, production)``."""
        system = decision.system
        if decision.kind == "fire":
            production = decision.match.production
            fired = fire(production, decision.match.bindings, self.factory)
            self.trace.append(n, "shadow-fire", {
                "system": system.name, "production": production.name,
                "bindings": dict(decision.match.bindings)})
            writes = [write for write in starmap(buffer_write, fired) if write is not None]
            for content, urgent in writes:
                self._log_write(n, system.name, system.buffer, content, urgent)
                if urgent:
                    self.trace.append(n, "interrupt", {
                        "system": system.name, "buffer": system.buffer,
                        "chunk": content.id})
            return (*writes[-1], production.name) if writes else None
        if decision.kind == "answer":
            chunk = complete_query(decision.query, decision.answer_bindings, self.factory)
        else:
            chunk = self.factory.make(RETRIEVAL_FAILURE, [("query-id", str(decision.query.id))])
        self._log_write(n, system.name, system.buffer, chunk,
                        answers_query=decision.query.id, entry=decision.answered_entry)
        return chunk, False, None

    # phase 4
    def _central_phase(self, n: int, t_now: float, t_eval: float) -> None:
        view = MatchView(self.wm, None, t_eval, inflows=self.inflows)
        conflict = match_all(self.central_productions, view)
        winner = resolve(conflict)
        conflict_names = [m.production.name for m in conflict]
        if winner is None:
            self.trace.append(n, "idle", {"candidates": view.candidates,
                                          "conflict": conflict_names})
            return
        production = winner.production
        fired = fire(production, winner.bindings, self.factory)
        credit = self._reward_may_come(n)
        if credit:
            self.learner.record_fire(production, t_now)
        consumed = self._record_consumption(winner.sources, credit)
        self.trace.append(n, "central-fire", {
            "production": production.name, "bindings": dict(winner.bindings),
            "candidates": view.candidates, "conflict": conflict_names,
            "matched": [{"buffer": b, "chunk": c} for b, c in winner.sources],
            "consumed": consumed})
        for action, content in fired:
            write = buffer_write(action, content)
            if write is not None:  # (content, urgent)
                self.wm.write(CENTRAL, action.target, *write)
                self._log_write(n, CENTRAL, action.target, *write)
            elif action.kind == "emit-reward":
                self._pending_rewards.append(
                    (action.amount, f"production:{production.name}"))
            elif action.kind == "halt":
                self._halt_reason = "halt-action"

    def _reward_may_come(self, n: int) -> bool:
        """Whether a reward can still arrive at cycle ``n`` or later; credit
        is recorded only while one can, so runs without one stay bounded."""
        return self._emits_reward or any(cycle >= n for cycle in self._scheduled)

    # phase 5 (called from the central phase so the fire event carries it)
    def _record_consumption(self, sources, credit: bool) -> list[dict]:
        """Hand each matched buffer's shadow-write credit to the learner
        (when ``credit``), once."""
        consumed = []
        for name, chunk_id in sources:
            buf = self.wm.buffer(name)
            if buf.credit is None:
                continue
            production, write_time = buf.credit
            buf.credit = None
            if credit:
                self.learner.consumed.append((chunk_id, buf.owner, production, write_time))
            consumed.append({"buffer": name, "chunk": chunk_id,
                             "producer": production, "system": buf.owner})
        return consumed

    # phase 4b
    def _commit_staged(self, t_now: float, staged: dict[int, tuple]) -> None:
        for index, (content, urgent, production) in staged.items():
            system = self.systems[index]
            buf = self.wm.write(system.name, system.buffer, content, urgent=urgent)
            if production is not None and isinstance(content, Chunk):
                buf.credit = (production, t_now)

    # phase 6
    def _reward_phase(self, n: int, t_now: float) -> None:
        rewards = list(self._pending_rewards)
        self._pending_rewards.clear()
        for amount in self._scheduled.get(n, ()):
            rewards.append((amount, "schedule"))
        for amount, source in rewards:
            self.trace.append(n, "reward", {"amount": amount, "source": source})
            for update in self.learner.apply_reward(amount, t_now, self._find_production):
                self.trace.append(n, "utility-update", update)

    def _log_write(self, n: int, writer: str, buffer: str, content,
                   urgent: bool = False, **extra) -> None:
        self.trace.append(n, "wm-write", {
            "writer": writer, "buffer": buffer, "content": content_data(content),
            "urgent": urgent, **extra})

    def _log_deposit(self, n: int, entry_id: int, tag: str, source: str, chunk: Chunk | None,
                     *, new: bool = True, salience: float | None = None,
                     has_vector: bool = False) -> None:
        self.trace.append(n, "deposit", {
            "entry": entry_id, "tag": tag, "new": new, "source": source,
            "salience": salience, "content": content_data(chunk), "has_vector": has_vector})

    def _log_error(self, n: int, message: str, predictor: str, payload=None) -> None:
        self.trace.append(n, "error", {
            "message": message, "predictor": predictor, "payload": payload})

    def _find_production(self, system: str, name: str) -> Production | None:
        for owner in self.systems:
            if owner.name == system:
                return next((p for p in owner.productions if p.name == name), None)
        return None

    # phase 7
    def _formation_phase(self, n: int, t_now: float) -> None:
        ttl = self.model.learning.provisional_ttl_s
        for system in self.systems:
            for entry, activation in self._hot:
                if entry.tag not in system.subscriptions:
                    continue
                production = form_retrieval_production(
                    entry, system.name, system.buffer, system.productions, t_now)
                if production is not None:
                    system.productions.append(production)
                    self.trace.append(n, "form", {
                        "production": production.name, "owner": system.name,
                        "entry": entry.id, "activation": activation})
        for system in self.systems:  # formation adds only to shadow pools
            kept, pruned = prune_provisional(system.productions, t_now, ttl)
            system.productions[:] = kept
            for production in pruned:
                self.trace.append(n, "prune", {
                    "production": production.name, "owner": system.name,
                    "age_s": t_now - production.created_at})

    # phase 8
    def _broadcast_phase(self, n: int, t_eval: float) -> None:
        ctx = context_symbols(self.wm, self.mm, t_eval, k=CONTEXT_SYMBOL_COUNT)
        line = None  # built, with the context vector, for the first live peer
        for predictor in self.predictors:
            if isinstance(predictor, ExternalPredictor):
                if line is None and not predictor.stalled:
                    line = encode_context(n, context_vector(ctx, self.book), ctx.symbols)
                if not predictor.send_context(line, n):  # False at once when stalled
                    self._warn_stalled(n, predictor)
                    continue
            else:
                self._predicted.extend(predictor.deliver(ctx.symbols, n))
            self.trace.append(n, "delivery", {
                "predictor": predictor.name, "zero_context": ctx.zero})

    def _warn_stalled(self, n: int, predictor) -> None:
        if predictor.name in self._stall_warned:
            return
        self._stall_warned.add(predictor.name)
        self._log_error(n, f"external predictor {predictor.name!r} stalled; continuing",
                        predictor.name)

    # -- lifecycle ---------------------------------------------------------

    def finish(self, reason: str = "cycles-exhausted") -> Trace:
        """Close externals and finalize the trace with a halt event."""
        for predictor in self.predictors:
            if isinstance(predictor, ExternalPredictor):
                predictor.close()
        if not self.halted:
            self.trace.append(self.cycle, "halt", {"reason": reason})
            self.halted = True
        return self.trace

    def conflict_snapshot(self) -> dict[str, list[str]]:
        """Current conflict sets per engine, computed without side effects.

        Middle-memory reads change nothing that a later step can observe, so
        shadow conditions match against the live middle memory.
        """
        t_eval = self._cycle_time(self.cycle + 1)
        view = MatchView(self.wm, None, t_eval, inflows=self.inflows)
        out = {CENTRAL: [m.production.name
                         for m in match_all(self.central_productions, view)]}
        for system in self.systems:
            sview = MatchView(self.wm, self.mm, t_eval)
            out[system.name] = [m.production.name
                                for m in match_all(system.productions, sview)]
        return out


def run_session(session: Session, cycles: int, after_step=None) -> Session:
    """Step ``session`` up to ``cycles`` times, stopping early on halt.

    ``after_step(session)`` runs after every cycle.  The session is always
    finished, so external predictors are closed even when a step raises.
    """
    try:
        for _ in range(cycles):
            if session.halted:
                break
            session.step()
            if after_step is not None:
                after_step(session)
    finally:
        session.finish()
    return session


def run(model: ModelDefinition, cycles: int, mode: str = "mm", seed: int = 0,
        shadow_step_order: list[int] | None = None) -> Trace:
    """Execute ``cycles`` cycles (or fewer on halt) and return the trace."""
    if cycles < 0:
        raise ValueError("cycle count must be non-negative")
    session = Session(model, mode=mode, seed=seed, shadow_step_order=shadow_step_order)
    return run_session(session, cycles).trace
