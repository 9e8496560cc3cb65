"""Per-layer spans and exact work counts, recorded from outside the program.

A :class:`Tracer` replaces a fixed list of the program's functions with
wrappers while it is installed, and restores the originals afterwards.
Functions that other modules import by name (``pack``, ``match_all``,
``context_vector``, ...) are replaced in every ``mmarch`` module that holds
them, because the caller looks them up there.  Each wrapper keeps a stack of
child time, so a span's *self* time excludes the wrapped calls it made.
Counting-only wrappers (``chunks.match_query``, numpy's FFTs) add no span;
their small cost lands in the caller's self time.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        self._packed: set = set()

    # -- recording -----------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of every total so far; windows are differences of two."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update({f"{name}.self_s": s for name, s in self.self_s.items()})
        out.update({f"{name}.total_s": s for name, s in self.total_s.items()})
        out.update(self.counts)
        return out

    def _span(self, name, fn, after=None):
        stack, calls, clock = self._stack, self.calls, time.perf_counter
        self_s, total_s = self.self_s, self.total_s

        def wrapper(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - stack.pop()
                total_s[name] += elapsed
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks that turn arguments and results into work counts ----------

    def _base_level(self, args, _result):
        self.counts["memory.base_level.terms"] += len(args[1].presentations)

    def _retrieve(self, args, result):
        self.counts["memory.retrieve.scanned"] += len(args[0].entries)
        self.counts["memory.retrieve.hits"] += len(result)

    def _pack(self, args, _result):
        key = args[0].content_key()
        if key in self._packed:
            self.counts["codec.pack.repeats"] += 1
        else:
            self._packed.add(key)

    def _match_all(self, args, result):
        self.counts["productions.tested"] += len(args[0])
        self.counts["productions.matched"] += len(result)

    def _formed(self, _args, result):
        if result is not None:
            self.counts["productions.formed"] += 1

    def _decide(self, _args, result):
        self.counts[f"shadows.decide.{result.kind}"] += 1

    def _deliver(self, _args, result):
        self.counts["predictors.predictions"] += len(result)

    # -- installation ----------------------------------------------------

    def _replace(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _replace_everywhere(self, module: str, attr: str, make) -> None:
        original = getattr(sys.modules[module], attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if (name == "mmarch" or name.startswith("mmarch.")) \
                    and getattr(mod, attr, None) is original:
                self._replace(mod, attr, wrapper)

    def install(self) -> None:
        (chunks, codec, memory, metrics, model, predictors, productions, runtime,
         shadows, trace) = (importlib.import_module(f"mmarch.{name}") for name in (
             "chunks", "codec", "memory", "metrics", "model", "predictors",
             "productions", "runtime", "shadows", "trace"))

        methods = [
            (runtime.Session, "__init__", "runtime.session_init", None),
            (runtime.Session, "step", "runtime.step", None),
            (predictors.NgramPredictor, "deliver", "predictors.deliver", self._deliver),
            (predictors.AssociativePredictor, "deliver", "predictors.deliver",
             self._deliver),
            (memory.MiddleMemory, "deposit", "memory.deposit", None),
            (memory.MiddleMemory, "sweep", "memory.sweep", None),
            (memory.MiddleMemory, "retrieve", "memory.retrieve", self._retrieve),
            (memory.MiddleMemory, "retrievable", "memory.retrievable", None),
            (memory.MiddleMemory, "activation", "memory.activation", None),
            (memory.MiddleMemory, "base_level", "memory.base_level", self._base_level),
            (memory.MiddleMemory, "spreading", "memory.spreading", None),
            (trace.Trace, "append", "trace.append", None),
        ]
        for cls, attr, name, after in methods:
            self._replace(cls, attr, self._span(name, getattr(cls, attr), after))

        functions = [
            (model, "load_model", "model.load", None),
            (model, "parse_model", "model.load", None),
            (memory, "context_vector", "memory.context", None),
            (memory, "context_symbols", "memory.context", None),
            (codec, "pack", "codec.pack", self._pack),
            (codec, "pack_query", "codec.pack_query", None),
            (productions, "match_all", "productions.match_all", self._match_all),
            (productions, "resolve", "productions.resolve", None),
            (productions, "fire", "productions.fire", None),
            (productions, "form_retrieval_production", "productions.form", self._formed),
            (productions, "prune_provisional", "productions.prune", None),
            (shadows, "decide_shadow", "shadows.decide", self._decide),
            (trace, "trace_to_bytes", "trace.to_bytes", None),
            (metrics, "metrics", "metrics.metrics", None),
        ]
        for mod, attr, name, after in functions:
            self._replace_everywhere(
                mod.__name__, attr,
                lambda fn, name=name, after=after: self._span(name, fn, after))

        self._replace_everywhere(chunks.__name__, "match_query",
                                 lambda fn: self._counter("chunks.match_query", fn))
        for attr in ("rfft", "irfft"):
            self._replace(np.fft, attr, self._counter("codec.fft", getattr(np.fft, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def window(before: dict, after: dict) -> dict:
    """Totals accumulated between two snapshots."""
    return {key: value - before.get(key, 0) for key, value in after.items()}


def layer_self_s(totals: dict) -> dict[str, float]:
    """Self seconds per layer (the span name's first component)."""
    out: dict[str, float] = defaultdict(float)
    for key, value in totals.items():
        if key.endswith(".self_s"):
            out[key.split(".", 1)[0]] += value
    return dict(out)
