"""Model definitions: the declarative file format and its validation.

A model file is a JSON document naming the buffers, shadow systems,
productions, predictors, store parameters, reward schedule, and initial
contents of a run.  Loading fills in every default and validates the
whole document, reporting each violation with a path into the document
(e.g. ``shadow_systems[1].productions[0].actions[0]``).  The serializer
uses one canonical key order so load(write(m)) == m.

Every field is declared once, on its dataclass: the default, and a reader
that type-checks the JSON value, range-checks it and names the message a
bad value earns.  Parsing, defaulting and :func:`model_to_dict` all walk
those declarations.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from pathlib import Path

from .chunks import (
    Template, binding_keys, pattern_errors, references, utf8_error, validate_symbol,
)
from .codec import DEFAULT_DIMENSION
from .errors import ChunkError, ModelValidationError
from .memory import (
    CENTRAL,
    DEFAULT_CAPACITY,
    DEFAULT_DECAY,
    DEFAULT_FORGET_THRESHOLD,
    DEFAULT_RETRIEVAL_THRESHOLD,
    DEFAULT_SPREAD_WEIGHT,
)
from .predictors import DEFAULT_EMIT_ISA, DEFAULT_EMIT_SLOT, DEFAULT_ORDER

DEFAULT_LEARNING_RATE = 0.2
DEFAULT_TIME_COST = 0.0
DEFAULT_FORMATION_THRESHOLD = 2.0
DEFAULT_PROVISIONAL_TTL = 60.0


@dataclass(frozen=True)
class ActionKind:
    """What an action kind needs set, who may use it, and whether it may be urgent.

    ``needs`` names :class:`ActionDef` fields (``target``, ``chunk``,
    ``query``, ``amount``); a kind that needs ``chunk`` instantiates a chunk
    template when fired, one that needs ``query`` a query template (see
    :func:`.productions.fire`), and one that needs ``target`` writes that
    buffer (see :func:`.productions.buffer_write`).
    """

    needs: tuple[str, ...] = ()
    central_only: bool = False
    may_be_urgent: bool = False


ACTION_KINDS = {
    "write-buffer": ActionKind(("target", "chunk"), may_be_urgent=True),
    "clear-buffer": ActionKind(("target",)),
    "post-query": ActionKind(("target", "query")),
    "emit-reward": ActionKind(("amount",), central_only=True),
    "halt": ActionKind(central_only=True),
}

# A formed retrieval production is named this prefix and its entry's id;
# a model's own production may not take such a name.
FORMED_PREFIX = "retrieve-"

# Predictor kind -> the optional fields the canonical form always carries for it.
PREDICTOR_KINDS = {
    "ngram": ("order", "corpus", "emit_isa", "emit_slot"),
    "associative": ("pairs", "emit_isa", "emit_slot"),
    "external": (),
}


class _Collector:
    """Accumulates (path, message) violations during parse and validation.

    It also keeps the symbols found legal so far, so a parse checks each
    symbol against the grammar once (see :func:`.chunks._symbol_error`).
    """

    def __init__(self):
        self.violations: list[tuple[str, str]] = []
        self.legal: dict[str, None] = {}

    def add(self, path: str, message: str) -> None:
        self.violations.append((path, message))

    def reported(self, path: str) -> bool:
        return any(p == path for p, _ in self.violations)

    def raise_if_any(self) -> None:
        if self.violations:
            raise ModelValidationError(self.violations)


# --- field readers -----------------------------------------------------------
#
# A reader takes (JSON value, path, collector) and returns the field's value,
# or _INVALID after reporting why the value does not fit.

_INVALID = object()


def _field(default=MISSING, read=None, *, drop: bool = False):
    """A model field and its reader; ``drop`` discards the item on a bad value."""
    return field(default=default, metadata={"read": read, "drop": drop})


def _as(kind, value):
    """``value`` as a JSON ``kind``, or _INVALID.  Ints pass as finite floats;
    booleans are not numbers."""
    if kind is float and type(value) in (int, float):
        try:
            value = float(value)
        except OverflowError:
            return _INVALID
        return value if math.isfinite(value) else _INVALID
    return value if type(value) is kind else _INVALID


def _scalar(kind, message: str, test=None):
    """One value of type ``kind`` passing ``test``; ``message`` may name {value!r}."""
    def read(value, path, errors):
        got = _as(kind, value)
        if got is not _INVALID and (test is None or test(got)):
            return got
        errors.add(path, message.format(value=value))
        return _INVALID
    return read


def _scalars(kind, message: str, test=None):
    """A list of ``kind`` values, rejected whole.  A value of exactly
    ``kind`` passes as it is, a float only when finite; any other goes
    through :func:`_as`."""
    exact = kind is not float

    def read(value, path, errors):
        if type(value) is list:
            got = [x if type(x) is kind and (exact or math.isfinite(x)) else _as(kind, x)
                   for x in value]
            if _INVALID not in got and (test is None or test(got)):
                return tuple(got)
        errors.add(path, message)
        return _INVALID
    return read


def _symbol(what: str):
    def read(value, path, errors):
        try:
            return validate_symbol(value, what=what, legal=errors.legal)
        except ChunkError as exc:
            errors.add(path, str(exc))
            return _INVALID
    return read


def _name(what: str):
    """A non-empty name that UTF-8 can encode, as the trace and the
    terminal that show it need."""
    return _scalar(str, what + " needs a non-empty name that UTF-8 can encode, got {value!r}",
                   lambda v: bool(v) and utf8_error(v) is None)


def _items(read_item, message: str | None = None):
    """A list whose bad items are reported at their index and left out."""
    def read(value, path, errors):
        if type(value) is not list:
            key = path.rsplit(".", 1)[-1]
            errors.add(path, message or f"{key} has wrong type {type(value).__name__}")
            return _INVALID
        out = []
        for i, item in enumerate(value):
            got = read_item(item, f"{path}[{i}]", errors)
            if got is not _INVALID:
                out.append(got)
        return tuple(out)
    return read


def _record(cls, message: str):
    """A nested JSON object read as ``cls``; ``message`` may name its {type}."""
    def read(value, path, errors):
        if type(value) is not dict:
            errors.add(path, message.format(type=type(value).__name__))
            return _INVALID
        got = _parse_record(cls, value, path, errors)
        return _INVALID if got is None else got
    return read


def _records(cls, what: str):
    return _items(_record(cls, what + " has wrong type {type}"))


def _pair(value, path, errors):
    if (type(value) is not list or len(value) not in (2, 3)
            or not all(isinstance(x, str) for x in value[:2])):
        errors.add(path, "pairs are [a, b] or [a, b, weight]")
        return _INVALID
    try:
        validate_symbol(value[0], what="pair symbol", legal=errors.legal)
        validate_symbol(value[1], what="pair symbol", legal=errors.legal)
    except ChunkError as exc:
        errors.add(path, str(exc))
        return _INVALID
    if len(value) == 3 and (_as(int, value[2]) is _INVALID or value[2] < 1):
        errors.add(path, "pair weight must be a positive integer")
        return _INVALID
    return tuple(value)


def _pattern(*, wildcards: bool, refs: bool):
    """A chunk-shaped pattern or template (see :func:`pattern_errors`)."""
    def read(obj, path, errors):
        if type(obj) is not dict:
            errors.add(path, f"pattern has wrong type {type(obj).__name__}")
            return _INVALID
        for key in obj:
            if key not in ("isa", "slots"):
                errors.add(f"{path}.{key}", "unknown key")
        ctype = obj.get("isa")
        if not isinstance(ctype, str):
            errors.add(f"{path}.isa", "missing or non-string chunk type")
            return _INVALID
        slots = obj.get("slots", {})
        pairs = slots.items() if type(slots) is dict else ()
        for slot, message in pattern_errors(ctype, pairs, wildcards=wildcards,
                                            references=refs, legal=errors.legal):
            errors.add(f"{path}.isa" if slot is None else f"{path}.slots.{slot}", message)
        if type(slots) is not dict:
            errors.add(f"{path}.slots", f"slots has wrong type {type(slots).__name__}")
        return Template(ctype, tuple((n, v) for n, v in pairs if isinstance(v, str)))
    return read


_BUFFER_REF = _scalar(str, "unknown buffer {value!r}")


# --- the model ---------------------------------------------------------------

@dataclass(frozen=True)
class ConditionDef:
    buffer: str | None = _field(None, _BUFFER_REF)
    mm_tags: tuple[str, ...] | None = _field(None, _items(_symbol("tag")), drop=True)
    pattern: Template | None = _field(None, _pattern(wildcards=True, refs=False))
    negated: bool = _field(False, _scalar(bool, "negated must be a boolean"))


@dataclass(frozen=True)
class ActionDef:
    kind: str = _field(read=_scalar(str, "unknown action kind {value!r}",
                                    ACTION_KINDS.__contains__), drop=True)
    target: str | None = _field(None, _BUFFER_REF)
    chunk: Template | None = _field(None, _pattern(wildcards=False, refs=True))
    query: Template | None = _field(None, _pattern(wildcards=True, refs=True))
    amount: float = _field(0.0, _scalar(float, "emit-reward needs a finite amount"))
    urgent: bool = _field(False, _scalar(bool, "urgent must be a boolean"))


@dataclass(frozen=True)
class ProductionDef:
    name: str = _field(read=_name("production"), drop=True)
    conditions: tuple[ConditionDef, ...] = _field((), _records(ConditionDef, "condition"))
    actions: tuple[ActionDef, ...] = _field((), _records(ActionDef, "action"))
    utility: float = _field(0.0, _scalar(float, "utility must be finite"))
    permanent: bool = _field(True, _scalar(bool, "permanent must be a boolean"))


@dataclass(frozen=True)
class BufferDef:
    name: str = _field(read=_symbol("buffer name"), drop=True)
    owner: str = _field(CENTRAL, _scalar(str, "unknown owner {value!r}"))


@dataclass(frozen=True)
class ShadowSystemDef:
    name: str = _field(read=_symbol("system name"), drop=True)
    buffer: str | None = _field(None, _BUFFER_REF)
    subscriptions: tuple[str, ...] = _field((), _items(_symbol("subscription tag")))
    productions: tuple[ProductionDef, ...] = _field((), _records(ProductionDef, "production"))
    steps_per_cycle: int = _field(1, _scalar(int, "must be a positive integer",
                                             lambda v: v >= 1))


@dataclass(frozen=True)
class PredictorDef:
    name: str = _field(read=_name("predictor"), drop=True)
    kind: str = _field(read=_scalar(str, f"kind must be one of {tuple(PREDICTOR_KINDS)}",
                                    PREDICTOR_KINDS.__contains__), drop=True)
    tag: str = _field(read=_symbol("origin tag"), drop=True)
    rate: int = _field(1, _scalar(int, "rate must be a non-negative integer", lambda v: v >= 0))
    order: int = _field(DEFAULT_ORDER, _scalar(int, "order must be a positive integer",
                                               lambda v: v >= 1))
    corpus: tuple[tuple[str, ...], ...] = _field((), _items(_items(
        _symbol("corpus symbol"), "corpus entries are symbol lists")))
    pairs: tuple[tuple, ...] = _field((), _items(_pair))
    emit_isa: str = _field(DEFAULT_EMIT_ISA, _symbol("emit_isa"))
    emit_slot: str = _field(DEFAULT_EMIT_SLOT, _symbol("emit_slot"))
    command: tuple[str, ...] | None = _field(
        None, _scalars(str, "command must be a list of strings"))
    host: str | None = _field(None, _scalar(str, "host must be a string"))
    port: int | None = _field(None, _scalar(int, "port must be an integer in [0, 65535]",
                                            lambda v: 0 <= v <= 65535))


@dataclass(frozen=True)
class CodebookConfig:
    dimension: int = _field(DEFAULT_DIMENSION, _scalar(
        int, "dimension must be a positive even integer", lambda v: v >= 2 and v % 2 == 0))
    seed: int = _field(0, _scalar(int, "seed must be a non-negative integer", lambda v: v >= 0))


@dataclass(frozen=True)
class MiddleMemoryConfig:
    decay: float = _field(DEFAULT_DECAY, _scalar(float, "decay must be positive",
                                                 lambda v: v > 0))
    spread_weight: float = _field(DEFAULT_SPREAD_WEIGHT, _scalar(
        float, "spread weight must be a finite number"))
    retrieval_threshold: float = _field(DEFAULT_RETRIEVAL_THRESHOLD, _scalar(
        float, "retrieval threshold must be a finite number"))
    forget_threshold: float = _field(DEFAULT_FORGET_THRESHOLD, _scalar(
        float, "forgetting threshold must be a finite number"))
    noise: float = _field(0.0, _scalar(float, "noise must be non-negative", lambda v: v >= 0))
    formation_threshold: float = _field(DEFAULT_FORMATION_THRESHOLD, _scalar(
        float, "formation threshold must be a finite number"))


@dataclass(frozen=True)
class LearningConfig:
    rate: float = _field(DEFAULT_LEARNING_RATE, _scalar(
        float, "learning rate must be in (0, 1]", lambda v: 0.0 < v <= 1.0))
    time_cost: float = _field(DEFAULT_TIME_COST, _scalar(
        float, "time cost must be non-negative", lambda v: v >= 0))
    provisional_ttl_s: float = _field(DEFAULT_PROVISIONAL_TTL, _scalar(
        float, "ttl must be positive", lambda v: v > 0))


@dataclass(frozen=True)
class RewardDef:
    cycle: int = _field(read=_scalar(int, "reward cycle must be a non-negative integer",
                                     lambda v: v >= 0), drop=True)
    amount: float = _field(read=_scalar(float, "reward amount must be finite"), drop=True)


@dataclass(frozen=True)
class InitialWMDef:
    buffer: str | None = _field(None, _BUFFER_REF, drop=True)
    chunk: Template | None = _field(None, _pattern(wildcards=False, refs=False))
    query: Template | None = _field(None, _pattern(wildcards=True, refs=False))


@dataclass(frozen=True)
class InitialMMDef:
    tag: str = _field(read=_symbol("origin tag"), drop=True)
    chunk: Template = _field(read=_pattern(wildcards=False, refs=False), drop=True)
    presentations: tuple[float, ...] = _field((0.0,), _scalars(
        float, "presentations must be a non-empty number list", bool))
    links: tuple[int, ...] = _field((), _scalars(int, "links must be a list of item indices"))


@dataclass(frozen=True)
class ModelDefinition:
    name: str = _field(read=_name("model"))
    codebook: CodebookConfig = _field(
        CodebookConfig(), _record(CodebookConfig, "codebook must be an object"))
    wm_capacity: int = _field(DEFAULT_CAPACITY, _scalar(
        int, "capacity must be a positive integer", lambda v: v >= 1))
    cycle_length_ms: int = _field(50, _scalar(
        int, "cycle length must be a positive integer (ms)", lambda v: v >= 1))
    buffers: tuple[BufferDef, ...] = _field((), _records(BufferDef, "buffer"))
    shadow_systems: tuple[ShadowSystemDef, ...] = _field(
        (), _records(ShadowSystemDef, "shadow system"))
    central_productions: tuple[ProductionDef, ...] = _field(
        (), _records(ProductionDef, "production"))
    predictors: tuple[PredictorDef, ...] = _field((), _records(PredictorDef, "predictor"))
    middle_memory: MiddleMemoryConfig = _field(
        MiddleMemoryConfig(), _record(MiddleMemoryConfig, "middle_memory must be an object"))
    learning: LearningConfig = _field(
        LearningConfig(), _record(LearningConfig, "learning must be an object"))
    rewards: tuple[RewardDef, ...] = _field((), _records(RewardDef, "reward"))
    initial_wm: tuple[InitialWMDef, ...] = _field((), _records(InitialWMDef, "initial wm item"))
    initial_mm: tuple[InitialMMDef, ...] = _field((), _records(InitialMMDef, "initial mm item"))


# --- parsing -------------------------------------------------------------------

# Items that need exactly one of two fields: (item name, field, field).
_ONE_OF = {
    ConditionDef: ("condition", "buffer", "mm_tags"),
    InitialWMDef: ("initial wm item", "chunk", "query"),
}

# The violation for an action that lacks a field its kind needs.
_NEEDED = {
    "target": "action needs a buffer target",
    "chunk": "write-buffer needs a chunk template",
    "query": "post-query needs a query template",
    "amount": "emit-reward needs a finite amount",
}


def _check_action(values: dict, obj: dict, path: str, errors: _Collector) -> None:
    # A target is missing unless it read as a string; the rest unless present.
    for name in ACTION_KINDS[values["kind"]].needs:
        if (values if name == "target" else obj).get(name) is None:
            errors.add(f"{path}.{name}", _NEEDED[name])


def _check_predictor(values: dict, obj: dict, path: str, errors: _Collector) -> None:
    kind = values["kind"]
    if kind == "ngram" and not values["corpus"]:
        errors.add(f"{path}.corpus", "ngram predictor needs a corpus")
    if kind == "associative" and not values["pairs"]:
        errors.add(f"{path}.pairs", "associative predictor needs pairs")
    if kind == "external" and not values["command"] and (
            values["host"] is None or values["port"] is None):
        errors.add(path, "external predictor needs command or host+port")
    # A built-in predictor emits emit_isa chunks holding one symbol at emit_slot.
    emitted = ((values["emit_slot"], values["emit_isa"]),)
    for _, message in pattern_errors(values["emit_isa"], emitted, legal=errors.legal):
        errors.add(f"{path}.emit_slot", message)


def _check_thresholds(values: dict, obj: dict, path: str, errors: _Collector) -> None:
    if values["forget_threshold"] > values["retrieval_threshold"]:
        errors.add(f"{path}.forget_threshold",
                   "forgetting threshold must not exceed retrieval threshold")


def _check_history(values: dict, obj: dict, path: str, errors: _Collector) -> None:
    presentations = values["presentations"]
    if list(presentations) != sorted(presentations):
        errors.add(f"{path}.presentations", "presentations must be sorted ascending")
    if presentations[-1] > 0.0:
        errors.add(f"{path}.presentations", "initial presentations must be at or before time 0")


# Checks that span fields, run after every field has been read.
_CHECKS = {
    ActionDef: _check_action,
    PredictorDef: _check_predictor,
    MiddleMemoryConfig: _check_thresholds,
    InitialMMDef: _check_history,
}


@cache
def _specs(cls) -> tuple[frozenset, tuple]:
    """(field names, (name, default, reader, drop) per field) of a model class."""
    specs = tuple((f.name, f.default, f.metadata["read"], f.metadata["drop"])
                  for f in fields(cls))
    return frozenset(name for name, *_ in specs), specs


def _parse_record(cls, obj: dict, path: str, errors: _Collector):
    """Read one JSON object as ``cls``, or return None if the item is dropped.

    Unknown keys are reported first, then each field in declaration order:
    an absent field takes its default, and a bad value is reported and
    replaced by the default, or drops the item when the field says so.
    """
    names, specs = _specs(cls)
    for key in obj:
        if key not in names:
            errors.add(f"{path}.{key}", "unknown key")
    one_of = _ONE_OF.get(cls)
    if one_of is not None:
        what, a, b = one_of
        if (obj.get(a) is None) == (obj.get(b) is None):
            errors.add(path, f"{what} needs exactly one of {a} / {b}")
            return None
    values = {}
    for name, default, read, drop in specs:
        value = obj.get(name, default)
        if value is default and default is not MISSING:  # absent, or null for None
            values[name] = default
            continue
        got = read(None if value is MISSING else value,
                   f"{path}.{name}" if path else name, errors)
        if got is _INVALID:
            if drop:
                return None
            got = None if default is MISSING else default
        values[name] = got
    check = _CHECKS.get(cls)
    if check is not None:
        check(values, obj, path, errors)
    return cls(**values)


def parse_model(document: dict) -> ModelDefinition:
    """Build a :class:`ModelDefinition` from a JSON document and validate it.

    Raises :class:`ModelValidationError` listing every violation found.
    """
    errors = _Collector()
    if not isinstance(document, dict):
        errors.add("", "model document must be a JSON object")
        errors.raise_if_any()
    model = _parse_record(ModelDefinition, document, "", errors)
    _validate_semantics(model, errors)
    errors.raise_if_any()
    return model


def _check_production_semantics(production: ProductionDef, path: str,
                                system: ShadowSystemDef | None, buffers: dict,
                                errors: _Collector) -> None:
    """Check one production; ``system`` is its owner, None for central."""
    if re.fullmatch(re.escape(FORMED_PREFIX) + "[0-9]+", production.name):
        errors.add(f"{path}.name", f"{production.name!r} is reserved for formed productions")
    bindable: set[str] = set()
    for i, cond in enumerate(production.conditions):
        cpath = f"{path}.conditions[{i}]"
        if cond.buffer is not None and cond.buffer not in buffers:
            errors.add(f"{cpath}.buffer", f"unknown buffer {cond.buffer!r}")
        if cond.mm_tags is not None:
            if not cond.mm_tags:
                errors.add(f"{cpath}.mm_tags", "mm_tags must name at least one tag")
            if system is None:
                errors.add(cpath, "central productions match working memory only")
            else:
                extra = set(cond.mm_tags) - set(system.subscriptions)
                if extra:
                    errors.add(f"{cpath}.mm_tags",
                               f"tags {sorted(extra)} outside {system.name!r} subscriptions")
        if not cond.negated and cond.pattern is not None:
            bindable.update(binding_keys(cond.pattern.ctype, cond.pattern.slots))
    for i, action in enumerate(production.actions):
        apath = f"{path}.actions[{i}]"
        kind = ACTION_KINDS[action.kind]
        if system is not None and kind.central_only:
            errors.add(f"{apath}.kind",
                       f"{action.kind} is reserved for central productions")
        if action.target is not None:
            if action.target not in buffers:
                errors.add(f"{apath}.target", f"unknown buffer {action.target!r}")
            elif (system is not None and system.buffer is not None
                  and action.target != system.buffer):
                errors.add(f"{apath}.target",
                           f"shadow system {system.name!r} may write only its own buffer "
                           f"{system.buffer!r}, not {action.target!r}")
        for template in (action.chunk, action.query):
            if template is None:
                continue
            for ref in references(template.ctype, template.slots):
                if ref not in bindable:
                    errors.add(apath, f"binding reference ?{ref} is not bound by "
                                      "any non-negated condition")
        if action.urgent and not kind.may_be_urgent:
            errors.add(apath, "only write-buffer actions can be urgent")


def _validate_semantics(model: ModelDefinition, errors: _Collector) -> None:
    """The rules that span records.  Each name index keeps the first item
    with a name (``index.setdefault(name, ...)``): a name stands for that
    item, and a later item with the name is a duplicate."""
    if len(model.buffers) > model.wm_capacity:
        errors.add("buffers", f"{len(model.buffers)} buffers exceed capacity "
                              f"{model.wm_capacity}")
    systems: dict[str, ShadowSystemDef] = {}
    for system in model.shadow_systems:
        systems.setdefault(system.name, system)
    buffers: dict[str, int] = {}
    for i, buffer in enumerate(model.buffers):
        if buffers.setdefault(buffer.name, i) != i:
            errors.add(f"buffers[{i}].name", f"duplicate buffer {buffer.name!r}")
        if buffer.owner != CENTRAL and buffer.owner not in systems:
            errors.add(f"buffers[{i}].owner", f"unknown owner {buffer.owner!r}")

    for i, system in enumerate(model.shadow_systems):
        path = f"shadow_systems[{i}]"
        if system.name == CENTRAL:
            errors.add(f"{path}.name", "'central' is reserved")
        if systems[system.name] is not system:
            errors.add(f"{path}.name", f"duplicate system {system.name!r}")
        if not system.subscriptions:
            errors.add(f"{path}.subscriptions", "subscriptions must be non-empty")
        if errors.reported(f"{path}.buffer"):
            continue  # a buffer that failed to parse is reported once, by the parser
        if [b.name for b in model.buffers if b.owner == system.name] != [system.buffer]:
            errors.add(f"{path}.buffer",
                       f"system {system.name!r} must own exactly one declared buffer "
                       f"named {system.buffer!r}")

    # (path, production, owning system); the system is None for a central
    # production, and for one of a shadow system named "central" (reported above).
    owned = [(f"central_productions[{i}]", production, None)
             for i, production in enumerate(model.central_productions)]
    owned += [(f"shadow_systems[{i}].productions[{j}]", production,
               None if system.name == CENTRAL else systems[system.name])
              for i, system in enumerate(model.shadow_systems)
              for j, production in enumerate(system.productions)]
    first: dict = {}
    for i, (path, production, system) in enumerate(owned):
        if first.setdefault(production.name, i) != i:
            errors.add(f"{path}.name", f"duplicate production {production.name!r}")
        _check_production_semantics(production, path, system, buffers, errors)

    names, tags = {}, {}
    for i, predictor in enumerate(model.predictors):
        if names.setdefault(predictor.name, i) != i:
            errors.add(f"predictors[{i}].name", f"duplicate predictor {predictor.name!r}")
        if tags.setdefault(predictor.tag, i) != i:
            errors.add(f"predictors[{i}].tag", f"duplicate origin tag {predictor.tag!r}")

    first = {}
    for i, item in enumerate(model.initial_wm):
        path = f"initial_wm[{i}].buffer"
        if item.buffer not in buffers:
            errors.add(path, f"unknown buffer {item.buffer!r}")
        if first.setdefault(item.buffer, i) != i:
            errors.add(path, f"buffer {item.buffer!r} initialized twice")
    first = {}
    for i, item in enumerate(model.initial_mm):
        if first.setdefault((item.tag, item.chunk), i) != i:
            errors.add(f"initial_mm[{i}]", "duplicate (tag, content) entry")
        for j, link in enumerate(item.links):
            if link == i:
                errors.add(f"initial_mm[{i}].links[{j}]", "self-links are not allowed")
            elif not 0 <= link < len(model.initial_mm):
                errors.add(f"initial_mm[{i}].links[{j}]", f"no initial item {link}")


def validate_for_mode(model: ModelDefinition, mode: str) -> None:
    """Mode-dependent checks run just before execution."""
    errors = _Collector()
    if mode not in ("mm", "pipeline"):
        errors.add("mode", f"mode must be 'mm' or 'pipeline', got {mode!r}")
    if mode == "pipeline":
        subscribed = set()
        for system in model.shadow_systems:
            subscribed.update(system.subscriptions)
        for i, predictor in enumerate(model.predictors):
            if predictor.tag not in subscribed:
                errors.add(f"predictors[{i}].tag",
                           f"pipeline mode routes by tag; no shadow system "
                           f"subscribes to {predictor.tag!r}")
    errors.raise_if_any()




# --- canonical serialization -------------------------------------------------

_ACTION_FIELDS = {"target", "chunk", "query", "amount", "urgent"}
_PREDICTOR_FIELDS = {"order", "corpus", "pairs", "emit_isa", "emit_slot",
                     "command", "host", "port"}


def _optional(record) -> set[str]:
    """Fields the canonical form leaves out of ``record`` while at their default."""
    if isinstance(record, ActionDef):
        kind = ACTION_KINDS[record.kind]
        return _ACTION_FIELDS - set(kind.needs) - ({"urgent"} if kind.may_be_urgent else set())
    if isinstance(record, PredictorDef):
        return _PREDICTOR_FIELDS - set(PREDICTOR_KINDS[record.kind])
    one_of = _ONE_OF.get(type(record))
    return set(one_of[1:]) if one_of is not None else set()


def _to_json(value):
    if isinstance(value, Template):
        return {"isa": value.ctype, "slots": dict(value.slots)}
    if isinstance(value, tuple):
        return [_to_json(item) for item in value]
    if not is_dataclass(value):
        return value
    optional = _optional(value)
    out = {}
    for name, default, _, _ in _specs(type(value))[1]:
        item = getattr(value, name)
        if not (name in optional and item == default):
            out[name] = _to_json(item)
    return out


def model_to_dict(model: ModelDefinition) -> dict:
    """Canonical JSON document for a model, all defaults explicit."""
    return _to_json(model)


def load_model(path) -> ModelDefinition:
    """Load, default-fill, and validate a model file."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ModelValidationError([("", f"cannot read model file: {exc}")]) from None
    except UnicodeDecodeError as exc:
        raise ModelValidationError([("", f"not UTF-8: {exc}")]) from None
    except (ValueError, RecursionError) as exc:  # or an int past the digit limit
        raise ModelValidationError([("", f"not valid JSON: {exc}")]) from None
    return parse_model(document)


def write_model(model: ModelDefinition, path) -> None:
    Path(path).write_text(dumps_model(model), encoding="utf-8")


def dumps_model(model: ModelDefinition) -> str:
    return json.dumps(model_to_dict(model), ensure_ascii=False, indent=2) + "\n"
