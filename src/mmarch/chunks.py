"""Chunks, queries, and pattern matching.

A chunk is a typed bundle of slot/value pairs and is the unit of
communication between every part of the runtime.  A query is a chunk-shaped
pattern whose type or slot values may be the wildcard token ``"?"``.
Matching is strictly binary: a query either matches a chunk (yielding
bindings for its wildcards) or it does not.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import ChunkError

WILDCARD = "?"

# Slot name reserved for the chunk type; it doubles as the binding key for a
# wildcard chunk type in queries.
TYPE_SLOT = "isa"


# Keys one memo holds (legal contents and symbols, predictor answers,
# buffer-only contexts, codebook vectors); a full memo forgets them all and
# refills, so a run that meets ever-new keys keeps it bounded.
MEMO_CAP = 4096


def remember(memo: dict, key, value):
    """Store ``value`` under ``key`` in ``memo`` and return it, clearing
    ``memo`` first once it holds :data:`MEMO_CAP` keys."""
    if len(memo) >= MEMO_CAP:
        memo.clear()
    memo[key] = value
    return value


def _grammar_error(value) -> str | None:
    """Why ``value`` is not a legal symbol, or None when it is one."""
    if not isinstance(value, str) or not value:
        return f"must be a non-empty string, got {value!r}"
    if value.startswith(WILDCARD):
        return f"may not start with the reserved token {WILDCARD!r}"
    if ":" in value or value.split() != [value]:
        return f"{value!r} may not contain ':' or whitespace"
    return utf8_error(value)


def utf8_error(value: str) -> str | None:
    """Why ``value`` cannot be written as UTF-8, or None when it can.

    Only a lone surrogate, such as JSON's ``"\\ud800"`` escape decodes
    to, cannot; the trace is UTF-8, so such a string would stop it from
    being written.  The message shows the string escaped.
    """
    if value.isascii():
        return None
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return f"{value!r} holds a lone surrogate, which UTF-8 cannot encode"
    return None


def _symbol_error(value, legal: dict[str, None] | None = None) -> str | None:
    """:func:`_grammar_error`, skipped for a key of ``legal``.

    ``legal`` is the memo of strings one factory or one parse has already
    found legal: a key passes at once, and a string that passes the check
    joins it through :func:`remember`, so it holds at most :data:`MEMO_CAP`.
    Only strings that passed are kept, so every refusal is checked and
    worded afresh.
    """
    if legal is None:
        return _grammar_error(value)
    if type(value) is str and value in legal:
        return None
    error = _grammar_error(value)
    if error is None and type(value) is str:
        remember(legal, value, None)
    return error


def validate_symbol(name: str, *, what: str = "symbol",
                    legal: dict[str, None] | None = None) -> str:
    """Check that ``name`` is a legal symbol token and return it.

    Symbols are non-empty, contain no whitespace and no ``':'``, are
    never the wildcard token, and UTF-8 can encode them.  ``legal`` is a
    memo of symbols already found legal (see :func:`_symbol_error`).
    """
    error = _symbol_error(name, legal)
    if error is not None:
        raise ChunkError(f"{what} {error}")
    return name


def is_reference(value) -> bool:
    """Whether ``value`` is a ``"?name"`` reference to a binding."""
    return isinstance(value, str) and value != WILDCARD and value.startswith(WILDCARD)


def pattern_errors(ctype, slots, *, wildcards: bool = False, references: bool = False,
                   legal: dict[str, None] | None = None) -> list[tuple[str | None, str]]:
    """Every way ``(ctype, slots)`` breaks the chunk grammar, as ``(slot, message)``.

    ``slot`` is None for the type.  A chunk holds only symbols, under
    distinct slot names other than ``isa``.  Where ``wildcards`` is set (a
    pattern or query) the type and slot values may also be ``"?"``; where
    ``references`` is set (an action template) they may be ``"?name"``.
    Each slot reports at most one violation.  ``legal`` is a memo of symbols
    already found legal (see :func:`_symbol_error`).
    """
    errors = []
    if not (wildcards and ctype == WILDCARD or references and is_reference(ctype)):
        error = _symbol_error(ctype, legal)
        if error is not None:
            errors.append((None, f"chunk type {error}"))
    seen = set()
    for name, value in slots:
        error = _symbol_error(name, legal)
        if error is not None:
            errors.append((name, f"slot name {error}"))
            continue
        if name == TYPE_SLOT:
            errors.append((name, f"slot name {TYPE_SLOT!r} is reserved for the chunk type"))
        elif name in seen:
            errors.append((name, f"duplicate slot name {name!r}"))
        elif not (wildcards and value == WILDCARD or references and is_reference(value)):
            error = _symbol_error(value, legal)
            if error is not None:
                errors.append((name, f"value of slot {name!r} {error}"))
        seen.add(name)
    return errors


def binding_keys(ctype: str, slots) -> tuple[str, ...]:
    """Keys a pattern binds: its wildcard slot names, plus ``isa`` when the
    type itself is a wildcard."""
    keys = tuple(name for name, value in slots if value == WILDCARD)
    return (TYPE_SLOT, *keys) if ctype == WILDCARD else keys


def references(ctype: str, slots) -> tuple[str, ...]:
    """Binding names a template's ``"?name"`` references use, type first."""
    return tuple(value[1:] for value in (ctype, *(v for _, v in slots))
                 if is_reference(value))


def _render(head: str, slots) -> str:
    """``head(name:value ...)``, the text of a chunk or a query."""
    return f"{head}({' '.join(f'{n}:{v}' for n, v in slots)})"


@dataclass(frozen=True)
class Template:
    """Chunk-shaped record: a type plus ordered slot pairs.

    Models declare condition patterns and action templates as these, and
    actions instantiate them into chunks or queries; which of ``"?"`` and
    ``"?name"`` each may hold is :func:`pattern_errors`'s to say.
    """

    ctype: str
    slots: tuple[tuple[str, str], ...] = ()

    @classmethod
    def from_chunk(cls, chunk: Chunk) -> Template:
        return cls(chunk.ctype, chunk.slots)


@dataclass(frozen=True)
class Chunk:
    """Immutable typed slot/value record.

    Equality compares content (type and slots, in declaration order); ``id``
    identifies the instance and is excluded from comparison.  Construct
    through :func:`make_chunk` or :class:`ChunkFactory`, which validate.
    """

    ctype: str
    slots: tuple[tuple[str, str], ...]
    id: int = field(compare=False)

    def get(self, slot: str) -> str | None:
        for name, value in self.slots:
            if name == slot:
                return value
        return None

    def values(self) -> tuple[str, ...]:
        """Slot values in declaration order (spreading-activation sources)."""
        return tuple([value for _, value in self.slots])

    def symbols(self) -> frozenset[str]:
        """Symbols this chunk can be reached by: its type plus slot values."""
        return frozenset((self.ctype, *self.values()))

    def content_key(self) -> tuple:
        """Hashable identity of the chunk's content, ignoring instance id."""
        return (self.ctype, self.slots)

    def __str__(self) -> str:
        return _render(self.ctype, self.slots)


@dataclass(frozen=True)
class Query:
    """Chunk pattern; type and slot values may be the wildcard ``"?"``.

    A query with zero wildcards is an exact-match pattern.
    """

    ctype: str
    slots: tuple[tuple[str, str], ...]
    id: int = field(compare=False)

    def has_wildcards(self) -> bool:
        return self.ctype == WILDCARD or any(v == WILDCARD for _, v in self.slots)

    def known_values(self) -> tuple[str, ...]:
        return tuple(v for _, v in self.slots if v != WILDCARD)

    def __str__(self) -> str:
        return _render(f"{self.ctype}?", self.slots)


class ChunkFactory:
    """Allocates chunk and query ids from a private counter.

    A run owns one factory so that ids, and therefore traces, are
    reproducible regardless of what else the process has created.

    A factory also remembers the contents it has found legal, as
    ``(wildcards, ctype, slots)`` keys: a run builds most of its chunks
    from a handful of contents, and each is checked against the grammar
    only the first time.  A remembered key is an equal tuple that already
    passed every check, so no result or message changes.  A new content is
    checked in full, but each symbol in it once per factory: the factory
    also keeps the symbols it has found legal (see :func:`_symbol_error`).
    Each memo holds at most :data:`MEMO_CAP` keys (see :func:`remember`).
    """

    def __init__(self):
        self._count = itertools.count()
        self._legal: dict[tuple, None] = {}
        self._symbols: dict[str, None] = {}

    def _checked(self, ctype, slots, *, wildcards: bool) -> tuple[tuple[str, str], ...]:
        """``slots`` (pairs or a mapping) as a tuple of pairs; raises the first
        :func:`pattern_errors` violation as a :class:`ChunkError`.

        A content whose key this factory remembers returns at once.  Any
        other content takes the full check, and its key is remembered only
        once that check has passed.  ``wildcards`` is part of the key, so a
        ``"?"`` accepted in a query is still refused in a chunk; an
        unhashable content (a list from a bad document) is checked in full
        every time, and once it passes, its pairs (lists, say) become tuples,
        so every chunk and query hashes.
        """
        slots = tuple(slots.items() if hasattr(slots, "items") else slots)
        key = (wildcards, ctype, slots)
        try:
            if key in self._legal:
                return slots
        except TypeError:
            key = None
        errors = pattern_errors(ctype, slots, wildcards=wildcards, legal=self._symbols)
        if errors:
            raise ChunkError(errors[0][1])
        if key is None:
            return tuple(map(tuple, slots))
        remember(self._legal, key, None)
        return slots

    def make(self, ctype: str, slots=()) -> Chunk:
        """Build a chunk with this factory's next id."""
        return Chunk(ctype, self._checked(ctype, slots, wildcards=False), next(self._count))

    def make_query(self, ctype: str, slots=()) -> Query:
        """Build a query with this factory's next id."""
        return Query(ctype, self._checked(ctype, slots, wildcards=True), next(self._count))


# Chunks and queries built outside a run take their ids from this one
# process-wide factory.
PROCESS_FACTORY = ChunkFactory()
make_chunk = PROCESS_FACTORY.make
make_query = PROCESS_FACTORY.make_query


def match_query(q: Query, c: Chunk) -> dict[str, str] | None:
    """Match a query against a chunk.

    Returns a binding map (wildcard slot name -> matched symbol, with the
    ``isa`` key standing in for a wildcard chunk type) when every
    non-wildcard element of the query equals the chunk's and every slot
    the query names exists in the chunk.  Chunks may carry extra slots.
    Returns ``None`` on non-match.
    """
    bindings: dict[str, str] = {}
    if q.ctype == WILDCARD:
        bindings[TYPE_SLOT] = c.ctype
    elif q.ctype != c.ctype:
        return None
    for name, value in q.slots:
        actual = c.get(name)
        if actual is None:
            return None
        if value == WILDCARD:
            bindings[name] = actual
        elif value != actual:
            return None
    return bindings


def complete_query(q: Query, bindings: dict[str, str], factory: ChunkFactory) -> Chunk:
    """Substitute bindings into a query's wildcards, yielding a chunk."""
    ctype = bindings[TYPE_SLOT] if q.ctype == WILDCARD else q.ctype
    slots = []
    for name, value in q.slots:
        if value == WILDCARD:
            try:
                value = bindings[name]
            except KeyError:
                raise ChunkError(f"no binding for wildcard slot {name!r}") from None
        slots.append((name, value))
    return factory.make(ctype, slots)
