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


def validate_symbol(name: str, *, what: str = "symbol") -> str:
    """Check that ``name`` is a legal symbol token and return it.

    Symbols are non-empty, contain no whitespace and no ``':'``, and are
    never the wildcard token.
    """
    if not isinstance(name, str) or not name:
        raise ChunkError(f"{what} must be a non-empty string, got {name!r}")
    if name.startswith(WILDCARD):
        raise ChunkError(f"{what} may not start with the reserved token {WILDCARD!r}")
    if ":" in name or any(ch.isspace() for ch in name):
        raise ChunkError(f"{what} {name!r} may not contain ':' or whitespace")
    return name


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

    def slot_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.slots)

    def as_dict(self) -> dict[str, str]:
        return dict(self.slots)

    def values(self) -> tuple[str, ...]:
        """Slot values in declaration order (spreading-activation sources)."""
        return tuple(value for _, value in self.slots)

    def symbols(self) -> frozenset[str]:
        """Symbols this chunk can be reached by: its type plus slot values."""
        return frozenset((self.ctype, *self.values()))

    def content_key(self) -> tuple:
        """Hashable identity of the chunk's content, ignoring instance id."""
        return (self.ctype, self.slots)

    def __str__(self) -> str:
        inner = " ".join(f"{n}:{v}" for n, v in self.slots)
        return f"{self.ctype}({inner})" if inner else f"{self.ctype}()"


@dataclass(frozen=True)
class Query:
    """Chunk pattern; type and slot values may be the wildcard ``"?"``.

    A query with zero wildcards is an exact-match pattern.
    """

    ctype: str
    slots: tuple[tuple[str, str], ...]
    id: int = field(compare=False)

    def get(self, slot: str) -> str | None:
        for name, value in self.slots:
            if name == slot:
                return value
        return None

    def wildcard_slots(self) -> tuple[str, ...]:
        """Binding keys this query produces: wildcard slot names, plus
        ``isa`` when the type itself is a wildcard."""
        keys = tuple(name for name, value in self.slots if value == WILDCARD)
        if self.ctype == WILDCARD:
            return (TYPE_SLOT, *keys)
        return keys

    def has_wildcards(self) -> bool:
        return self.ctype == WILDCARD or any(v == WILDCARD for _, v in self.slots)

    def known_values(self) -> tuple[str, ...]:
        return tuple(v for _, v in self.slots if v != WILDCARD)

    def __str__(self) -> str:
        inner = " ".join(f"{n}:{v}" for n, v in self.slots)
        return f"{self.ctype}?({inner})" if inner else f"{self.ctype}?()"


def _check_slots(pairs, *, allow_wildcard_values: bool) -> tuple[tuple[str, str], ...]:
    if hasattr(pairs, "items"):
        pairs = pairs.items()
    seen = set()
    out = []
    for name, value in pairs:
        validate_symbol(name, what="slot name")
        if name == TYPE_SLOT:
            raise ChunkError(f"slot name {TYPE_SLOT!r} is reserved for the chunk type")
        if name in seen:
            raise ChunkError(f"duplicate slot name {name!r}")
        seen.add(name)
        if value == WILDCARD:
            if not allow_wildcard_values:
                raise ChunkError(f"slot {name!r} has a wildcard value; chunks hold only symbols")
        else:
            validate_symbol(value, what=f"value of slot {name!r}")
        out.append((name, value))
    return tuple(out)


class ChunkFactory:
    """Allocates chunk and query ids from a private counter.

    A run owns one factory so that ids, and therefore traces, are
    reproducible regardless of what else the process has created.
    """

    def __init__(self):
        self._count = itertools.count()

    def make(self, ctype: str, slots=()) -> Chunk:
        """Build a chunk with this factory's next id."""
        validate_symbol(ctype, what="chunk type")
        return Chunk(ctype, _check_slots(slots, allow_wildcard_values=False), next(self._count))

    def make_query(self, ctype: str, slots=()) -> Query:
        """Build a query with this factory's next id."""
        if ctype != WILDCARD:
            validate_symbol(ctype, what="query type")
        return Query(ctype, _check_slots(slots, allow_wildcard_values=True), next(self._count))


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
