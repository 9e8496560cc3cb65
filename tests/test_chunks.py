"""Chunk, query, and matching semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from mmarch.chunks import (
    ChunkFactory,
    Query,
    WILDCARD,
    binding_keys,
    complete_query,
    is_reference,
    make_chunk,
    make_query,
    match_query,
    pattern_errors,
    references,
    validate_symbol,
)
from mmarch.errors import ChunkError

symbols = st.text(alphabet="abcdefg", min_size=1, max_size=4)


def test_symbol_rules():
    assert validate_symbol("Fido") == "Fido"
    for bad in ("", "?", "?x", "a b", "a:b", "a\tb", None, 7):
        with pytest.raises(ChunkError):
            validate_symbol(bad)


def test_make_chunk_preserves_slot_order():
    c = make_chunk("dog", [("name", "Fido"), ("breed", "labrador")])
    assert c.ctype == "dog"
    assert c.slots == (("name", "Fido"), ("breed", "labrador"))


def test_make_chunk_zero_slots():
    c = make_chunk("goal")
    assert c.slots == ()


def test_make_chunk_identical_content_distinct_ids():
    a = make_chunk("dog", [("name", "Fido")])
    b = make_chunk("dog", [("name", "Fido")])
    assert a == b  # content equality
    assert a.id != b.id


def test_make_chunk_rejections():
    with pytest.raises(ChunkError, match="duplicate slot name 'name'"):
        make_chunk("dog", [("name", "Fido"), ("name", "Rex")])
    with pytest.raises(ChunkError):
        make_chunk("dog", [("name", WILDCARD)])
    with pytest.raises(ChunkError):
        make_chunk("dog", [("isa", "dog")])  # reserved type slot


def test_pattern_errors_lists_every_violation_by_slot():
    slots = [("isa", "x"), ("v", "?"), ("w", "?y"), ("v", "z"), ("u", 3), ("a b", "x"),
             ("ok", "x")]
    errors = pattern_errors("a:b", slots)
    assert [slot for slot, _ in errors] == [None, "isa", "v", "w", "v", "u", "a b"]
    assert errors[4] == ("v", "duplicate slot name 'v'")


@pytest.mark.parametrize("value,wildcards,refs,legal", [
    ("?", False, False, False), ("?", True, False, True), ("?", False, True, False),
    ("?x", False, False, False), ("?x", True, False, False), ("?x", False, True, True),
])
def test_wildcards_and_references_appear_only_where_allowed(value, wildcards, refs, legal):
    for ctype, slots in ((value, ()), ("t", (("s", value),))):
        errors = pattern_errors(ctype, slots, wildcards=wildcards, references=refs)
        assert (errors == []) == legal


def test_binding_keys_and_references():
    assert binding_keys(WILDCARD, (("a", "?"), ("b", "x"))) == ("isa", "a")
    assert binding_keys("t", (("a", "?x"),)) == ()
    assert references("?t", (("a", "?x"), ("b", "?"), ("c", "y"))) == ("t", "x")
    assert [is_reference(v) for v in ("?x", "?", "x", 3)] == [True, False, False, False]


def test_match_binds_wildcard_slot():
    q = make_query("dog", [("name", "?"), ("breed", "labrador")])
    c = make_chunk("dog", [("name", "Fido"), ("breed", "labrador")])
    assert match_query(q, c) == {"name": "Fido"}


def test_match_exact_pattern_yields_empty_bindings():
    q = make_query("dog", [("name", "Fido")])
    c = make_chunk("dog", [("name", "Fido")])
    assert match_query(q, c) == {}


def test_match_type_mismatch():
    q = make_query("cat", [("name", "?")])
    c = make_chunk("dog", [("name", "Fido")])
    assert match_query(q, c) is None


def test_match_missing_slot_fails_but_extra_slots_ok():
    c = make_chunk("dog", [("name", "Fido"), ("breed", "labrador")])
    assert match_query(make_query("dog", [("color", "?")]), c) is None
    assert match_query(make_query("dog", [("name", "?")]), c) == {"name": "Fido"}


def test_match_wildcard_type_binds_isa():
    q = make_query(WILDCARD, [("name", "Fido")])
    c = make_chunk("dog", [("name", "Fido")])
    assert match_query(q, c) == {"isa": "dog"}


def test_complete_query_substitutes_bindings():
    factory = ChunkFactory()
    q = factory.make_query("dog", [("name", "?"), ("breed", "labrador")])
    chunk = complete_query(q, {"name": "Fido"}, factory)
    assert dict(chunk.slots) == {"name": "Fido", "breed": "labrador"}
    assert chunk.ctype == "dog"


def test_complete_query_needs_a_binding_for_every_wildcard():
    factory = ChunkFactory()
    q = factory.make_query("dog", [("name", "?"), ("x", "?")])
    with pytest.raises(ChunkError, match="no binding for wildcard slot 'x'"):
        complete_query(q, {"name": "Fido"}, factory)


def test_factory_ids_are_sequential_per_factory():
    f1, f2 = ChunkFactory(), ChunkFactory()
    ids1 = [f1.make("a").id for _ in range(3)]
    ids2 = [f2.make("a").id for _ in range(3)]
    assert ids1 == [0, 1, 2] == ids2


@st.composite
def chunk_and_query(draw):
    """A chunk plus a query derived from it by wildcarding some slots."""
    n = draw(st.integers(0, 4))
    names = draw(st.lists(symbols, min_size=n, max_size=n, unique=True))
    values = [draw(symbols) for _ in range(n)]
    ctype = draw(symbols)
    chunk = make_chunk(ctype, list(zip(names, values)))
    q_slots = []
    for name, value in zip(names, values):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            continue  # drop the constraint entirely
        q_slots.append((name, WILDCARD if choice == 1 else value))
    q_type = WILDCARD if draw(st.booleans()) else ctype
    return chunk, make_query(q_type, q_slots)


@settings(derandomize=True)
@given(chunk_and_query())
def test_match_reflexive_and_derived_queries_match(pair):
    chunk, query = pair
    exact = make_query(chunk.ctype, chunk.slots)
    assert match_query(exact, chunk) == {}
    assert match_query(query, chunk) is not None


@settings(derandomize=True)
@given(chunk_and_query(), st.data())
def test_match_monotone_under_constraint_removal(pair, data):
    """Removing a constraint from a matching query never breaks the match."""
    chunk, query = pair
    assert match_query(query, chunk) is not None
    if not query.slots:
        return
    drop = data.draw(st.integers(0, len(query.slots) - 1))
    weakened = Query(query.ctype,
                     query.slots[:drop] + query.slots[drop + 1:], -1)
    assert match_query(weakened, chunk) is not None
    relaxed = Query(query.ctype,
                    tuple((n, WILDCARD) for n, _ in query.slots), -1)
    assert match_query(relaxed, chunk) is not None
