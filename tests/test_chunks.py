"""Chunk, query, and matching semantics."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from mmarch import chunks
from mmarch.chunks import (
    ChunkFactory,
    Query,
    Template,
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
from mmarch.memory import MiddleMemory
from mmarch.model import parse_model
from mmarch.runtime import Session

from test_model import _violations, base_doc

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


def _refusal(make, ctype, slots) -> str:
    with pytest.raises(ChunkError) as caught:
        make(ctype, slots)
    return str(caught.value)


def _count_full_checks(monkeypatch) -> list:
    """Record each call a factory makes to :func:`pattern_errors`."""
    calls, full = [], chunks.pattern_errors
    monkeypatch.setattr(chunks, "pattern_errors",
                        lambda *args, **kwargs: calls.append(args) or full(*args, **kwargs))
    return calls


class TestLegalContentMemo:
    """A factory checks each content in full once; what it remembers
    changes neither what it accepts nor what a refusal says."""

    def test_illegal_symbol_refused_after_thousands_of_legal_contents(self):
        factory = ChunkFactory()
        for i in range(3000):
            factory.make("word", [("value", f"w{i}")])
            factory.make_query("word", [("value", f"w{i}"), ("next", WILDCARD)])
        for ctype, slots in (("word", [("value", "a b")]), ("a:b", [("value", "w1")]),
                             ("word", [("value", "w1"), ("value", "w2")]),
                             ("word", [("isa", "w1")])):
            expected = pattern_errors(ctype, slots)[0][1]
            for _ in range(2):  # a refused content is never remembered
                assert _refusal(factory.make, ctype, slots) == expected
                assert _refusal(factory.make_query, ctype, slots) == expected

    @pytest.mark.parametrize("ctype, slots", [
        ("q", [("v", WILDCARD)]), (WILDCARD, [("v", "x")]), (WILDCARD, ())])
    def test_query_content_is_still_refused_as_a_chunk(self, ctype, slots):
        factory = ChunkFactory()
        query = factory.make_query(ctype, slots)
        expected = pattern_errors(ctype, slots)[0][1]
        for _ in range(2):
            assert _refusal(factory.make, ctype, slots) == expected
            assert factory.make_query(ctype, slots) == query

    @pytest.mark.parametrize("bad", [["x"], 7, None, {"x": "y"}])
    def test_bad_value_still_named_after_its_legal_form(self, bad):
        factory = ChunkFactory()
        factory.make("t", [("v", "x")])
        factory.make("t", {"v": "x"})
        for ctype, slots in (("t", [("v", bad)]), ("t", {"v": bad}), (bad, [("v", "x")])):
            expected = pattern_errors(ctype, tuple(dict(slots).items()))[0][1]
            for _ in range(2):
                assert _refusal(factory.make, ctype, slots) == expected

    def test_at_the_cap_the_set_clears_and_refills(self, monkeypatch):
        monkeypatch.setattr(chunks, "MEMO_CAP", 3)
        factory = ChunkFactory()
        for value in "abc":
            factory.make("t", [("v", value)])
        calls = _count_full_checks(monkeypatch)
        factory.make("t", [("v", "c")])
        assert calls == []  # remembered
        chunk = factory.make("t", [("v", "d")])  # the fourth content: a full check, then a clear
        assert chunk.slots == (("v", "d"),) and calls == [("t", (("v", "d"),))]
        factory.make("t", [("v", "d")])
        assert len(calls) == 1
        factory.make("t", [("v", "a")])  # forgotten at the clear, so checked again
        assert len(calls) == 2
        with pytest.raises(ChunkError):
            factory.make("t", [("v", "a b")])

    def test_factories_do_not_share_what_they_remember(self, monkeypatch):
        first, second = ChunkFactory(), ChunkFactory()
        first.make("t", [("v", "x")])
        calls = _count_full_checks(monkeypatch)
        second.make("t", [("v", "x")])
        first.make("t", [("v", "x")])
        assert calls == [("t", (("v", "x"),))]

    def test_ids_are_drawn_on_every_call(self):
        factory = ChunkFactory()
        made = [factory.make("t", [("v", "x")]) for _ in range(3)]
        made.append(factory.make_query("t", [("v", "x")]))
        assert [c.id for c in made] == [0, 1, 2, 3]


def _count_grammar_checks(monkeypatch) -> list:
    """Record each value the full symbol check runs on."""
    calls, full = [], chunks._grammar_error
    monkeypatch.setattr(chunks, "_grammar_error",
                        lambda value: calls.append(value) or full(value))
    return calls


def _facts_doc(*facts):
    """``base_doc`` with one initial ``emotion`` entry per ``(isa, slots)``."""
    doc = base_doc()
    doc["initial_mm"] = [{"tag": "emotion", "chunk": {"isa": ctype, "slots": slots}}
                         for ctype, slots in facts]
    return doc


BAD_SYMBOLS = ("a b", "a:b", "?a")
THOUSANDS = 3000


class TestLegalSymbolMemo:
    """A factory and a parse each check a symbol against the grammar once;
    what they remember changes neither what they accept nor what a refusal
    says, and nothing is shared between two of them."""

    @pytest.mark.parametrize("bad", BAD_SYMBOLS)
    def test_factory_refuses_an_illegal_symbol_after_thousands_of_legal_ones(self, bad):
        factory = ChunkFactory()
        for i in range(THOUSANDS):
            factory.make("word", [("value", f"w{i}")])
        for ctype, slots in (("word", [("value", bad)]), (bad, [("value", "w1")]),
                             ("word", [(bad, "w1")])):
            for _ in range(2):  # a refused symbol is never remembered
                assert (_refusal(factory.make, ctype, slots)
                        == pattern_errors(ctype, slots)[0][1])
                assert (_refusal(factory.make_query, ctype, slots)
                        == pattern_errors(ctype, slots, wildcards=True)[0][1])

    @pytest.mark.parametrize("bad", BAD_SYMBOLS)
    def test_parse_refuses_an_illegal_symbol_after_thousands_of_legal_ones(self, bad):
        legal = [("fact", {"v": f"w{i}"}) for i in range(THOUSANDS)]
        for fact in (("fact", {"v": bad}), (bad, {"v": "w1"}), ("fact", {bad: "w1"})):
            [(path, message)] = _violations(_facts_doc(fact))
            later = path.replace("initial_mm[0]", f"initial_mm[{THOUSANDS}]")
            assert _violations(_facts_doc(*legal, fact)) == [(later, message)]

    def test_the_same_illegal_value_is_reported_at_each_path(self):
        violations = _violations(_facts_doc(("fact", {"v": "a b"}), ("fact", {"v": "ok"}),
                                            ("other", {"v": "a b"})))
        message = "value of slot 'v' 'a b' may not contain ':' or whitespace"
        assert violations == [("initial_mm[0].chunk.slots.v", message),
                              ("initial_mm[2].chunk.slots.v", message)]

    def test_a_parse_checks_each_symbol_once_and_two_parses_share_nothing(self, monkeypatch):
        doc = _facts_doc(("fact", {"v": "x"}), ("fact", {"v": "y"}))
        calls = _count_grammar_checks(monkeypatch)
        parse_model(doc)
        first = list(calls)
        assert all(first.count(symbol) == 1 for symbol in ("fact", "v", "emotion"))
        calls.clear()
        parse_model(doc)
        assert calls == first

    def test_two_factories_share_nothing(self, monkeypatch):
        first, second = ChunkFactory(), ChunkFactory()
        first.make("t", [("v", "x")])
        calls = _count_grammar_checks(monkeypatch)
        first.make("t", [("v", "y")])  # a new content, but only one new symbol
        assert calls == ["y"]
        second.make("t", [("v", "x")])
        assert calls == ["y", "t", "v", "x"]

    def test_a_session_checks_the_chunks_its_model_carries(self):
        """A model built past the parser, carrying a chunk the parser would
        refuse, is refused by the session's own factory with the same message."""
        model = parse_model(base_doc())
        bad = Template("percept", (("value", "a b"),))
        model = dataclasses.replace(model, initial_mm=(
            dataclasses.replace(model.initial_mm[0], chunk=bad),))
        with pytest.raises(ChunkError) as caught:
            Session(model)
        assert str(caught.value) == pattern_errors(bad.ctype, bad.slots)[0][1]

    def test_at_the_cap_the_set_clears_and_refills(self, monkeypatch):
        monkeypatch.setattr(chunks, "MEMO_CAP", 3)
        legal = {}
        for symbol in "abc":
            assert chunks._symbol_error(symbol, legal) is None
        calls = _count_grammar_checks(monkeypatch)
        assert chunks._symbol_error("c", legal) is None and calls == []  # remembered
        assert chunks._symbol_error("d", legal) is None  # a full check, then a clear
        assert calls == ["d"] and set(legal) == {"d"}
        assert chunks._symbol_error("a", legal) is None  # forgotten at the clear
        assert calls == ["d", "a"] and set(legal) == {"a", "d"}
        assert chunks._symbol_error("a b", legal) is not None and set(legal) == {"a", "d"}


class TestListPairs:
    """Slot pairs given as lists pass the full check and are kept as
    tuples, so the chunk hashes like its tuple form."""

    def test_a_list_pair_chunk_equals_and_hashes_like_its_tuple_form(self):
        chunk = make_chunk("t", [["v", "x"]])
        assert chunk.slots == (("v", "x"),)
        assert chunk == make_chunk("t", [("v", "x")])
        assert hash(chunk) == hash(make_chunk("t", [("v", "x")]))
        query = make_query("t", [["v", WILDCARD]])
        assert hash(query) == hash(make_query("t", [("v", WILDCARD)]))

    def test_a_list_pair_chunk_can_be_deposited(self):
        mm = MiddleMemory()
        assert mm.deposit(0.0, "tag", chunk=make_chunk("t", [["v", "x"]])) == (1, True)
        assert mm.deposit(1.0, "tag", chunk=make_chunk("t", [("v", "x")])) == (1, False)

    def test_a_list_pair_with_a_bad_value_keeps_its_message(self):
        factory = ChunkFactory()
        for _ in range(2):
            assert (_refusal(factory.make, "t", [["v", "x y"]])
                    == "value of slot 'v' 'x y' may not contain ':' or whitespace")


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
