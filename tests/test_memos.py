"""Cold memos change nothing: every memo capped at one key gives the same
bytes, models, refusals and vectors as at :data:`mmarch.chunks.MEMO_CAP`.

Each memo (a factory's legal contents and symbols, a parse's legal symbols,
a built-in predictor's answers, middle memory's buffer-only contexts and a
codebook's vectors) goes through :func:`mmarch.chunks.remember`; at a cap
of 1 every miss clears the memo, so almost every answer is computed again.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmarch import chunks, demos
from mmarch.chunks import ChunkFactory
from mmarch.codec import Codebook, pack
from mmarch.errors import ModelValidationError
from mmarch.model import load_model, parse_model
from mmarch.runtime import run
from mmarch.trace import trace_to_bytes

from pins import linked_facts_doc

def _at_both_caps(compute):
    """``compute()`` at the default cap, then at a cap of one key."""
    default = compute()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chunks, "MEMO_CAP", 1)
        return default, compute()


@pytest.mark.parametrize("mode", ("mm", "pipeline"))
@pytest.mark.parametrize("name", demos.names())
def test_cold_memos_keep_every_demo_trace(name, mode):
    model = load_model(demos.path(name))
    default, cold = _at_both_caps(
        lambda: trace_to_bytes(run(model, 200, mode=mode, seed=3)))
    assert cold == default


def test_cold_memos_keep_a_noisy_linked_facts_trace():
    model = parse_model(linked_facts_doc(size=80, seed=2, noise=0.3))
    default, cold = _at_both_caps(lambda: trace_to_bytes(run(model, 200, mode="mm", seed=2)))
    assert cold == default


def _bad_doc():
    """Linked facts with illegal symbols, some repeated at several paths."""
    doc = linked_facts_doc(size=12, seed=4, noise=0.0)
    for i, bad in ((0, "a b"), (3, "a:b"), (5, "a b"), (7, "?x")):
        doc["initial_mm"][i]["chunk"]["slots"]["kind"] = bad
    doc["initial_mm"][9]["chunk"]["isa"] = "a b"
    doc["initial_mm"][10]["chunk"]["slots"] = {"isa": "f1", "next": "f2"}
    return doc


def _violations(doc):
    try:
        parse_model(doc)
    except ModelValidationError as err:
        return err.violations
    raise AssertionError("the document parsed")


def test_cold_memos_keep_every_parse():
    docs = [json.loads(demos.path(name).read_text()) for name in demos.names()]
    docs.append(linked_facts_doc(size=40, seed=3))
    for doc in docs:
        default, cold = _at_both_caps(lambda: parse_model(doc))
        assert cold == default
    default, cold = _at_both_caps(lambda: _violations(_bad_doc()))
    assert len(default) == 6 and cold == default


SYMBOLS = st.sampled_from(["a", "b", "c", "isa-like", "value", "w1", "w2"])
CHUNK_CONTENTS = st.lists(st.tuples(SYMBOLS, st.dictionaries(SYMBOLS, SYMBOLS, max_size=4)),
                          min_size=1, max_size=8)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(contents=CHUNK_CONTENTS)
def test_cold_memos_keep_pack_bits(contents):
    """Chunks built and packed by one factory and one codebook, whose names
    recur as types, slots and values, so roles and atoms share names."""
    def packed():
        factory, book = ChunkFactory(), Codebook(dimension=32, seed=5)
        return [pack(factory.make(ctype, slots), book) for ctype, slots in contents]

    default, cold = _at_both_caps(packed)
    assert all(np.array_equal(a, b) for a, b in zip(default, cold, strict=True))


def test_a_codebook_holds_at_most_the_cap_and_remakes_the_same_atoms(monkeypatch):
    monkeypatch.setattr(chunks, "MEMO_CAP", 8)
    names = [f"s{i}" for i in range(24)]
    book = Codebook(dimension=32, seed=9)
    for name in names:
        book.role(name)
        book.atom(name)
        assert len(book._vectors) <= 8
    for name in names:
        assert np.array_equal(book.atom(name), Codebook(dimension=32, seed=9).atom(name))
        assert np.array_equal(book.role(name), Codebook(dimension=32, seed=9).role(name))
        assert len(book._vectors) <= 8
    assert not np.array_equal(book.atom("s0"), book.role("s0"))
