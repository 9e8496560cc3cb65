"""Holographic codec: atoms, binding, packing, cleanup, calibration.

The round-trip calibration here is the independent oracle for codec
fidelity: brute-force encode/decode over 1,000 random chunks (up to 8
slots, 100-symbol vocabulary, dimension 1024) with the measured accuracy
frozen below.
"""

import numpy as np
import pytest

from mmarch.chunks import ChunkFactory
from mmarch.codec import Codebook, bind, cosine, pack, unbind, unpack
from mmarch.errors import ChunkError

# Calibration results, measured once and frozen (seeded, so reproducible).
PINNED_ROUNDTRIP_ACCURACY = 1.0
ROUNDTRIP_TARGET = 0.99

VOCAB = [f"s{i:03d}" for i in range(100)]


@pytest.fixture(scope="module")
def book():
    b = Codebook(dimension=1024, seed=7)
    for name in VOCAB:
        b.atom(name)
    return b


def test_atoms_unit_norm_and_memoized(book):
    a1 = book.atom("s000")
    assert abs(np.linalg.norm(a1) - 1.0) <= 1e-9
    assert a1 is book.atom("s000")


def test_atoms_deterministic_across_codebooks():
    a = Codebook(dimension=512, seed=3).atom("alpha")
    b = Codebook(dimension=512, seed=3).atom("alpha")
    assert np.array_equal(a, b)
    c = Codebook(dimension=512, seed=4).atom("alpha")
    assert not np.array_equal(a, c)


def test_codebook_rejects_odd_dimension():
    with pytest.raises(ValueError):
        Codebook(dimension=513)


def test_bind_unbind_adjoint(book):
    a, b = book.atom("s001"), book.atom("s002")
    assert cosine(unbind(bind(a, b), a), b) > 0.9


def test_cleanup_self_similarity(book):
    sym, sim = book.cleanup(book.atom("s042"))
    assert sym == "s042"
    assert sim == pytest.approx(1.0, abs=1e-9)


def test_cleanup_negated_atom(book):
    # -atom(s) has similarity -1 with s, so the argmax is some other atom.
    sym, sim = book.cleanup(-book.atom("s042"))
    assert sym != "s042"
    assert cosine(-book.atom("s042"), book.atom("s042")) == pytest.approx(-1.0)
    assert sim > -1.0


def test_cleanup_superposition_prefers_lexicographic_on_tie():
    book = Codebook(dimension=64, seed=1)
    v = book.atom("beta") + book.atom("alpha")
    sym, sim = book.cleanup(v)
    # The two components have near-identical similarity; whichever wins must
    # be one of them, and an exact tie resolves to the smaller name.
    assert sym in ("alpha", "beta")
    sims = {name: cosine(v, book.atom(name)) for name in ("alpha", "beta")}
    expected = min(sims, key=lambda n: (-sims[n], n))
    assert sym == expected


def test_cleanup_empty_codebook_rejected():
    with pytest.raises(ChunkError):
        Codebook(dimension=64).cleanup(np.zeros(64))


def test_pack_deterministic(book):
    factory = ChunkFactory()
    c1 = factory.make("s000", [("s001", "s002")])
    c2 = factory.make("s000", [("s001", "s002")])
    assert np.array_equal(pack(c1, book), pack(c2, book))


def test_pack_unit_norm(book):
    factory = ChunkFactory()
    c = factory.make("s000", [("s001", "s002"), ("s003", "s004")])
    assert np.linalg.norm(pack(c, book)) == pytest.approx(1.0)


def test_single_slot_roundtrip(book):
    factory = ChunkFactory()
    c = factory.make("s010", [("s020", "s030")])
    result = unpack(pack(c, book), ["s020"], book, factory=factory)
    assert result.ctype == "s010"
    assert result.values == {"s020": "s030"}
    assert result.chunk == c


def test_unpack_noiseless_is_stable(book):
    factory = ChunkFactory()
    c = factory.make("s010", [("s020", "s030")])
    v = pack(c, book)
    r1 = unpack(v, ["s020"], book, factory=factory)
    r2 = unpack(v + np.zeros_like(v), ["s020"], book, factory=factory)
    assert r1.values == r2.values
    assert r1.similarities == r2.similarities


def test_three_slot_example_roundtrip(book):
    factory = ChunkFactory()
    c = factory.make("dog", [("name", "Fido"), ("breed", "labrador")])
    for name in ("dog", "Fido", "labrador"):
        book.atom(name)
    result = unpack(pack(c, book), ["name", "breed"], book, factory=factory)
    assert result.ctype == "dog"
    assert result.values == {"name": "Fido", "breed": "labrador"}
    assert all(sim > book.cleanup_threshold for sim in result.similarities.values())


def _random_chunk(rng, factory, max_slots=8):
    k = int(rng.integers(1, max_slots + 1))
    names = [str(x) for x in rng.choice(VOCAB, size=k, replace=False)]
    values = [str(x) for x in rng.choice(VOCAB, size=k)]
    ctype = str(rng.choice(VOCAB))
    return factory.make(ctype, list(zip(names, values))), names, values, ctype


def test_roundtrip_calibration_oracle(book):
    """Brute-force round-trip accuracy over 1,000 random chunks."""
    rng = np.random.default_rng(0)
    factory = ChunkFactory()
    recovered = total = 0
    for _ in range(1000):
        chunk, names, values, ctype = _random_chunk(rng, factory)
        result = unpack(pack(chunk, book), names, book, factory=factory)
        total += 1 + len(names)
        recovered += int(result.ctype == ctype)
        recovered += sum(int(result.values.get(n) == v)
                         for n, v in zip(names, values))
    accuracy = recovered / total
    assert accuracy >= ROUNDTRIP_TARGET
    assert accuracy == PINNED_ROUNDTRIP_ACCURACY


def test_off_slot_similarity_below_threshold(book):
    """Unbinding a slot the chunk never had reports the slot absent."""
    rng = np.random.default_rng(1)
    factory = ChunkFactory()
    worst = 0.0
    for _ in range(300):
        chunk, names, _, _ = _random_chunk(rng, factory)
        missing = [s for s in VOCAB if s not in names][:2]
        result = unpack(pack(chunk, book), missing, book, factory=factory)
        for name in missing:
            assert name not in result.values
            worst = max(worst, abs(result.similarities[name]))
    assert worst < book.cleanup_threshold


def test_adjoint_similarity_over_random_atom_pairs(book):
    rng = np.random.default_rng(2)
    for _ in range(1000):
        a_name, b_name = (str(x) for x in rng.choice(VOCAB, size=2, replace=False))
        a, b = book.atom(a_name), book.atom(b_name)
        assert cosine(unbind(bind(a, b), a), b) > 0.9
