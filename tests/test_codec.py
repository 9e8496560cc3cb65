"""Holographic codec: atoms and packing.

Pack fidelity over 1,000 random chunks (that a packed chunk still carries
its fillers) is acceptance criterion 7 in ``test_acceptance.py``.
"""

import numpy as np
import pytest

from mmarch.chunks import ChunkFactory
from mmarch.codec import Codebook, pack


@pytest.fixture(scope="module")
def book():
    return Codebook(dimension=1024, seed=7)


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


def test_pack_deterministic(book):
    factory = ChunkFactory()
    c1 = factory.make("s000", [("s001", "s002")])
    c2 = factory.make("s000", [("s001", "s002")])
    assert np.array_equal(pack(c1, book), pack(c2, book))


def test_pack_unit_norm(book):
    factory = ChunkFactory()
    c = factory.make("s000", [("s001", "s002"), ("s003", "s004")])
    assert np.linalg.norm(pack(c, book)) == pytest.approx(1.0)
