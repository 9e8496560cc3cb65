"""Holographic codec: atoms and packing.

Pack fidelity over 1,000 random chunks (that a packed chunk still carries
its fillers) is acceptance criterion 7 in ``test_acceptance.py``.
"""

import math

import numpy as np
import pytest

from mmarch.chunks import ChunkFactory
from mmarch.codec import Codebook, bind, normalized, pack


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


def test_bind_has_the_bits_of_the_python_complex_product():
    """Circular convolution multiplies the two spectra as the complex
    product in Python floats does: each part from separately rounded
    multiplies and adds.  numpy's complex loop fuses them where it runs an
    FMA loop, and then differs in many of the 513 bins of a 1,024-point
    product; elsewhere the check holds with nothing probed."""
    rng = np.random.default_rng(44)
    a, b = rng.standard_normal(1024), rng.standard_normal(1024)
    fa, fb = np.fft.rfft(a), np.fft.rfft(b)
    exact = np.array([complex(x.real * y.real - x.imag * y.imag,
                              x.real * y.imag + x.imag * y.real)
                      for x, y in zip(fa.tolist(), fb.tolist())])
    assert bind(a, b).tobytes() == np.fft.irfft(exact, n=1024).tobytes()


def test_the_norm_is_a_left_fold_of_the_squares():
    """A vector is normalized by the square root of its squares added left
    to right, the same bits on every host; ``np.linalg.norm``'s BLAS kernel
    adds them in an order that follows the CPU, and differs from the fold on
    many of these vectors."""
    rng = np.random.default_rng(44)

    def fold(v):
        total = 0.0
        for x in v.tolist():
            total += x * x
        return math.sqrt(total)

    for _ in range(200):
        v = rng.standard_normal(int(rng.integers(2, 1025)))
        assert normalized(v).tobytes() == (v / fold(v)).tobytes()
