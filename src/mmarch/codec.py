"""Holographic codec: pack chunks into vectors.

Symbols get fixed random *unitary* atoms (unit power spectrum, random
phases), so binding by circular convolution is exactly invertible by
circular correlation and every atom has unit Euclidean norm by
construction.  A packed chunk is the normalized superposition of
slot-name (x) value bindings plus an ``isa`` (x) type binding.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .chunks import TYPE_SLOT, WILDCARD, Chunk, Query, remember, validate_symbol

DEFAULT_DIMENSION = 1024

HoloVector = np.ndarray


def bind(a: HoloVector, b: HoloVector) -> HoloVector:
    """Circular convolution of two vectors.  Each part of the spectra's
    product comes from separately rounded multiplies and adds, the same bits
    on every host; numpy's complex loop fuses them where it runs FMA."""
    fa, fb = np.fft.rfft(a), np.fft.rfft(b)
    product = np.empty_like(fa)
    np.subtract(fa.real * fb.real, fa.imag * fb.imag, out=product.real)
    np.add(fa.real * fb.imag, fa.imag * fb.real, out=product.imag)
    return np.fft.irfft(product, n=a.shape[0])


def norm(v: HoloVector) -> float:
    """Euclidean norm, the squares added left to right on every host (no BLAS
    kernel picks the order); inf when a square or the sum overflows."""
    return math.sqrt(np.add.accumulate(v * v)[-1])


def normalized(v: HoloVector) -> HoloVector:
    return v / n if (n := norm(v)) > 0.0 else v


def _symbol_rng(seed: int, domain: str, name: str) -> np.random.Generator:
    digest = hashlib.blake2b(f"{domain}:{name}".encode("utf-8"), digest_size=8).digest()
    return np.random.default_rng(np.random.SeedSequence([seed, int.from_bytes(digest, "big")]))


class Codebook:
    """Deterministic symbol -> atom map for one vector space.

    Atoms are pure functions of (seed, domain, symbol name), kept in one
    memo of at most :data:`.chunks.MEMO_CAP` vectors, so an atom made again
    after the memo clears has the same bits.  The dimension must be even
    (the unitary construction fixes the two real spectrum bins).
    """

    def __init__(self, dimension: int = DEFAULT_DIMENSION, seed: int = 0):
        if dimension < 2 or dimension % 2 != 0:
            raise ValueError(f"dimension must be a positive even integer, got {dimension}")
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self.dimension = dimension
        self.seed = seed
        self._vectors: dict[tuple[str, str], HoloVector] = {}

    def atom(self, name: str) -> HoloVector:
        """Return the filler atom for ``name``."""
        return self._vector("atom", name)

    def role(self, name: str) -> HoloVector:
        """Return the role atom used to bind slot ``name``.

        Roles live in their own space: otherwise convolution's
        commutativity would make slot ``x`` holding ``y`` pack the same as
        slot ``y`` holding ``x``.
        """
        return self._vector("role", name)

    def _vector(self, domain: str, name: str) -> HoloVector:
        vec = self._vectors.get((domain, name))
        if vec is None:
            vec = remember(self._vectors, (domain, name), self._make_atom(domain, name))
        return vec

    def _make_atom(self, domain: str, name: str) -> HoloVector:
        validate_symbol(name)
        rng = _symbol_rng(self.seed, domain, name)
        half = self.dimension // 2
        phases = rng.uniform(0.0, 2.0 * np.pi, size=half + 1)
        spectrum = np.exp(1j * phases)
        # Bins 0 and D/2 of a real signal's spectrum are real; pin to +-1.
        spectrum[0] = 1.0 if rng.integers(2) == 0 else -1.0
        spectrum[half] = 1.0 if rng.integers(2) == 0 else -1.0
        # Unit power spectrum makes the time-domain norm exactly 1 (Parseval).
        return np.fft.irfft(spectrum, n=self.dimension)


def _superpose(ctype: str, slots, book: Codebook) -> HoloVector | None:
    """Unit-norm sum of the type binding and the slot bindings, added left
    to right; wildcards are skipped, and None means nothing was known."""
    total = None
    for name, value in ((TYPE_SLOT, ctype), *slots):
        if value != WILDCARD:
            part = bind(book.role(name), book.atom(value))
            total = part if total is None else total + part
    return None if total is None else normalized(total)


def pack(c: Chunk, book: Codebook) -> HoloVector:
    """Encode a chunk as the unit-norm superposition of its role bindings."""
    return _superpose(c.ctype, c.slots, book)


def pack_query(q: Query, book: Codebook) -> HoloVector | None:
    """Encode a query's known elements; wildcard positions are skipped.

    Returns None when nothing is known (fully wildcarded query).
    """
    return _superpose(q.ctype, q.slots, book)

