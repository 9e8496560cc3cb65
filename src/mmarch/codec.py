"""Holographic codec: pack chunks into vectors, unpack vectors into chunks.

Symbols get fixed random *unitary* atoms (unit power spectrum, random
phases), so binding by circular convolution is exactly invertible by
circular correlation and every atom has unit Euclidean norm by
construction.  A packed chunk is the normalized superposition of
slot-name (x) value bindings plus an ``isa`` (x) type binding; unpacking is
schema-directed: the caller names the slots to decode and each decoded
value is cleaned up against the codebook's atoms.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .chunks import (
    PROCESS_FACTORY,
    TYPE_SLOT,
    WILDCARD,
    Chunk,
    ChunkFactory,
    Query,
    validate_symbol,
)
from .errors import ChunkError

DEFAULT_DIMENSION = 1024
DEFAULT_CLEANUP_THRESHOLD = 0.2

HoloVector = np.ndarray


def bind(a: HoloVector, b: HoloVector) -> HoloVector:
    """Circular convolution of two vectors."""
    n = a.shape[0]
    return np.fft.irfft(np.fft.rfft(a) * np.fft.rfft(b), n=n)


def unbind(v: HoloVector, key: HoloVector) -> HoloVector:
    """Circular correlation: approximate inverse of ``bind(key, .)``."""
    n = v.shape[0]
    return np.fft.irfft(np.conj(np.fft.rfft(key)) * np.fft.rfft(v), n=n)


def cosine(a: HoloVector, b: HoloVector) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def normalized(v: HoloVector) -> HoloVector:
    n = float(np.linalg.norm(v))
    return v / n if n > 0.0 else v


def _symbol_rng(seed: int, domain: str, name: str) -> np.random.Generator:
    digest = hashlib.blake2b(f"{domain}:{name}".encode("utf-8"), digest_size=8).digest()
    return np.random.default_rng(np.random.SeedSequence([seed, int.from_bytes(digest, "big")]))


class Codebook:
    """Deterministic symbol -> atom map for one vector space.

    Atoms are pure functions of (seed, symbol name) and are memoized on
    first use.  The dimension must be even (the unitary construction fixes
    the two real spectrum bins).
    """

    def __init__(self, dimension: int = DEFAULT_DIMENSION, seed: int = 0,
                 cleanup_threshold: float = DEFAULT_CLEANUP_THRESHOLD):
        if dimension < 2 or dimension % 2 != 0:
            raise ValueError(f"dimension must be a positive even integer, got {dimension}")
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self.dimension = dimension
        self.seed = seed
        self.cleanup_threshold = cleanup_threshold
        self._atoms: dict[str, HoloVector] = {}
        self._roles: dict[str, HoloVector] = {}
        self._matrix: np.ndarray | None = None  # rebuilt lazily for cleanup
        self._names: list[str] = []

    def __len__(self) -> int:
        return len(self._atoms)

    def __contains__(self, name: str) -> bool:
        return name in self._atoms

    def atom(self, name: str) -> HoloVector:
        """Return the filler atom for ``name``, creating it on first use."""
        vec = self._atoms.get(name)
        if vec is None:
            vec = self._make_atom("atom", name)
            self._atoms[name] = vec
            self._names.append(name)
            self._matrix = None
        return vec

    def role(self, name: str) -> HoloVector:
        """Return the role atom used to bind slot ``name``.

        Roles live in their own space: a symbol used both as a slot name
        and as a value would otherwise alias itself under convolution's
        commutativity and corrupt unpacking.
        """
        vec = self._roles.get(name)
        if vec is None:
            vec = self._make_atom("role", name)
            self._roles[name] = vec
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

    def cleanup(self, v: HoloVector) -> tuple[str, float]:
        """Nearest atom by cosine; exact ties go to the smaller symbol name.

        Raises :class:`ChunkError` if no atoms exist yet.
        """
        if not self._atoms:
            raise ChunkError("cleanup against an empty codebook")
        if v.shape[0] != self.dimension:
            raise ChunkError(f"vector dimension {v.shape[0]} != codebook dimension {self.dimension}")
        if self._matrix is None:
            self._names.sort()
            self._matrix = np.stack([self._atoms[n] for n in self._names])
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            return self._names[0], 0.0
        sims = self._matrix @ (v / norm)
        atom_norms = np.linalg.norm(self._matrix, axis=1)
        sims = sims / atom_norms
        best = int(np.argmax(sims))  # names sorted, so argmax's first hit is the tie-break
        return self._names[best], float(sims[best])


@dataclass
class UnpackResult:
    """Outcome of schema-directed unpacking.

    ``chunk`` is None when the type slot itself fell below the cleanup
    threshold.  ``values`` holds only slots decoded above threshold;
    ``similarities`` holds every requested slot plus ``isa``.
    """

    chunk: Chunk | None
    ctype: str | None
    values: dict[str, str]
    similarities: dict[str, float]


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


def unpack(v: HoloVector, slot_names, book: Codebook,
           factory: ChunkFactory | None = None,
           threshold: float | None = None) -> UnpackResult:
    """Decode the named slots (and the type) out of a packed vector.

    Each slot is unbound by its name atom and cleaned up against the
    codebook; slots whose best similarity falls below the threshold are
    reported absent.  Without a ``factory``, ids come from ``PROCESS_FACTORY``.
    """
    if threshold is None:
        threshold = book.cleanup_threshold
    similarities: dict[str, float] = {}
    values: dict[str, str] = {}

    type_sym, type_sim = book.cleanup(unbind(v, book.role(TYPE_SLOT)))
    similarities[TYPE_SLOT] = type_sim
    ctype = type_sym if type_sim >= threshold else None

    slots = []
    for name in slot_names:
        sym, sim = book.cleanup(unbind(v, book.role(name)))
        similarities[name] = sim
        if sim >= threshold:
            values[name] = sym
            slots.append((name, sym))

    chunk = None
    if ctype is not None:
        chunk = (factory or PROCESS_FACTORY).make(ctype, slots)
    return UnpackResult(chunk=chunk, ctype=ctype, values=values, similarities=similarities)
