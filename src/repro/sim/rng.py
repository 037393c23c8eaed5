"""Splittable deterministic random number generation.

The Unbalanced Tree Search benchmark defines tree shape through a
*splittable* RNG: every tree node owns an RNG state, and child ``i``'s
state is a pure function of the parent state and ``i``.  The reference UTS
implementation uses SHA-1 for this; :class:`SplittableRNG` does the same
(via :mod:`hashlib`), so trees are reproducible across machines and match
the statistical properties the benchmark relies on.

A faster non-cryptographic mode (``algorithm="mix"``, splitmix64-based) is
provided for large benchmark runs where hashing dominates wall time; the
tree *shape distribution* is statistically equivalent, though individual
trees differ from the SHA-1 ones.

Each algorithm is a set of pure functions on raw state (a 20-byte digest
for ``sha1``, a 64-bit int for ``mix``), collected in :data:`ALGORITHMS`:
``root(seed)``, ``child(state, index)``, ``next(state) -> (state, u64)``
and ``fingerprint(state)``.  Hot loops (the UTS tree walk) call them
directly on raw state; :class:`SplittableRNG` is the stateful wrapper
for everything else.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Callable, NamedTuple

__all__ = ["ALGORITHMS", "RngAlgorithm", "SplittableRNG", "get_algorithm",
           "mix_child", "sha1_child", "sha1_next", "splitmix64"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_sha1 = hashlib.sha1
_pack_q = struct.Struct("<q").pack


def splitmix64(state: int) -> tuple[int, int]:
    """One step of the splitmix64 generator: the ``mix`` next-draw.

    Returns ``(new_state, output)``.  Both are 64-bit unsigned ints.
    """
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return state, z


def mix_child(state: int, index: int) -> int:
    """Child ``index``'s state: splitmix64's output on the salted parent."""
    z = ((state ^ ((index + 1) * _GOLDEN)) + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix_root(seed: int) -> int:
    # Scramble the seed once so small seeds diverge immediately.
    return splitmix64(seed & _MASK64)[1]


def sha1_child(state: bytes, index: int) -> bytes:
    """Child ``index``'s state: SHA-1 of the parent digest and ``index``."""
    return _sha1(state + _pack_q(index)).digest()


def sha1_next(state: bytes) -> tuple[bytes, int]:
    """Rehash the digest; the draw is its first 8 bytes, little-endian."""
    state = _sha1(state).digest()
    return state, int.from_bytes(state[:8], "little")


def _sha1_root(seed: int) -> bytes:
    return _sha1(b"uts-root" + _pack_q(seed)).digest()


def _sha1_fingerprint(state: bytes) -> int:
    return int.from_bytes(state[:8], "little")


class RngAlgorithm(NamedTuple):
    """One splittable algorithm's pure primitives on raw state."""

    root: Callable      #: seed -> state
    child: Callable     #: (state, index) -> state
    next: Callable      #: state -> (state, u64)
    fingerprint: Callable  #: state -> stable 64-bit int


ALGORITHMS = {
    "sha1": RngAlgorithm(_sha1_root, sha1_child, sha1_next, _sha1_fingerprint),
    "mix": RngAlgorithm(_mix_root, mix_child, splitmix64, int),
}


def get_algorithm(name: str) -> RngAlgorithm:
    """The primitives of algorithm ``name`` (``"sha1"`` or ``"mix"``)."""
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise ValueError(f"unknown RNG algorithm {name!r}") from None


class SplittableRNG:
    """A splittable RNG with SHA-1 (reference) and splitmix64 (fast) modes.

    >>> root = SplittableRNG(seed=42)
    >>> a, b = root.child(0), root.child(1)
    >>> a.random() != b.random()
    True
    >>> x = SplittableRNG(seed=42).child(0).random()
    >>> x == SplittableRNG(seed=42).child(0).random()  # deterministic
    True
    """

    __slots__ = ("_state", "algorithm", "_alg")

    def __init__(self, seed: int = 0, algorithm: str = "sha1", _state=None):
        self._alg = get_algorithm(algorithm)
        self.algorithm = algorithm
        self._state = self._alg.root(seed) if _state is None else _state

    def child(self, index: int) -> "SplittableRNG":
        """Derive an independent child RNG (pure function of state+index)."""
        return SplittableRNG(algorithm=self.algorithm,
                             _state=self._alg.child(self._state, index))

    def _next_u64(self) -> int:
        self._state, out = self._alg.next(self._state)
        return out

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self._next_u64() >> 11) * (1.0 / (1 << 53))

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive (modulo bias is
        negligible for the small ranges used here)."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        return low + self._next_u64() % span

    def choice(self, seq):
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle (``j = randint(0, i)`` per step)."""
        draw = self._alg.next
        state = self._state
        for i in range(len(seq) - 1, 0, -1):
            state, out = draw(state)
            j = out % (i + 1)
            seq[i], seq[j] = seq[j], seq[i]
        self._state = state

    def fingerprint(self) -> int:
        """A stable 64-bit fingerprint of the current state (for tests)."""
        return self._alg.fingerprint(self._state)
