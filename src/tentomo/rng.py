"""Deterministic, splittable random number generation.

Every randomized experiment in this package draws from SplitMix64, a 64-bit
linear-state generator, so that a (seed, label) pair reproduces the identical
corpus across runs, platforms and languages.  The update rule is

    state <- (state + 0x9E3779B97F4A7C15) mod 2**64
    z <- state
    z <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
    z <- ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2**64
    output: z XOR (z >> 31)

``split(label)`` derives an independent child stream whose seed is
``next_u64() XOR fnv1a64(label)``; deriving per-component children keeps
corpora stable when unrelated draws are inserted elsewhere.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(text: str) -> int:
    """FNV-1a hash of the UTF-8 encoding of ``text`` (64-bit)."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return h


class SplitMix64:
    """SplitMix64 stream; see module docstring for the exact recurrence."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def split(self, label: str) -> "SplitMix64":
        """Child stream for one component; independent of later parent draws."""
        return SplitMix64(self.next_u64() ^ fnv1a64(label))

    def uniform(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi], by modular reduction of one 64-bit draw."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def point_in_ball(self, n: int, radius: float) -> tuple[float, ...]:
        while True:
            p = tuple(radius * (2.0 * self.uniform() - 1.0) for _ in range(n))
            if sum(c * c for c in p) < radius * radius:
                return p

    def direction(self, n: int) -> tuple[float, ...]:
        """Unit vector, by normalizing a cube sample away from the origin."""
        while True:
            v = tuple(2.0 * self.uniform() - 1.0 for _ in range(n))
            norm2 = sum(c * c for c in v)
            if 1e-4 < norm2 <= 1.0:
                norm = norm2 ** 0.5
                return tuple(c / norm for c in v)
