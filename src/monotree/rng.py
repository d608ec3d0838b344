"""Deterministic 64-bit pseudo-random streams.

The generator is splitmix64 (Steele, Lea and Flood's splittable generator),
chosen because it is tiny, widely documented, and exactly reproducible with
plain integer arithmetic on any platform.  Child streams are always
derived, never taken by continuing a parent stream, so adding a consumer
somewhere never shifts the draws seen elsewhere.  Sub-operations derive
theirs with `derive_seed`; the experiment driver's per-trial seeds come
from its own mix chain over the cell coordinates (`experiment.trial_seed`,
built on `finalise64`).
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def finalise64(z: int) -> int:
    """splitmix64 output permutation (xor-shift-multiply avalanche)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Child seed number `index` of `seed`.

    Defined as finalise64(seed + (index + 1) * GOLDEN) mod 2^64.  The +1
    keeps child 0 distinct from the parent's own first state increment.
    """
    if index < 0:
        raise ValueError("index must be non-negative")
    return finalise64((seed + (index + 1) * GOLDEN) & MASK64)


class SplitMix64:
    """A splitmix64 stream plus the few sampling helpers used here."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return finalise64(self.state)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 1.1102230246251565e-16  # 2**-53

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        threshold = (MASK64 + 1) - (MASK64 + 1) % bound
        while True:
            u = self.next_u64()
            if u < threshold:
                return u % bound

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct integers from range(n) via a partial Fisher-Yates."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        pool = list(range(n))
        for i in range(k):
            j = i + self.randrange(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]
