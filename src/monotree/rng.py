"""Deterministic 64-bit pseudo-random streams.

The generator is splitmix64 (Steele, Lea and Flood's splittable generator),
chosen because it is tiny, widely documented, and exactly reproducible with
plain integer arithmetic on any platform.  Child streams are always
derived, never taken by continuing a parent stream, so adding a consumer
somewhere never shifts the draws seen elsewhere.  Sub-operations derive
theirs with `derive_seed`; the experiment driver's per-trial seeds come
from its own mix chain over the cell coordinates (`experiment.trial_seed`,
built on `finalise64`).

splitmix64 is counter-based: draw i of the stream seeded with s is
finalise64(s + (i + 1) * GOLDEN mod 2^64).  `SplitMix64.lanes` uses that to
compute a block of consecutive draws at once in one packed Python int,
each 64-bit draw in its own 128-bit lane, so that a block costs a fixed
number of big-int operations instead of one interpreted loop per draw.
"""

from __future__ import annotations

from functools import lru_cache

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

# The most draws `SplitMix64.lanes` computes in one block; smaller blocks
# are the power of two that covers what is wanted.
LANES = 256


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


@lru_cache(maxsize=LANES.bit_length())
def lane_constants(lanes: int) -> tuple[int, int, int]:
    """(ones, steps, mask) for a block of `lanes` 128-bit lanes: 1 in every
    lane, j * GOLDEN mod 2^64 in lane j, and 2^64 - 1 in every lane.

    Only powers of two up to LANES are asked for, so the cache is bounded.
    """
    ones = int.from_bytes(b"\x01".ljust(16, b"\x00") * lanes, "little")
    steps = int.from_bytes(
        b"".join(((j * GOLDEN) & MASK64).to_bytes(16, "little") for j in range(lanes)),
        "little",
    )
    return ones, steps, ones * MASK64


class SplitMix64:
    """A splitmix64 stream plus the few sampling helpers used here."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return finalise64(self.state)

    def lanes(self, wanted: int) -> tuple[int, int]:
        """The next `lanes` outputs packed into one int, and `lanes`.

        `lanes` is LANES, or the smallest power of two >= `wanted` when
        fewer are wanted; the stream advances by `lanes` draws either way.
        Output j sits in bits [128j, 128j + 64) and the upper half of every
        lane is zero.  The states are a cached progression j * GOLDEN plus
        one broadcast constant; each xor-shift of `finalise64` is a shift,
        an xor and a lane mask; and each multiply is one big-int by 64-bit
        product, whose lane products stay below 2^128, so no carry crosses
        a lane.
        """
        if wanted <= 0:
            raise ValueError("need at least one draw")
        lanes = LANES if wanted >= LANES else 1 << (wanted - 1).bit_length()
        ones, steps, mask = lane_constants(lanes)
        z = (steps + ((self.state + GOLDEN) & MASK64) * ones) & mask
        self.state = (self.state + lanes * GOLDEN) & MASK64
        z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
        z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
        return (z ^ (z >> 31)) & mask, lanes

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
