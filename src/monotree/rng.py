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
compute a block of consecutive draws at once in packed Python ints, each
64-bit draw in the low half of its own 128-bit lane, so that a block costs
a fixed number of big-int operations instead of one interpreted loop per
draw.  A block is k sub-blocks of LANES lanes, k up to SUB_BLOCKS, and
lane j of sub-block i holds draw k * j + i: a consumer that writes the
outcome of sub-block i into byte i of each lane gets, from one
`to_bytes`, up to 16 outcomes per lane already in draw order.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

# The lanes of one sub-block of `SplitMix64.lanes`, and the most
# sub-blocks in one block: one per byte of a 128-bit lane.
LANES = 256
SUB_BLOCKS = 16
# For one sub-block of 128-bit lanes: 1 in every lane, j * GOLDEN mod 2^64
# in lane j, 2^64 - 1 in every lane, and GOLDEN in every lane.
LANE_ONES = int.from_bytes(b"\x01".ljust(16, b"\x00") * LANES, "little")
LANE_STEPS = int.from_bytes(
    b"".join(((j * GOLDEN) & MASK64).to_bytes(16, "little") for j in range(LANES)),
    "little",
)
LANE_MASK = LANE_ONES * MASK64
LANE_GOLDEN = LANE_ONES * GOLDEN


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

    def lanes(self, wanted: int) -> list[int]:
        """The next k * LANES draws as k sub-blocks, one packed int each,
        for a caller that still wants `wanted` draws: k = ceil(wanted /
        LANES), at least 1 and at most SUB_BLOCKS.  The stream advances by
        k * LANES draws.

        Lane j of sub-block i holds draw k * j + i in bits [128j, 128j +
        64), and the upper half of every lane is zero; k = 1 is one block
        of LANES consecutive draws.  The states of sub-block 0 are the
        progression k * LANE_STEPS plus one broadcast constant, and each
        further sub-block adds GOLDEN to every lane.  Each xor-shift of
        `finalise64` is a shift, an xor and a lane mask, and each multiply
        is one big-int by 64-bit product, whose lane products stay below
        2^128, so no carry crosses a lane.  A caller that needs fewer draws
        leaves the rest unread.
        """
        k = min(SUB_BLOCKS, max(1, -(-wanted // LANES)))
        # lane j holds state + k * j * GOLDEN, below 2^69 until masked
        x = k * LANE_STEPS + self.state * LANE_ONES
        self.state = (self.state + k * LANES * GOLDEN) & MASK64
        blocks = []
        for _ in range(k):
            x = (x + LANE_GOLDEN) & LANE_MASK
            z = ((x ^ (x >> 30)) & LANE_MASK) * 0xBF58476D1CE4E5B9 & LANE_MASK
            z = ((z ^ (z >> 27)) & LANE_MASK) * 0x94D049BB133111EB & LANE_MASK
            blocks.append((z ^ (z >> 31)) & LANE_MASK)
        return blocks

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
