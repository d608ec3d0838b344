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
64-bit draw in bits 0 to 63 of its own 128-bit lane, so that a block costs
a fixed number of big-int operations instead of one interpreted loop per
draw.  A block is k sub-blocks of LANES lanes, k up to SUB_BLOCKS, and
lane j of sub-block i holds draw k * j + i.  Bits 64 to 96 of a lane are
zero, and bits 97 to 127 may hold the next lane's low bits, which no
reader looks at.

Only this module knows that layout.  Samplers read blocks in draw order:
`SplitMix64.words` gives a block's draws as 64-bit words, and an
`Outcomes` reader (`SplitMix64.coins`, `SplitMix64.residues`) one
outcome byte per draw, a coin digit or a `randrange(3)` residue.  The
reader computes the outcome of each draw of sub-block i lane-wise into
byte i of its lane (`_at_byte`), so one `to_bytes` of the block gives up
to 16 outcomes per lane in draw order, and one `translate` maps them and
drops the bytes that hold none (`Outcomes.take`).  It sizes each block by
the outcomes it still expects to give, so the draws that a sampler leaves
unread come after every draw that it reads; a sampler may size it by an
estimate, since the outcomes come in draw order whatever the sizes.

randrange(3) rejects one draw, 2^64 - 1, the draw of the state
REJECTED_STATE, so a residue reader finds it from a block's first state,
once per block, with no test over the lanes (`Outcomes.take`).
"""

from __future__ import annotations

import sys
from array import array
from typing import Callable

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
# The state whose draw is 2^64 - 1, the one draw that randrange(3) rejects,
# and the inverse of GOLDEN mod 2^64, which turns a state step into a count
# of draws
REJECTED_STATE = 0xCF9A04AFFA6BADC0
GOLDEN_INVERSE = pow(GOLDEN, -1, 1 << 64)

# For outcomes packed one byte per draw (`_at_byte`, `Outcomes.take`): bits
# 0 and 1 of byte i in every lane; 0xFF, the mark of a byte that holds no
# outcome, in bytes k to 15 of every lane
_BYTE_BITS = [LANE_ONES * (3 << 8 * i) for i in range(SUB_BLOCKS)]
_UNUSED = [LANE_ONES * ((1 << 128) - (1 << 8 * k)) for k in range(SUB_BLOCKS + 1)]
# The coin codes 0 (z < T) and 1 (z >= T) as the digits 1 and 0, and
# `_residues`' codes 0, 1, 2 and 3 as the residues 0, 1, 2 and 2
_DIGITS = bytes.maketrans(b"\x00\x01", b"10")
_RESIDUES = bytes.maketrans(b"\x03", b"\x02")


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
        64), zeros in the next 33 bits and, in its top 31 bits, what may
        be bits 0 to 30 of lane j + 1; k = 1 is one block of LANES
        consecutive draws.  The states of sub-block 0 are the progression
        k * LANE_STEPS plus one broadcast constant, and each further
        sub-block adds GOLDEN to every lane.  Each multiply of `finalise64`
        is one big-int by 64-bit product of masked lanes, whose lane
        products stay below 2^128, so no carry crosses a lane; the last
        xor-shift alone is left unmasked.
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
            blocks.append(z ^ (z >> 31))
        return blocks

    def words(self, wanted: int) -> array:
        """The draws of the next block (`lanes`) in draw order, as an array
        of 64-bit words, each lane's low word, for a caller that still wants
        `wanted` draws."""
        blocks = self.lanes(wanted)
        words = array("Q", bytes(8 * LANES * len(blocks)))
        for i, z in enumerate(blocks):
            words[i :: len(blocks)] = array("Q", z.to_bytes(16 * LANES, "little"))[::2]
        if sys.byteorder == "big":
            words.byteswap()
        return words

    def coins(self, p: float, total: int) -> Outcomes:
        """A reader of the coin flips of the next `total` draws: b"1" for a
        draw z < T = floor(p * 2^64), else b"0".  The flip is bit 64 of the
        lane z + 2^64 - T, set iff z >= T: the sum is below 2^65, and bits
        64 to 96 of z are zero (`lanes`), so no carry leaves the lane."""
        bias = LANE_ONES * ((1 << 64) - int(p * 18446744073709551616.0))  # 2**64
        return Outcomes(self, total, lambda z, i: _at_byte(z + bias, 64, i), _DIGITS, None)

    def residues(self, total: int) -> Outcomes:
        """A reader of `total` outcomes of `randrange(3)`, one byte 0, 1 or
        2 each, as successive calls of it would draw them (`_residues`).
        The draw of REJECTED_STATE, which randrange(3) rejects, gives no
        outcome, and the stream has still advanced past it."""
        return Outcomes(self, total, _residues, _RESIDUES, REJECTED_STATE)

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


class Outcomes:
    """The outcomes of a stream's draws in draw order, one byte each, for
    a sampler that expects to take `left` more of them (`SplitMix64.coins`
    and `SplitMix64.residues`).  `left` sizes the blocks only: the takes
    give the outcomes in draw order whatever it is, and may add up to more
    than it, which leaves it negative, or to fewer."""

    __slots__ = ("left", "_rng", "_codes", "_table", "_rejected", "_held")

    def __init__(
        self, rng: SplitMix64, total: int, codes: Callable, table: bytes, rejected: int | None
    ):
        self.left = total  # outcomes expected, less those taken
        self._rng = rng
        # codes(z, i): the codes of sub-block z's outcomes, in byte i of its
        # lanes (`_at_byte`), each mapped to its outcome through table
        self._codes = codes
        self._table = table
        self._rejected = rejected  # the state whose draw gives no outcome, if any
        self._held = bytearray()  # outcomes computed and not yet taken

    def take(self, k: int) -> bytearray:
        """The next k outcomes.  Each block read for them is sized by the
        outcomes still expected, `left` less those already held, and is
        one sub-block once no more are expected.  A byte that
        holds no outcome is marked 0xFF and dropped by the translate: in
        every lane, each byte past the block's sub-blocks, and the byte of
        the rejected state's draw.  A block of b sub-blocks from state s
        holds that draw iff d = (rejected - s) * GOLDEN^-1 - 1 mod 2^64 is
        below b * LANES, as byte d % b of lane d // b."""
        held = self._held
        while len(held) < k:
            start = self._rng.state
            blocks = self._rng.lanes(self.left - len(held))
            packed = _UNUSED[len(blocks)]
            for i, z in enumerate(blocks):
                packed |= self._codes(z, i)
            if self._rejected is not None:
                d = ((self._rejected - start) * GOLDEN_INVERSE - 1) & MASK64
                if d < len(blocks) * LANES:
                    packed |= 0xFF << 128 * (d // len(blocks)) + 8 * (d % len(blocks))
            held += packed.to_bytes(16 * LANES, "little").translate(self._table, b"\xff")
        taken = held[:k]
        del held[:k]
        self.left -= k
        return taken


def _residues(z: int, i: int) -> int:
    """The `randrange(3)` codes of sub-block z's draws, in byte i of its lanes.

    randrange(3) is z mod 3, read lane-wise from the product z * M, M =
    0xAAAAAAAAAAAAAAAB = (2^65 + 1) / 3, with z masked to its low 64 bits
    (`SplitMix64.lanes`) so that the product stays below 2^128 in every
    lane.  For z = 3q + r, its low 65 bits are q + r * M, so bits 64 and 63
    read 00 for r = 0, 01 for r = 1 and 10 or 11 for r = 2, and _RESIDUES
    maps the code 3 to 2.  The one draw that randrange(3) rejects, 2^64 -
    1, gets a code here too; `Outcomes.take` marks its byte 0xFF once per
    block, so a block may hold fewer outcomes than draws.
    """
    return _at_byte((z & LANE_MASK) * 0xAAAAAAAAAAAAAAAB, 63, i)


def _at_byte(x: int, bit: int, i: int) -> int:
    """Bits `bit` and `bit` + 1 of every lane of x moved to bits 0 and 1 of
    byte i of the lane, and every other bit cleared."""
    shift = bit - 8 * i
    return (x >> shift if shift >= 0 else x << -shift) & _BYTE_BITS[i]
