import random

from monotree.rng import (
    GOLDEN,
    LANES,
    MASK64,
    REJECTED_STATE,
    SUB_BLOCKS,
    SplitMix64,
    derive_seed,
    finalise64,
)

import pytest

import support


def test_stream_is_deterministic():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_known_splitmix_values():
    # Reference values for seed 0 from the published splitmix64 recurrence.
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_derived_seeds_differ_from_parent_and_siblings():
    parent = 987654321
    children = [derive_seed(parent, i) for i in range(100)]
    assert len(set(children)) == 100
    assert parent not in children
    assert derive_seed(parent, 3) == derive_seed(parent, 3)


def test_derive_seed_rejects_negative_index():
    with pytest.raises(ValueError):
        derive_seed(1, -1)


def test_randrange_bounds_and_rejection():
    rng = SplitMix64(99)
    draws = [rng.randrange(7) for _ in range(5000)]
    assert set(draws) == set(range(7))
    with pytest.raises(ValueError):
        rng.randrange(0)


def test_sample_distinct_and_in_range():
    rng = SplitMix64(5)
    picked = rng.sample(30, 12)
    assert len(picked) == 12
    assert len(set(picked)) == 12
    assert all(0 <= x < 30 for x in picked)
    with pytest.raises(ValueError):
        rng.sample(5, 6)


def test_finalise_is_a_bijection_sample():
    outs = {finalise64(x) for x in range(4096)}
    assert len(outs) == 4096


def unpack(blocks: list[int]) -> list[int]:
    """The draws of a block of k sub-blocks, in draw order: lane j of
    sub-block i holds draw k * j + i in bits 0 to 63 of its 128 bits.  Bits
    64 to 96 of every lane, where a coin reader's sum carries to, must be
    zero; bits 97 to 127 are left to the next lane's low bits."""
    k = len(blocks)
    draws = [0] * (k * LANES)
    for i, z in enumerate(blocks):
        assert z >> (128 * LANES) == 0
        for j in range(LANES):
            lane = z >> (128 * j)
            assert lane >> 64 & ((1 << 33) - 1) == 0
            draws[k * j + i] = lane & MASK64
    return draws


@pytest.mark.parametrize("k", range(1, SUB_BLOCKS + 1))
def test_every_sub_block_count_gives_the_next_draws(k):
    # asking for k * LANES draws, or for one more than k - 1 sub-blocks
    # hold, gives k sub-blocks: the stream's next k * LANES draws in order,
    # bits 64 to 96 of every lane zero, and the stream k * LANES draws on
    block, reference = SplitMix64(2024), SplitMix64(2024)
    for wanted in ((k - 1) * LANES + 1, k * LANES):
        blocks = block.lanes(wanted)
        assert len(blocks) == k
        assert unpack(blocks) == [reference.next_u64() for _ in range(k * LANES)]
        assert block.state == reference.state


# (wanted, lanes): a caller needing `wanted` draws, and the width of the
# narrower block that a draw count once bought (the smallest power of two
# >= wanted, at most LANES); the block starts with those same lanes
@pytest.mark.parametrize(
    "wanted, lanes", [(1, 1), (3, 4), (129, 256), (256, 256), (1000, LANES), (5000, LANES)]
)
def test_lanes_pack_the_next_draws(wanted, lanes):
    # a caller that asks for the draws it still wants gets ceil(wanted /
    # LANES) sub-blocks, at most SUB_BLOCKS per block, and with them the
    # stream's next draws in order, as if next_u64 had been called per draw,
    # with bits 64 to 96 of every lane zero
    block, reference = SplitMix64(2024), SplitMix64(2024)
    draws = []
    while len(draws) < wanted:
        blocks = block.lanes(wanted - len(draws))
        assert len(blocks) == min(SUB_BLOCKS, -(-(wanted - len(draws)) // LANES))
        draws += unpack(blocks)
    assert len(draws) == -(-wanted // LANES) * LANES
    assert draws == [reference.next_u64() for _ in draws]
    assert block.state == reference.state
    narrow = [finalise64((2024 + (j + 1) * GOLDEN) & MASK64) for j in range(lanes)]
    assert draws[:lanes] == narrow


@pytest.mark.parametrize("wanted", [1, 256, 4096, 5000])
def test_words_are_the_next_draws(wanted):
    # one block of min(16, ceil(wanted / 256)) sub-blocks, in draw order;
    # a second call goes on where the first stopped
    rng, reference = SplitMix64(2024), SplitMix64(2024)
    k = min(SUB_BLOCKS, -(-wanted // LANES))
    for _ in range(2):
        words = rng.words(wanted)
        assert list(words) == [reference.next_u64() for _ in range(k * LANES)]
        assert rng.state == reference.state


def test_rejected_state_gives_the_draw_randrange_3_rejects():
    assert REJECTED_STATE == support.finalise64_inverse(MASK64)
    assert finalise64(REJECTED_STATE) == MASK64


def rejecting_seed(index: int) -> int:
    """The seed whose draw number `index` is 2^64 - 1, which randrange(3)
    rejects."""
    seed = (support.finalise64_inverse(MASK64) - (index + 1) * GOLDEN) & MASK64
    assert finalise64((seed + (index + 1) * GOLDEN) & MASK64) == MASK64
    return seed


# (name, reader, draw): a reader of `total` outcomes of a stream, and one
# outcome drawn from a stream by its definition
READERS = [
    (
        f"coins-{p}",
        lambda rng, total, p=p: rng.coins(p, total),
        lambda rng, p=p: b"01"[rng.next_u64() < int(p * 2**64)],
    )
    for p in (0.37, 1.0)
] + [("residues", lambda rng, total: rng.residues(total), lambda rng: rng.randrange(3))]


def splits(total: int) -> list[list[int]]:
    """Ways to take `total` outcomes: at once, one at a time, in shrinking
    rows as a triangle of pairs is read, in blocks' worth, and at random."""
    rows, width = [], 1
    while sum(rows) + width <= total:
        rows.append(width)
        width += 1
    rows = rows[::-1] + [total - sum(rows)]
    parts, rng = [], random.Random(total)
    while sum(parts) < total:
        parts.append(min(rng.randrange(1, 3000), total - sum(parts)))
    blocks = [4096] * (total // 4096) + [total % 4096]
    return [[total], [0, total, 0], [1] * total, rows, blocks, parts]


@pytest.mark.parametrize("name, reader, draw", READERS, ids=[r[0] for r in READERS])
# seeds whose rejected draw is the first, the last of a one-sub-block block
# (a take of one outcome), the last of a whole block, the first of the
# second block, and one inside a later block
@pytest.mark.parametrize(
    "seed",
    [
        77,
        rejecting_seed(0),
        rejecting_seed(255),
        rejecting_seed(4095),
        rejecting_seed(4096),
        rejecting_seed(4300),
    ],
)
@pytest.mark.parametrize("total", [0, 1, 4095, 4096, 4097, 8191, 8192, 8193])
def test_reader_gives_the_outcomes_in_draw_order(name, reader, draw, seed, total):
    # any split of the total into takes gives the outcomes of the stream's
    # draws by their definition, one byte each, rejected draws dropped; the
    # stream stops at the first whole sub-block past the last draw used
    reference = SplitMix64(seed)
    expected = bytes(draw(reference) for _ in range(total))
    used = (reference.state - seed) * pow(GOLDEN, -1, 2**64) & MASK64
    for split in splits(total):
        rng = SplitMix64(seed)
        outcomes = reader(rng, total)
        assert b"".join(outcomes.take(k) for k in split) == expected
        assert outcomes.left == 0
        assert rng.state == (seed + -(-used // LANES) * LANES * GOLDEN) & MASK64
