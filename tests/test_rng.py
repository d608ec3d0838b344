from monotree.rng import LANES, SplitMix64, derive_seed, finalise64

import pytest


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


def test_random_unit_interval_and_rough_uniformity():
    rng = SplitMix64(7)
    xs = [rng.random() for _ in range(20000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert abs(sum(xs) / len(xs) - 0.5) < 0.01


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


@pytest.mark.parametrize("wanted, lanes", [(1, 1), (3, 4), (129, 256), (256, 256), (1000, LANES)])
def test_lanes_pack_the_next_draws(wanted, lanes):
    # draw j of the block sits in bits [128j, 128j + 64), and the stream
    # moves on by the whole block, as if next_u64 had been called per lane
    block, reference = SplitMix64(2024), SplitMix64(2024)
    z, got = block.lanes(wanted)
    assert got == lanes
    draws = [(z >> (128 * j)) & ((1 << 128) - 1) for j in range(lanes)]
    assert draws == [reference.next_u64() for _ in range(lanes)]
    assert z >> (128 * lanes) == 0
    assert block.state == reference.state
    with pytest.raises(ValueError):
        block.lanes(0)
