import math
from fractions import Fraction

import hypothesis
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticeflow.capacity import (
    DEFAULT_RESOLUTION,
    CapacityField,
    CapacityOverflowError,
    DistributionSpec,
    _philox_rows,
    as_fraction,
    derive_seed,
    derive_seeds,
    discretize,
    edge_uniform_rows,
    edge_uniforms,
    sample_block,
    sample_field,
    sampler,
    unit_count,
)
from reference_lattice import edge_ids

from latticeflow.lattice import BoxSpec, edges_in_box

R = DEFAULT_RESOLUTION
BIG_BOX = BoxSpec((300,), 170)  # 101830 edges


def test_as_fraction_uses_decimal_reading_of_floats():
    assert as_fraction(0.9) == Fraction(9, 10)
    assert as_fraction("0.9") == Fraction(9, 10)
    assert as_fraction("9/10") == Fraction(9, 10)
    assert as_fraction(3) == 3
    with pytest.raises(ValueError):
        as_fraction(float("inf"))
    with pytest.raises(TypeError):
        as_fraction(True)


def test_unit_count_floor():
    assert unit_count(Fraction(7, 10), 2**20) == math.floor(0.7 * 2**20)
    assert unit_count(Fraction(1, 2), 8) == 4
    assert unit_count(Fraction(0), 8) == 0


def test_distribution_validation():
    with pytest.raises(ValueError):
        DistributionSpec.bernoulli("1.5")
    with pytest.raises(ValueError):
        DistributionSpec.finite_discrete([("1", "0.5"), ("2", "0.4")])
    with pytest.raises(ValueError):
        DistributionSpec.uniform(3, 1)
    with pytest.raises(ValueError):
        DistributionSpec.exponential(0.0)
    with pytest.raises(ValueError):
        DistributionSpec.half_normal(-1.0)
    with pytest.raises(ValueError):
        DistributionSpec.bernoulli("0.5", lo=-1)


def test_distribution_json_round_trip():
    """A config's law dict reads back as the law its constructor builds."""
    for obj, dist in (
        ({"kind": "bernoulli", "p": "0.9", "lo": 0, "hi": 1}, DistributionSpec.bernoulli("0.9", 0, 1)),
        ({"kind": "bernoulli", "p": 0.9}, DistributionSpec.bernoulli("9/10", 0, 1)),
        ({"kind": "finite_discrete", "atoms": [["0", "1/2"], [1, 0.5]]},
         DistributionSpec.finite_discrete([("0", "1/2"), ("1", "1/2")])),
        ({"kind": "uniform", "a": "0", "b": 1}, DistributionSpec.uniform("0", "1")),
        ({"kind": "exponential", "rate": 2}, DistributionSpec.exponential(2.0)),
        ({"kind": "half_normal", "sigma": 0.5}, DistributionSpec.half_normal(0.5)),
    ):
        assert DistributionSpec.from_json(obj) == dist


def test_degenerate_bernoulli_saturates():
    box = BoxSpec((3,), 2)
    field = sample_field(box, DistributionSpec.bernoulli(1, 0, 1), R, seed=5)
    assert set(field.caps.tolist()) == {R}


def test_fair_coin_mean_within_four_sigma():
    dist = DistributionSpec.finite_discrete([("0", "1/2"), ("1", "1/2")])
    field = sample_field(BIG_BOX, dist, R, seed=71)
    n = len(field.caps)
    assert n >= 10**5
    mean = field.caps.mean() / R
    sigma = math.sqrt(0.25 / n)
    assert abs(mean - 0.5) <= 4 * sigma


def test_quantised_uniform_mean():
    field = sample_field(BIG_BOX, DistributionSpec.uniform(0, 1), R, seed=13)
    caps = field.caps
    assert caps.min() >= 0 and caps.max() < R
    n = len(caps)
    expected = 0.5 - 1 / (2 * R)
    sigma = math.sqrt((1 / 12) / n)
    assert abs(caps.mean() / R - expected) <= 4 * sigma


def test_continuous_laws_sample_and_stay_finite():
    box = BoxSpec((4,), 4)
    for dist in (DistributionSpec.exponential(0.5), DistributionSpec.half_normal(2.0)):
        field = sample_field(box, dist, R, seed=3)
        assert field.caps.min() >= 0
        assert np.isfinite(field.caps).all()


def test_sampling_is_reproducible_and_seed_sensitive():
    box = BoxSpec((5,), 5)
    dist = DistributionSpec.uniform(0, 1)
    a = sample_field(box, dist, R, seed=123)
    b = sample_field(box, dist, R, seed=123)
    c = sample_field(box, dist, R, seed=124)
    assert np.array_equal(a.caps, b.caps)
    assert not np.array_equal(a.caps, c.caps)


def test_edge_uniforms_are_counter_based():
    # draw i depends only on (seed, i): prefixes agree whatever the length
    long = edge_uniforms(99, 64)
    short = edge_uniforms(99, 10)
    assert np.array_equal(long[:10], short)


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(7, 0) == derive_seed(7, 0)
    assert derive_seed(7, 0) != derive_seed(7, 1)
    assert derive_seed(8, 0) != derive_seed(7, 0)


def _numpy_sub_seed(master, index):
    ss = np.random.SeedSequence(master, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


@pytest.mark.parametrize("master", [0, 2**32 - 1, 2**32, 2**64 - 1])
def test_derive_seeds_match_numpy_seed_sequence(master):
    # 2**32 and above take a second 32-bit spawn word
    indices = [*range(40), 2**32 - 1, 2**32, 2**32 + 1, 2**47 + 9, 2**64 - 1]
    expected = [_numpy_sub_seed(master, i) for i in indices]
    got = derive_seeds(master, indices)
    assert got.dtype == np.uint64
    assert got.tolist() == expected
    assert [derive_seed(master, i) for i in indices] == expected
    with pytest.raises(ValueError):
        derive_seed(master, -1)


LAWS = (
    DistributionSpec.bernoulli("0.9", 0, 1),
    DistributionSpec.finite_discrete([("0", "1/4"), ("1/2", "1/4"), ("3", "1/2")]),
    DistributionSpec.uniform("1/3", "7/2"),
    DistributionSpec.exponential(0.7),
    DistributionSpec.half_normal(1.3),
)
SEED_EXTREMES = [0, 1, 2**63, 2**64 - 1]
EDGE_SEEDS = [*SEED_EXTREMES, *derive_seeds(5, range(6)).tolist()]


def _fresh_philox(seed, count):
    return np.random.Generator(np.random.Philox(key=seed)).random(count)


@pytest.mark.parametrize("count", [1, 2, 3, 5, 6, 10, 27, 480])
def test_rekeyed_generator_equals_a_fresh_one(count):
    # Philox yields four words per counter step, so the counts straddle it
    rows = edge_uniform_rows(EDGE_SEEDS, count)
    for row, seed in zip(rows, EDGE_SEEDS):
        assert np.array_equal(row, _fresh_philox(seed, count))


@hypothesis.seed(16)
@settings(max_examples=80, deadline=None)
@given(
    seeds=st.lists(st.sampled_from(SEED_EXTREMES) | st.integers(0, 2**64 - 1), min_size=1, max_size=300),
    count=st.integers(1, 64),
)
@example(seeds=SEED_EXTREMES, count=1)
@example(seeds=SEED_EXTREMES, count=7)
@example(seeds=SEED_EXTREMES, count=64)
def test_philox_kernel_equals_numpy(seeds, count):
    """The array Philox reproduces numpy's generator row by row, counts that
    are not multiples of the four-word counter block included."""
    rows = _philox_rows(np.array(seeds, dtype=np.uint64), count)
    assert rows.shape == (len(seeds), count)
    for row, s in zip(rows, seeds):
        assert np.array_equal(row, _fresh_philox(s, count))


def test_edge_uniform_rows_agree_across_the_sampler_gate():
    """Blocks of >= 256 rows of <= 32 draws take the array kernel; one row or
    one draw fewer or more crosses the gate without changing a single draw."""
    seeds = derive_seeds(17, range(256))
    assert sampler(256, 32) == "vectorised"
    assert sampler(255, 32) == sampler(256, 33) == sampler(1, 6) == "numpy"
    rows = edge_uniform_rows(seeds, 32)
    split = [edge_uniform_rows(seeds[:255], 32), edge_uniform_rows(seeds[255:], 32)]
    assert np.array_equal(rows, np.vstack(split))
    assert np.array_equal(rows, edge_uniform_rows(seeds, 33)[:, :32])
    assert np.array_equal(rows, edge_uniform_rows(seeds.tolist(), 32))
    # seeds of any integer dtype are read as ints and checked
    assert np.array_equal(edge_uniform_rows(np.arange(300), 6), edge_uniform_rows(list(range(300)), 6))
    with pytest.raises(ValueError):
        edge_uniform_rows(np.arange(-1, 299), 6)


@pytest.mark.parametrize("law", LAWS, ids=lambda law: law.kind)
@pytest.mark.parametrize("box", [BoxSpec((1,), 1), BoxSpec((3,), 2), BoxSpec((5,), 3), BoxSpec((2, 3), 1)])
def test_block_rows_equal_one_seed_sampling(law, box):
    assert box.edge_count % 4  # 1, 10, 27 and 13 edges: never whole counters
    block = sample_block(box, law, R, EDGE_SEEDS)
    assert block.shape == (len(EDGE_SEEDS), box.edge_count) and block.dtype == np.int64
    for row, seed in zip(block, EDGE_SEEDS):
        assert np.array_equal(row, sample_field(box, law, R, seed).caps)


@pytest.mark.parametrize("law", LAWS, ids=lambda law: law.kind)
@pytest.mark.parametrize("box", [BoxSpec((3,), 2), BoxSpec((5,), 3)])
def test_vectorised_block_rows_equal_one_seed_sampling(law, box):
    seeds = EDGE_SEEDS + derive_seeds(6, range(300)).tolist()
    assert sampler(len(seeds), box.edge_count) == "vectorised"
    block = sample_block(box, law, R, seeds)
    for row, s in zip(block, seeds):
        assert np.array_equal(row, sample_field(box, law, R, s).caps)


@pytest.mark.parametrize(
    "law",
    [
        DistributionSpec.bernoulli("0.5", 0, "1e15"),
        DistributionSpec.uniform(0, "1e15"),
        DistributionSpec.exponential(1e-20),
    ],
    ids=lambda law: law.kind,
)
def test_block_sampling_overflow_raises(law):
    box = BoxSpec((3,), 3)
    with pytest.raises(CapacityOverflowError):
        sample_block(box, law, R, EDGE_SEEDS)
    with pytest.raises(CapacityOverflowError):
        sample_field(box, law, R, 0)


def test_sample_rejects_bad_inputs():
    box = BoxSpec((2,), 2)
    dist = DistributionSpec.uniform(0, 1)
    with pytest.raises(ValueError):
        sample_field(box, dist, 0, seed=1)
    with pytest.raises(ValueError):
        sample_field(box, dist, 3, seed=1)
    with pytest.raises(ValueError):
        sample_field(box, dist, R, seed=-1)
    with pytest.raises(ValueError):
        sample_field(box, dist, R, seed=2**64)


def test_discretize_examples():
    box = BoxSpec((1,), 1)
    field = CapacityField(box, 2**20, [unit_count(Fraction(7, 10), 2**20)])
    halves = discretize(field, 2)
    assert halves.caps[0] == 2**19  # 0.7 rounds down to 0.5
    assert np.array_equal(discretize(field, 2**20).caps, field.caps)


def test_discretize_validation():
    box = BoxSpec((1,), 1)
    field = CapacityField(box, 16, [7])
    with pytest.raises(ValueError):
        discretize(field, 3)
    with pytest.raises(ValueError):
        discretize(field, 32)


@given(caps=st.lists(st.integers(0, 2**16), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_discretize_laws(caps):
    box = BoxSpec((1,), 3)
    field = CapacityField(box, 2**16, caps)
    coarse = discretize(field, 4)
    fine = discretize(field, 8)
    # never increases, and finer grids dominate coarser ones
    assert (coarse.caps <= field.caps).all()
    assert (coarse.caps <= fine.caps).all()
    # re-discretising at a coarser level matches discretising directly
    assert np.array_equal(discretize(fine, 4).caps, coarse.caps)


def test_field_validation_and_lookup():
    box = BoxSpec((2,), 1)
    with pytest.raises(ValueError):
        CapacityField(box, R, [1, 2])  # wrong length
    with pytest.raises(ValueError):
        CapacityField(box, R, [-1, 0, 0])
    with pytest.raises(ValueError):
        CapacityField(box, 12, [0, 0, 0])
    field = CapacityField(box, R, [5, 6, 7])
    assert field.caps.tolist() == [5, 6, 7]
    with pytest.raises(ValueError):
        field.caps[0] = 1  # write-locked


def test_restrict_to_subbox():
    big = BoxSpec((2,), 3)
    field = sample_field(big, DistributionSpec.uniform(0, 1), R, seed=9)
    sub = BoxSpec((2,), 2)
    small = field.restrict_to(sub)
    ids = edge_ids(big)
    for i, e in enumerate(edges_in_box(sub)):
        assert small.caps[i] == field.caps[ids[e]]
    with pytest.raises(ValueError):
        field.restrict_to(BoxSpec((3,), 2))
