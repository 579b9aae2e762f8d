import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeflow.capacity import (
    DEFAULT_RESOLUTION,
    CapacityField,
    CapacityOverflowError,
    DistributionSpec,
    as_fraction,
    derive_seed,
    derive_seeds,
    discretize,
    dist_constants,
    edge_uniform_rows,
    edge_uniforms,
    sample_block,
    sample_field,
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
    for dist in (
        DistributionSpec.bernoulli("0.9", 0, 1),
        DistributionSpec.finite_discrete([("0", "1/2"), ("1", "1/2")]),
        DistributionSpec.uniform("0", "1"),
        DistributionSpec.exponential(2.0),
        DistributionSpec.half_normal(0.5),
    ):
        assert DistributionSpec.from_json(dist.to_json()) == dist


def test_dist_constants():
    c = dist_constants(DistributionSpec.bernoulli(0.9, 0, 1))
    assert (c.mu, c.beta, c.q_mu) == (1, 0, Fraction(9, 10))
    c = dist_constants(DistributionSpec.uniform(2, 5))
    assert (c.mu, c.beta, c.q_mu) == (5, 2, 0)
    c = dist_constants(DistributionSpec.exponential(1.0))
    assert c.mu_is_infinite and c.beta == 0 and c.q_mu == 0
    c = dist_constants(DistributionSpec.half_normal(1.0))
    assert c.mu_is_infinite
    # degenerate cases
    c = dist_constants(DistributionSpec.bernoulli(1, 0, 2))
    assert (c.mu, c.beta, c.q_mu) == (2, 2, 1)
    c = dist_constants(DistributionSpec.uniform(3, 3))
    assert (c.mu, c.beta, c.q_mu) == (3, 3, 1)


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
EDGE_SEEDS = [0, 1, 2**63, 2**64 - 1, *derive_seeds(5, range(6)).tolist()]


@pytest.mark.parametrize("count", [1, 2, 3, 5, 6, 10, 27, 480])
def test_rekeyed_generator_equals_a_fresh_one(count):
    # Philox yields four words per counter step, so the counts straddle it
    rows = edge_uniform_rows(EDGE_SEEDS, count)
    for row, seed in zip(rows, EDGE_SEEDS):
        assert np.array_equal(row, np.random.Generator(np.random.Philox(key=seed)).random(count))


@pytest.mark.parametrize("law", LAWS, ids=lambda law: law.kind)
@pytest.mark.parametrize("box", [BoxSpec((1,), 1), BoxSpec((3,), 2), BoxSpec((5,), 3), BoxSpec((2, 3), 1)])
def test_block_rows_equal_one_seed_sampling(law, box):
    assert box.edge_count % 4  # 1, 10, 27 and 13 edges: never whole counters
    block = sample_block(box, law, R, EDGE_SEEDS)
    assert block.shape == (len(EDGE_SEEDS), box.edge_count) and block.dtype == np.int64
    for row, seed in zip(block, EDGE_SEEDS):
        assert np.array_equal(row, sample_field(box, law, R, seed).caps)


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
