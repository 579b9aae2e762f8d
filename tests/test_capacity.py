import math
from fractions import Fraction

import hypothesis
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticeflow import capacity
from latticeflow.capacity import (
    DEFAULT_RESOLUTION,
    CapacityField,
    CapacityOverflowError,
    DistributionSpec,
    as_fraction,
    derive_seed,
    derive_seeds,
    discretize,
    edge_uniform_rows,
    is_power_of_two,
    sample_block,
    sample_field,
    unit_count,
)
from latticeflow.estimators import estimate_psi, exact_tail_probability
from latticeflow.flow import Stream
from latticeflow.junction import DiscreteStream
from reference_capacity import edge_uniforms
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


def test_numpy_floats_read_as_their_shortest_decimal():
    """numpy's float64 is a float whose repr is ``np.float64(0.9)`` under numpy 2;
    it reads as 9/10, as the Python float does."""
    half = np.float64(0.5)
    assert as_fraction(np.float64(0.9)) == Fraction(9, 10)
    assert DistributionSpec.bernoulli(np.float64(0.9)) == DistributionSpec.bernoulli("0.9")
    assert DistributionSpec.uniform(0, half) == DistributionSpec.uniform(0, "1/2")
    bern = DistributionSpec.bernoulli("0.9")
    a, b = (estimate_psi(bern, lam, 2, 2, R, 20, seed=3) for lam in (half, "1/2"))
    assert a.lam == b.lam == Fraction(1, 2) and a.hits == b.hits


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


@pytest.mark.parametrize("make", [DistributionSpec.exponential, DistributionSpec.half_normal])
@pytest.mark.parametrize("value", [math.inf, math.nan, True, np.True_])
def test_rate_and_sigma_must_be_positive_finite_numbers(make, value):
    """An infinite rate would sample every capacity as 0, an infinite sigma
    overflows only at sampling, and True, Python's or numpy's, would read as 1.0."""
    with pytest.raises(ValueError, match="positive and finite"):
        make(value)


@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(lambda: DistributionSpec.finite_discrete([]), ValueError, "at least one atom", id="no-atoms"),
    pytest.param(lambda: DistributionSpec.finite_discrete([("-1", "1")]), ValueError, "non-negative",
                 id="negative-atom"),
    pytest.param(lambda: unit_count(Fraction(-1, 2), 8), ValueError, "non-negative", id="negative-units"),
    pytest.param(lambda: as_fraction(None), TypeError, "cannot interpret", id="fraction-of-none"),
    pytest.param(lambda: CapacityField(BoxSpec((1,), 1), True, [1]), ValueError, "power of two",
                 id="resolution-true"),
    pytest.param(lambda: sample_field(BoxSpec((1,), 1), DistributionSpec.uniform(0, 1), R, seed=True),
                 ValueError, "seed must be", id="seed-true"),
    pytest.param(lambda: derive_seed(1, True), ValueError, "replica index must be", id="replica-index-true"),
    pytest.param(lambda: derive_seed(True, 1), ValueError, "seed must be", id="master-seed-true"),
])
def test_refusals(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


def test_booleans_are_not_powers_of_two():
    assert not is_power_of_two(True) and not is_power_of_two(np.True_) and is_power_of_two(1)


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
    long = edge_uniform_rows([99], 64)[0]
    short = edge_uniform_rows([99], 10)[0]
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


@pytest.mark.parametrize("indices", [
    -1, 2**64, 2**64 + 5, True, np.True_, [True], [0, True], [3, -1], [2**64 + 5], [1.0],
    np.array([-1]), np.array([True]), range(-1, 3), range(2**64 - 1, 2**64 + 1),
], ids=lambda v: repr(v).replace(" ", ""))
def test_replica_index_outside_64_bits_or_boolean_is_refused(indices):
    """-1 used to wrap onto index 2**32 - 1, 2**64 + 5 and the array -1 each
    gave a seed, and True read as index 1."""
    with pytest.raises(ValueError, match="^replica index must be a 64-bit unsigned integer$"):
        derive_seeds(1, indices)


def test_replica_range_equals_its_list():
    """A range is checked at its two ends only; its seeds are those of its entries."""
    for block in (range(0), range(5), range(2**32 - 2, 2**32 + 2), range(2**64 - 3, 2**64), range(9, 1, -3)):
        assert derive_seeds(4, block).tolist() == derive_seeds(4, list(block)).tolist()
        assert derive_seeds(4, block).tolist() == [derive_seed(4, i) for i in block]


@pytest.mark.parametrize("call", [
    pytest.param(lambda: Stream(BoxSpec((1,), 1), 3, np.array([1])), id="stream"),
    pytest.param(lambda: DiscreteStream(BoxSpec((1,), 1), 3, np.array([1]), 2), id="discrete-stream"),
    pytest.param(lambda: CapacityField(BoxSpec((1,), 1), 3, [1]), id="field"),
    pytest.param(lambda: sample_block(BoxSpec((2,), 2), DistributionSpec.bernoulli("0.5"), 3, [1]),
                 id="sample-finite-law"),
    pytest.param(lambda: sample_block(BoxSpec((2,), 2), DistributionSpec.uniform(0, 1), 3, [1]),
                 id="sample-continuous-law"),
    pytest.param(lambda: sample_field(BoxSpec((2,), 2), DistributionSpec.exponential(1.0), 3, 1),
                 id="sample-field"),
    pytest.param(lambda: exact_tail_probability(DistributionSpec.bernoulli("0.5"), BoxSpec((2,), 2), 1,
                                                resolution=3), id="oracle"),
])
def test_resolution_three_is_refused_with_the_one_message(call):
    """Stream and DiscreteStream took any resolution: at R = 3 the level-2
    step is 1, so every amount passed as a multiple of 1/2."""
    with pytest.raises(ValueError, match="^resolution must be a power of two$"):
        call()


LAWS = (
    DistributionSpec.bernoulli("0.9", 0, 1),
    DistributionSpec.finite_discrete([("0", "1/4"), ("1/2", "1/4"), ("3", "1/2")]),
    DistributionSpec.uniform("1/3", "7/2"),
    DistributionSpec.exponential(0.7),
    DistributionSpec.half_normal(1.3),
)
SEED_EXTREMES = [0, 1, 2**63, 2**64 - 1]
EDGE_SEEDS = [*SEED_EXTREMES, *derive_seeds(5, range(6)).tolist()]


@pytest.mark.parametrize("count", [1, 2, 3, 5, 6, 10, 27, 480])
def test_rekeyed_generator_equals_a_fresh_one(count):
    # Philox yields four words per counter step, so the counts straddle it
    rows = edge_uniform_rows(EDGE_SEEDS, count)
    for row, seed in zip(rows, EDGE_SEEDS):
        assert np.array_equal(row, edge_uniforms(seed, count))


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
    rows = edge_uniform_rows(np.array(seeds, dtype=np.uint64), count)
    assert rows.shape == (len(seeds), count)
    for row, s in zip(rows, seeds):
        assert np.array_equal(row, edge_uniforms(s, count))


@pytest.mark.parametrize("rows, count", [(4, 2112), (11, 1408), (2, 6000), (4, 2017), (11, 1409), (2, 6001)])
def test_philox_kernel_equals_numpy_on_wide_blocks(rows, count):
    """Few rows of many draws, the blocks of a box that is not tiny."""
    seeds = [*SEED_EXTREMES, *derive_seeds(7, range(rows)).tolist()][:rows]
    for row, s in zip(edge_uniform_rows(np.array(seeds, dtype=np.uint64), count), seeds):
        assert np.array_equal(row, edge_uniforms(s, count))


@hypothesis.seed(21)
@settings(max_examples=60, deadline=None)
@given(
    seeds=st.lists(st.sampled_from(SEED_EXTREMES) | st.integers(0, 2**64 - 1), min_size=1, max_size=40),
    count=st.integers(0, 70),
)
@example(seeds=SEED_EXTREMES, count=0)
@example(seeds=SEED_EXTREMES, count=9)
def test_philox_words_equal_random_raw(seeds, count):
    """The raw-word kernel is numpy's ``Philox.random_raw`` row by row."""
    words = capacity._philox_words(np.array(seeds, dtype=np.uint64), count)
    assert words.shape == (len(seeds), count) and words.dtype == np.uint64
    for row, s in zip(words, seeds):
        assert row.tolist() == np.random.Philox(key=s).random_raw(count).tolist()


def _numpy_integers(seed, ranges):
    gen = np.random.Generator(np.random.Philox(key=seed))
    return [int(gen.integers(lo, hi)) for lo, hi in ranges]


# Width 1 takes no draw. 2**31 + 1 and 3 * 2**30 reject about half and a
# quarter of their draws; 2**31 and 2**32 reject none, and 2**31 keeps the
# even draws, whose product's low half equals the rejection threshold 0.
# Draws are compared one by one and 2**32 comes last, so a stream that
# rejected at the threshold fails on a width of 2**31 before it loops
# forever on 2**32, where every product's low half is 0.
STREAM_WIDTHS = [1, 2, 3, 6, 2**31 - 1, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 1]
STREAM_RANGES = (
    [(0, 2**31)] * 12 + [(7, 8), (2, 4)] + [(-5, 2**31 - 4)] * 8 + [(1, 2), (0, 6)] * 100
    + [(lo, lo + w) for lo, w in zip(range(-40, 40, 3), STREAM_WIDTHS * 3)] + [(0, 2**32), (9, 2**32 + 9)]
)


def _assert_stream_equals_numpy(seed, ranges):
    stream = capacity._IntegerStream(seed)
    for i, ((lo, hi), expected) in enumerate(zip(ranges, _numpy_integers(seed, ranges))):
        assert stream.integers(lo, hi) == expected, f"call {i}: integers({lo}, {hi})"


@pytest.mark.parametrize("seed", SEED_EXTREMES)
def test_integer_stream_equals_numpy_integers(seed):
    """Interleaved ranges, past the first and second refills of the words."""
    _assert_stream_equals_numpy(seed, STREAM_RANGES)


@hypothesis.seed(21)
@settings(max_examples=120, deadline=None)
@given(
    seed=st.sampled_from(SEED_EXTREMES) | st.integers(0, 2**64 - 1),
    ranges=st.lists(
        st.tuples(st.integers(-(2**40), 2**40), st.sampled_from(STREAM_WIDTHS) | st.integers(1, 2**32 - 1)),
        min_size=1,
        max_size=150,
    ),
)
def test_integer_stream_equals_numpy_integers_on_random_ranges(seed, ranges):
    _assert_stream_equals_numpy(seed, [(lo, lo + width) for lo, width in ranges])


def test_integer_stream_refuses_ranges_it_cannot_draw():
    stream = capacity._IntegerStream(3)
    for lo, hi in [(0, 2**32 + 1), (4, 4), (5, 4)]:
        with pytest.raises(ValueError):
            stream.integers(lo, hi)
    with pytest.raises(ValueError):
        capacity._IntegerStream(2**64)


def test_edge_uniform_rows_agree_across_the_sampler_gate():
    """A block gives numpy's generator's draws row by row, and the same
    draws on its parts and on a prefix of longer rows."""
    seeds = derive_seeds(17, range(256))
    rows = edge_uniform_rows(seeds, 32)
    assert np.array_equal(rows, [edge_uniforms(s, 32) for s in seeds.tolist()])
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
    block = sample_block(box, law, R, seeds)
    u = np.array([edge_uniforms(s, box.edge_count) for s in seeds])
    assert np.array_equal(block, capacity.caps_from_uniforms(law, R, u))
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
