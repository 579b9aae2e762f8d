import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_junction import boundary_condition, boundary_count_bound, truncated_projection
from reference_lattice import classify_edge, edge_ids, sorted_edges_in_box

from latticeflow.capacity import (
    DEFAULT_RESOLUTION,
    CapacityField,
    CapacityOverflowError,
    DistributionSpec,
    derive_seed,
    discretize,
    sample_field,
)
from latticeflow.flow import Stream, flow_value, max_flow, validate_stream
from latticeflow.junction import (
    DiscreteStream,
    JunctionHypothesisError,
    discrete_max_flow_stream,
    flip_vertical,
    flip_vertical_field,
    join_streams,
    merge_stacked_fields,
    translate_field,
    translate_stream,
)
from latticeflow.lattice import VERTICAL, BoxSpec, Edge, edges_in_box

R = DEFAULT_RESOLUTION


def column_stream(box, amounts, level=1):
    """Stream made of full vertical columns; amounts are whole units per column."""
    ids = edge_ids(box)
    flow = np.zeros(len(ids), dtype=np.int64)
    for base, a in zip(box.base_points(), amounts):
        for z in range(box.z_lo, box.z_hi):
            flow[ids[Edge(base + (z,), base + (z + 1,))]] = a
    return DiscreteStream(box, R, flow, level)


def fat_column_field(box, column, units):
    caps = np.zeros(len(edges_in_box(box)), dtype=np.int64)
    ids = edge_ids(box)
    for z in range(box.z_lo, box.z_hi):
        caps[ids[Edge((column, z), (column, z + 1))]] = units
    return CapacityField(box, R, caps)


def test_discrete_stream_validation():
    box = BoxSpec((2,), 2)
    ids = edge_ids(box)
    n = len(ids)
    # not a multiple of R/2
    with pytest.raises(ValueError, match="multiples"):
        DiscreteStream(box, R, np.full(n, R // 3), 2)
    # flow on a top-face horizontal edge
    flow = np.zeros(n, dtype=np.int64)
    flow[ids[Edge((1, 2), (2, 2))]] = R
    with pytest.raises(ValueError, match="top face"):
        DiscreteStream(box, R, flow, 1)
    # balanced, but leaving the box down a bottom-face edge: up column 2,
    # across to (1, 1) and back down to (1, 0)
    down = np.zeros(n, dtype=np.int64)
    down[ids[Edge((2, 0), (2, 1))]] = R
    down[ids[Edge((1, 1), (2, 1))]] = -R
    down[ids[Edge((1, 0), (1, 1))]] = -R
    with pytest.raises(ValueError, match="bottom-up"):
        DiscreteStream(box, R, down, 1)
    # unbalanced interior vertex
    flow2 = np.zeros(n, dtype=np.int64)
    flow2[ids[Edge((1, 0), (1, 1))]] = R
    with pytest.raises(ValueError, match="unbalanced"):
        DiscreteStream(box, R, flow2, 1)


def test_truncated_projection_zero_stream():
    box = BoxSpec((2,), 3)
    zero = DiscreteStream(box, R, np.zeros(box.edge_count, dtype=np.int64), 1)
    assert truncated_projection(zero, 0, 1, 2) == (0, 0)


def test_truncated_projection_caps_heavy_column():
    box = BoxSpec((2,), 2)
    ds = column_stream(box, (2 * R, 0))
    # lam * n = 0: cap is one whole unit
    assert truncated_projection(ds, 0, 0, 2) == (R, 0)


def test_truncated_projection_inactive_cap():
    box = BoxSpec((2,), 2)
    field = CapacityField.constant(box, R)
    ds = discrete_max_flow_stream(box, field, 2)
    raw = tuple(int(ds.flow[edge_ids(box)[Edge((x, 0), (x, 1))]]) for x in (1, 2))
    assert truncated_projection(ds, 0, 100, 2) == raw


def test_truncation_monotone_in_lam():
    box = BoxSpec((3,), 2)
    ds = column_stream(box, (3 * R, R, 0))
    grids = [truncated_projection(ds, 0, lam, 3) for lam in (0, Fraction(1, 3), 1, 2)]
    for lo, hi in itertools.pairwise(grids):
        assert all(a <= b for a, b in zip(lo, hi))


def test_boundary_condition_and_reflection():
    box = BoxSpec((2,), 3)
    field = sample_field(box, DistributionSpec.uniform(0, 1), R, seed=88)
    ds = discrete_max_flow_stream(box, field, 4)
    bc = boundary_condition(ds, Fraction(1, 2), 2)
    assert bc.pi1 == truncated_projection(ds, 0, Fraction(1, 2), 2)
    assert bc.pi2 == truncated_projection(ds, 2, Fraction(1, 2), 2)
    flipped = boundary_condition(flip_vertical(ds), Fraction(1, 2), 2)
    assert flipped == bc.reflected()
    assert bc.reflected().reflected() == bc


def test_flip_preserves_validity_and_flow():
    box = BoxSpec((3,), 3)
    for trial in range(6):
        field = sample_field(box, DistributionSpec.uniform(0, 1), R, seed=derive_seed(51, trial))
        ds = discrete_max_flow_stream(box, field, 2)
        flipped = flip_vertical(ds)
        assert flow_value(flipped) == flow_value(ds)
        mirror_field = flip_vertical_field(discretize(field, 2))
        assert validate_stream(box, mirror_field, flipped) == []


def test_flip_refuses_a_flow_with_no_64_bit_mirror():
    # 2**63 units cross (2, 1, 1) -> (1, 1, 1), stored as -2**63; mirrored,
    # the horizontal edge would need +2**63
    box = BoxSpec((2, 2), 2)
    ids = edge_ids(box)
    flow = np.zeros(len(ids), dtype=np.int64)
    half = 2**62
    for a, b, x in [
        ((2, 1, 0), (2, 1, 1), half),
        ((2, 2, 0), (2, 2, 1), half),
        ((2, 1, 1), (2, 2, 1), -half),
        ((1, 1, 1), (2, 1, 1), -(2**63)),
        ((1, 1, 1), (1, 1, 2), half),
        ((1, 1, 1), (1, 2, 1), half),
        ((1, 2, 1), (1, 2, 2), half),
    ]:
        flow[ids[Edge(a, b)]] = x
    with pytest.raises(CapacityOverflowError):
        flip_vertical(DiscreteStream(box, R, flow, 1))


def test_boundary_count_bound_values():
    assert boundary_count_bound(1, 2, 2, 2) == 2401
    assert boundary_count_bound(0, 1, 1, 2) == 4
    with pytest.raises(ValueError):
        boundary_count_bound(1, 0, 1, 2)


def test_boundary_count_bound_dominates_enumeration():
    # all discrete streams at level 1 on the 2-column height-2 box with
    # capacities of two whole units; vertical flows up, one free horizontal
    box = BoxSpec((2,), 2)
    ids = edge_ids(box)
    n = len(ids)
    lam = Fraction(1, 2)
    seen = set()
    h_edge = ids[Edge((1, 1), (2, 1))]
    cols = [[ids[Edge((x, 0), (x, 1))], ids[Edge((x, 1), (x, 2))]] for x in (1, 2)]
    for b1, b2, t1, t2 in itertools.product(range(3), repeat=4):
        flow_h = b1 - t1  # balance at (1,1): surplus moves to the other column
        if flow_h != t2 - b2 or abs(flow_h) > 2:
            continue
        flow = np.zeros(n, dtype=np.int64)
        flow[cols[0][0]], flow[cols[0][1]] = b1 * R, t1 * R
        flow[cols[1][0]], flow[cols[1][1]] = b2 * R, t2 * R
        flow[h_edge] = flow_h * R
        ds = DiscreteStream(box, R, flow, 1)
        bc = boundary_condition(ds, lam, 2)
        seen.add((bc.pi1, bc.pi2))
    assert 0 < len(seen) <= boundary_count_bound(lam, 2, 1, 2)


def test_join_concatenates_constant_columns():
    box = BoxSpec((2,), 3)
    s1 = column_stream(box, (R, R), level=2)
    s2 = translate_stream(flip_vertical(s1), 3)
    joined = join_streams(s1, s2, Fraction(1, 2), 2, 2)
    assert joined.box == BoxSpec((2,), 6)
    assert flow_value(joined) == 2 * R
    union_field = CapacityField.constant(joined.box, R)
    assert validate_stream(joined.box, union_field, joined) == []


def test_join_fat_column_regluing():
    box = BoxSpec((2,), 3)
    field = fat_column_field(box, 1, 2 * R)
    k = 2
    s1 = discrete_max_flow_stream(box, field, k)
    assert flow_value(s1) == 2 * R
    s2 = translate_stream(flip_vertical(s1), 3)
    f2 = translate_field(flip_vertical_field(field), 3)
    lam = Fraction(3, 4)  # lam * n = 1.5 < 2 on the fat column: regluing branch
    joined = join_streams(s1, s2, lam, 2, k)
    expected = math.ceil(lam * 2 * k) * (R // k)
    assert flow_value(joined) == expected
    union_field = merge_stacked_fields(discretize(field, k), discretize(f2, k))
    assert validate_stream(joined.box, union_field, joined) == []
    assert max_flow(joined.box, union_field).value >= flow_value(joined)


def test_join_reports_flow_shortfall():
    box = BoxSpec((2,), 3)
    s1 = column_stream(box, (R, 0), level=1)
    s2 = translate_stream(flip_vertical(s1), 3)
    with pytest.raises(JunctionHypothesisError) as err:
        join_streams(s1, s2, 2, 2, 1)  # needs flow 4, streams carry 1
    assert err.value.reason == "flow_shortfall"


def test_join_reports_projection_mismatch_point():
    box = BoxSpec((2,), 3)
    s1 = column_stream(box, (R, R), level=1)
    other = translate_stream(flip_vertical(column_stream(box, (2 * R, 0), level=1)), 3)
    with pytest.raises(JunctionHypothesisError) as err:
        join_streams(s1, other, Fraction(1, 2), 2, 1)
    assert err.value.reason == "projection_mismatch"
    assert err.value.base_point == (1,)


def test_join_randomised_hypothesis_satisfying_pairs():
    rng = np.random.Generator(np.random.Philox(key=909))
    dist = DistributionSpec.finite_discrete([("0", "0.25"), ("0.5", "0.25"), ("1", "0.5")])
    done = 0
    trial = 0
    while done < 25:
        trial += 1
        n = int(rng.integers(2, 5))
        height = int(rng.integers(2, 5))
        level = 2 ** int(rng.integers(0, 3))
        box = BoxSpec((n,), height)
        field = sample_field(box, dist, R, seed=derive_seed(910, trial))
        s1 = discrete_max_flow_stream(box, field, level)
        total = flow_value(s1)
        if total == 0:
            continue
        done += 1
        s2 = translate_stream(flip_vertical(s1), height)
        f2 = translate_field(flip_vertical_field(field), height)
        lam = Fraction(3, 4) * Fraction(total, n * R)
        joined = join_streams(s1, s2, lam, n, level)
        assert flow_value(joined) >= lam * n * R
        union_field = merge_stacked_fields(discretize(field, level), discretize(f2, level))
        assert validate_stream(joined.box, union_field, joined) == []
        assert max_flow(joined.box, union_field).value >= flow_value(joined)


def test_join_validates_levels_and_stacking():
    box = BoxSpec((2,), 3)
    s1 = column_stream(box, (R, R), level=2)
    s2 = translate_stream(flip_vertical(s1), 3)
    with pytest.raises(ValueError):
        join_streams(s1, s2, Fraction(1, 2), 2, 4)  # wrong level
    not_stacked = translate_stream(flip_vertical(s1), 4)
    with pytest.raises(ValueError):
        join_streams(s1, not_stacked, Fraction(1, 2), 2, 2)


BOX = BoxSpec((2,), 2)
ABOVE = BOX.translate((0, 2))


def zero_stream(box, resolution=R, level=2):
    return DiscreteStream(box, resolution, np.zeros(box.edge_count, dtype=np.int64), level)


@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(lambda: zero_stream(BOX, resolution=4, level=8), ValueError, "level must be",
                 id="level-above-resolution"),
    pytest.param(lambda: merge_stacked_fields(CapacityField.constant(BOX, 0),
                                              CapacityField.constant(ABOVE, 0, resolution=4)),
                 ValueError, "resolutions differ", id="merge-resolutions"),
    pytest.param(lambda: merge_stacked_fields(CapacityField.constant(BOX, 0),
                                              CapacityField.constant(BoxSpec((3,), 2, (0, 2)), 0)),
                 ValueError, "same base", id="stacked-other-base"),
    pytest.param(lambda: merge_stacked_fields(CapacityField.constant(BOX, 0),
                                              CapacityField.constant(BoxSpec((2,), 3, (0, 2)), 0)),
                 ValueError, "equal heights", id="stacked-unequal-heights"),
    pytest.param(lambda: join_streams(column_stream(BOX, (R, R), level=2), zero_stream(ABOVE, R // 2),
                                      Fraction(1, 2), 2, 2),
                 ValueError, "resolutions differ", id="join-resolutions"),
    pytest.param(lambda: join_streams(column_stream(BOX, (R, R), level=2), zero_stream(ABOVE),
                                      Fraction(1, 2), 2, 2),
                 JunctionHypothesisError, "flow_shortfall: upper stream", id="join-upper-short"),
    pytest.param(lambda: join_streams(zero_stream(BOX), zero_stream(ABOVE), Fraction(-1, 2), 2, 2),
                 ValueError, "lam must be non-negative", id="join-negative-lam"),
])
def test_refusals(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


BOXES = st.integers(2, 4).flatmap(
    lambda d: st.builds(
        BoxSpec,
        st.lists(st.integers(1, 3), min_size=d - 1, max_size=d - 1).map(tuple),
        st.integers(1, 4),
        st.lists(st.integers(-3, 3), min_size=d, max_size=d).map(tuple),
    )
)


def mirrored(box, e):
    """The edge's image about the mid-height plane, as points."""
    a, b = (p[:-1] + (box.z_lo + box.z_hi - p[-1],) for p in (e.a, e.b))
    return Edge(a, b)


@given(box=BOXES, seed=st.integers(0, 2**32))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_flip_vertical_field_mirrors_points_and_is_an_involution(box, seed):
    field = sample_field(box, DistributionSpec.uniform(0, 1), R, seed)
    flipped = flip_vertical_field(field)
    ids = edge_ids(box)
    for e, c in zip(sorted_edges_in_box(box), field.caps.tolist()):
        # edges inside the top face have no image and keep their capacity
        assert flipped.caps[ids.get(mirrored(box, e), ids[e])] == c
    assert flip_vertical_field(flipped).caps.tolist() == field.caps.tolist()


@given(box=BOXES, seed=st.integers(0, 2**32), level=st.sampled_from([1, 2, 4]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_flip_vertical_stream_mirrors_points_and_is_an_involution(box, seed, level):
    dist = DistributionSpec.finite_discrete([("0", "0.25"), ("0.5", "0.25"), ("1", "0.5")])
    ds = discrete_max_flow_stream(box, sample_field(box, dist, R, seed), level)
    flipped = flip_vertical(ds)
    ids = edge_ids(box)
    for e, x in zip(sorted_edges_in_box(box), ds.flow.tolist()):
        if x:
            j = ids[mirrored(box, e)]
            assert flipped.flow[j] == (x if classify_edge(e) == VERTICAL else -x)
    assert np.count_nonzero(flipped.flow) == np.count_nonzero(ds.flow)
    assert flip_vertical(flipped).flow.tolist() == ds.flow.tolist()


@given(box=BOXES, seed=st.integers(0, 2**32))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_restrict_to_recovers_both_merged_parts(box, seed):
    top = box.translate((0,) * (box.d - 1) + (box.height,))
    dist = DistributionSpec.exponential(1.0)
    parts = [sample_field(b, dist, R, derive_seed(seed, i)) for i, b in enumerate((box, top))]
    merged = merge_stacked_fields(*parts)
    assert merged.box.edge_count == box.edge_count + top.edge_count
    for part in parts:
        assert merged.restrict_to(part.box).caps.tolist() == part.caps.tolist()


@given(
    d=st.integers(2, 3),
    n=st.integers(1, 3),
    height=st.integers(1, 3),
    level=st.sampled_from([1, 2, 4]),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_join_glues_valid_streams_in_d2_and_d3(d, n, height, level, seed):
    box = BoxSpec((n,) * (d - 1), height)
    dist = DistributionSpec.finite_discrete([("0", "0.25"), ("0.5", "0.25"), ("1", "0.5")])
    field = sample_field(box, dist, R, seed)
    s1 = discrete_max_flow_stream(box, field, level)
    total = flow_value(s1)
    if total == 0:
        return
    s2 = translate_stream(flip_vertical(s1), height)
    f2 = translate_field(flip_vertical_field(field), height)
    lam = Fraction(3, 4) * Fraction(total, n ** (d - 1) * R)
    joined = join_streams(s1, s2, lam, n, level)
    assert flow_value(joined) >= lam * n ** (d - 1) * R
    union_field = merge_stacked_fields(discretize(field, level), discretize(f2, level))
    assert validate_stream(joined.box, union_field, joined) == []


# sha256 of the signed streams below, recorded from the two-array stream
# format (amount times orientation) that the single signed array replaced
GOLDEN_STREAM_DIGEST = "bb6cb767b7cf44aa1df71637f6f19bec8288105f2fb3b386432a2c4b9c8eb312"


def test_signed_streams_match_golden_digest():
    """The solver's stream, the level-1/2/4 discrete streams, their mirror
    images and their joins (both branches) on seeded d=2 and d=3 boxes."""
    dist = DistributionSpec.finite_discrete([("0", "0.25"), ("0.5", "0.25"), ("1", "0.5")])
    digest = hashlib.sha256()
    reglued = []

    def add(stream):
        digest.update(repr((stream.box, stream.resolution)).encode())
        digest.update(stream.flow.astype("<i8").tobytes())

    for trial, (d, n, height) in enumerate(itertools.product((2, 3), (1, 2, 3), (1, 2, 3))):
        box = BoxSpec((n,) * (d - 1), height)
        field = sample_field(box, dist, R, derive_seed(4242, trial))
        add(max_flow(box, field).stream)
        for level in (1, 2, 4):
            ds = discrete_max_flow_stream(box, field, level)
            assert isinstance(ds, Stream)
            flipped = flip_vertical(ds)
            add(ds)
            add(flipped)
            total = flow_value(ds)
            if total == 0:
                continue
            lam = Fraction(3, 4) * Fraction(total, n ** (d - 1) * R)
            top = truncated_projection(ds, box.z_hi - 1, lam, n)  # its cap exceeds 3/4 of total
            reglued.append(any(x > Fraction(3, 4) * total for x in top))
            add(join_streams(ds, translate_stream(flipped, height), lam, n, level))
    assert set(reglued) == {False, True}
    assert digest.hexdigest() == GOLDEN_STREAM_DIGEST
