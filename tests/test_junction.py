import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_lattice import edge_ids, sorted_edges_in_box

from latticeflow.capacity import (
    DEFAULT_RESOLUTION,
    CapacityField,
    DistributionSpec,
    derive_seed,
    discretize,
    sample_field,
)
from latticeflow.flow import Stream, flow_value, max_flow, validate_stream
from latticeflow.junction import (
    BoundaryCondition,
    DiscreteStream,
    JunctionHypothesisError,
    boundary_condition,
    boundary_count_bound,
    discrete_max_flow_stream,
    flip_vertical,
    flip_vertical_field,
    join_streams,
    merge_stacked_fields,
    translate_field,
    translate_stream,
    truncated_projection,
)
from latticeflow.lattice import VERTICAL, BoxSpec, Edge, classify_edge, edges_in_box

R = DEFAULT_RESOLUTION


def column_stream(box, amounts, level=1):
    """Stream made of full vertical columns; amounts are whole units per column."""
    ids = edge_ids(box)
    g = np.zeros(len(ids), dtype=np.int64)
    for base, a in zip(box.base_points(), amounts):
        for z in range(box.z_lo, box.z_hi):
            g[ids[Edge(base + (z,), base + (z + 1,))]] = a
    return DiscreteStream(Stream(box, R, g, np.ones(len(ids), dtype=np.int8)), level)


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
    with pytest.raises(ValueError):
        DiscreteStream(Stream(box, R, np.full(n, R // 3), np.ones(n, dtype=np.int8)), 2)
    # flow on a top-face horizontal edge
    g = np.zeros(n, dtype=np.int64)
    g[ids[Edge((1, 2), (2, 2))]] = R
    with pytest.raises(ValueError):
        DiscreteStream(Stream(box, R, g, np.ones(n, dtype=np.int8)), 1)
    # downward-oriented bottom edge
    orient = np.ones(n, dtype=np.int8)
    orient[ids[Edge((1, 0), (1, 1))]] = -1
    with pytest.raises(ValueError):
        DiscreteStream(Stream(box, R, np.zeros(n, dtype=np.int64), orient), 1)
    # unbalanced interior vertex
    g2 = np.zeros(n, dtype=np.int64)
    g2[ids[Edge((1, 0), (1, 1))]] = R
    with pytest.raises(ValueError):
        DiscreteStream(Stream(box, R, g2, np.ones(n, dtype=np.int8)), 1)


def test_truncated_projection_zero_stream():
    box = BoxSpec((2,), 3)
    zero = DiscreteStream(Stream.zero(box, R), 1)
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
    raw = tuple(int(ds.g[edge_ids(box)[Edge((x, 0), (x, 1))]]) for x in (1, 2))
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
        assert flow_value(flipped.stream) == flow_value(ds.stream)
        mirror_field = flip_vertical_field(discretize(field, 2))
        assert validate_stream(box, mirror_field, flipped.stream) == []


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
        g = np.zeros(n, dtype=np.int64)
        orient = np.ones(n, dtype=np.int8)
        g[cols[0][0]], g[cols[0][1]] = b1 * R, t1 * R
        g[cols[1][0]], g[cols[1][1]] = b2 * R, t2 * R
        g[h_edge] = abs(flow_h) * R
        if flow_h < 0:
            orient[h_edge] = -1
        ds = DiscreteStream(Stream(box, R, g, orient), 1)
        bc = boundary_condition(ds, lam, 2)
        seen.add((bc.pi1, bc.pi2))
    assert 0 < len(seen) <= boundary_count_bound(lam, 2, 1, 2)


def test_join_concatenates_constant_columns():
    box = BoxSpec((2,), 3)
    s1 = column_stream(box, (R, R), level=2)
    s2 = translate_stream(flip_vertical(s1), 3)
    joined = join_streams(s1, s2, Fraction(1, 2), 2, 2)
    assert joined.box == BoxSpec((2,), 6)
    assert flow_value(joined.stream) == 2 * R
    union_field = CapacityField.constant(joined.box, R)
    assert validate_stream(joined.box, union_field, joined.stream) == []


def test_join_fat_column_regluing():
    box = BoxSpec((2,), 3)
    field = fat_column_field(box, 1, 2 * R)
    k = 2
    s1 = discrete_max_flow_stream(box, field, k)
    assert flow_value(s1.stream) == 2 * R
    s2 = translate_stream(flip_vertical(s1), 3)
    f2 = translate_field(flip_vertical_field(field), 3)
    lam = Fraction(3, 4)  # lam * n = 1.5 < 2 on the fat column: regluing branch
    joined = join_streams(s1, s2, lam, 2, k)
    expected = math.ceil(lam * 2 * k) * (R // k)
    assert flow_value(joined.stream) == expected
    union_field = merge_stacked_fields(discretize(field, k), discretize(f2, k))
    assert validate_stream(joined.box, union_field, joined.stream) == []
    assert max_flow(joined.box, union_field).value >= flow_value(joined.stream)


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
        total = flow_value(s1.stream)
        if total == 0:
            continue
        done += 1
        s2 = translate_stream(flip_vertical(s1), height)
        f2 = translate_field(flip_vertical_field(field), height)
        lam = Fraction(3, 4) * Fraction(total, n * R)
        joined = join_streams(s1, s2, lam, n, level)
        assert flow_value(joined.stream) >= lam * n * R
        union_field = merge_stacked_fields(discretize(field, level), discretize(f2, level))
        assert validate_stream(joined.box, union_field, joined.stream) == []
        assert max_flow(joined.box, union_field).value >= flow_value(joined.stream)


def test_join_validates_levels_and_stacking():
    box = BoxSpec((2,), 3)
    s1 = column_stream(box, (R, R), level=2)
    s2 = translate_stream(flip_vertical(s1), 3)
    with pytest.raises(ValueError):
        join_streams(s1, s2, Fraction(1, 2), 2, 4)  # wrong level
    not_stacked = translate_stream(flip_vertical(s1), 4)
    with pytest.raises(ValueError):
        join_streams(s1, not_stacked, Fraction(1, 2), 2, 2)


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
    for e, g, o in zip(sorted_edges_in_box(box), ds.g.tolist(), ds.orient.tolist()):
        if g:
            j = ids[mirrored(box, e)]
            assert flipped.g[j] == g
            assert flipped.orient[j] == (o if classify_edge(e) == VERTICAL else -o)
    assert (flipped.orient[flipped.g == 0] == 1).all()
    twice = flip_vertical(flipped)
    assert twice.g.tolist() == ds.g.tolist() and twice.orient.tolist() == ds.orient.tolist()


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
    total = flow_value(s1.stream)
    if total == 0:
        return
    s2 = translate_stream(flip_vertical(s1), height)
    f2 = translate_field(flip_vertical_field(field), height)
    lam = Fraction(3, 4) * Fraction(total, n ** (d - 1) * R)
    joined = join_streams(s1, s2, lam, n, level)
    assert flow_value(joined.stream) >= lam * n ** (d - 1) * R
    union_field = merge_stacked_fields(discretize(field, level), discretize(f2, level))
    assert validate_stream(joined.box, union_field, joined.stream) == []
