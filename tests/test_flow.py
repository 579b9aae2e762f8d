import itertools
import math
from collections import Counter, defaultdict, deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_flow import solve_min_cut
from reference_lattice import box_vertices, edge_ids, face_vertices

from latticeflow import cuts, estimators, flow, lattice
from latticeflow.capacity import (
    DEFAULT_RESOLUTION,
    CapacityField,
    DistributionSpec,
    derive_seed,
    discretize,
    sample_field,
)
from latticeflow.cuts import SlabProblem, tau_slab, uncuttable_edge_ids
from latticeflow.flow import (
    CapacityOverflowError,
    PinningInfeasibleError,
    Stream,
    decompose_paths,
    flow_value,
    max_flow,
    menger_count,
    min_cut,
    min_cut_value,
    validate_stream,
)
from latticeflow.lattice import (
    BoxSpec,
    Edge,
    RectSpec,
    edges_in_box,
)

R = DEFAULT_RESOLUTION


def oracle_min_cut_weight(box, field):
    """Exhaustive minimum over all bottom/top vertex bipartitions."""
    edges = edges_in_box(box)
    caps = field.caps.tolist()
    free = [v for v in box_vertices(box) if v[-1] < box.z_hi]
    bottom = face_vertices(box, "bottom")
    best = None
    for bits in itertools.product((False, True), repeat=len(free)):
        side = set(bottom) | {v for v, bit in zip(free, bits) if bit}
        w = sum(c for e, c in zip(edges, caps) if (e.a in side) != (e.b in side))
        if best is None or w < best:
            best = w
    return best


def oracle_disjoint_open_paths(box, open_ids):
    """Exhaustive packing of edge-disjoint open walks from bottom to top."""
    edges = edges_in_box(box)
    top = face_vertices(box, "top")
    adj = defaultdict(list)
    for i in open_ids:
        adj[edges[i].a].append((i, edges[i].b))
        adj[edges[i].b].append((i, edges[i].a))

    def walks(avail):
        found = []

        def extend(v, used):
            if v in top:
                found.append(used)
                return
            for i, w in adj[v]:
                if i in avail and i not in used:
                    extend(w, used | {i})

        for b in sorted(face_vertices(box, "bottom")):
            extend(b, frozenset())
        return found

    def pack(avail):
        best = 0
        for used in walks(avail):
            best = max(best, 1 + pack(avail - used))
        return best

    return pack(frozenset(open_ids))


def disconnects(box, removed):
    adj = defaultdict(list)
    for i, e in enumerate(edges_in_box(box)):
        if i in removed:
            continue
        adj[e.a].append(e.b)
        adj[e.b].append(e.a)
    top = face_vertices(box, "top")
    seen = set(face_vertices(box, "bottom"))
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        if v in top:
            return False
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return True


def test_two_columns_constant():
    box = BoxSpec((2,), 2)
    c = 3 * R // 4
    res = max_flow(box, CapacityField.constant(box, c))
    assert res.value == 2 * c
    assert res.min_cut.weight == 2 * c
    assert flow_value(res.stream) == 2 * c


def test_zero_field():
    box = BoxSpec((3, 2), 2)
    field = CapacityField.constant(box, 0)
    res = max_flow(box, field)
    assert res.value == 0
    assert res.min_cut.weight == 0
    assert not res.stream.flow.any()
    assert validate_stream(box, field, res.stream) == []


def test_matches_exhaustive_cut_enumeration():
    box = BoxSpec((3,), 3)
    dist = DistributionSpec.bernoulli("0.5", 0, 1)
    for trial in range(8):
        field = sample_field(box, dist, R, seed=derive_seed(404, trial))
        assert max_flow(box, field).value == oracle_min_cut_weight(box, field)


def test_matches_exhaustive_cut_enumeration_3d():
    box = BoxSpec((2, 2), 1)
    dist = DistributionSpec.finite_discrete([("0", "0.25"), ("0.5", "0.25"), ("1", "0.5")])
    for trial in range(4):
        field = sample_field(box, dist, R, seed=derive_seed(405, trial))
        assert max_flow(box, field).value == oracle_min_cut_weight(box, field)


def test_duality_and_certificates_random():
    dists = (
        DistributionSpec.bernoulli("0.5", 0, 1),
        DistributionSpec.uniform(0, 1),
        DistributionSpec.exponential(1.0),
    )
    rng = np.random.Generator(np.random.Philox(key=11))
    for trial in range(25):
        d = int(rng.integers(2, 4))
        dims = tuple(int(rng.integers(1, 5)) for _ in range(d - 1))
        box = BoxSpec(dims, int(rng.integers(1, 6)))
        field = sample_field(box, dists[trial % 3], R, seed=derive_seed(3000, trial))
        res = max_flow(box, field)
        # weight recomputed from scratch, disconnection by traversal
        caps = field.caps.tolist()
        assert res.value == sum(caps[i] for i in res.min_cut.edge_ids)
        assert disconnects(box, res.min_cut.edge_ids)
        assert validate_stream(box, field, res.stream) == []
        assert flow_value(res.stream) == res.value


def test_monotone_in_capacities():
    box = BoxSpec((3,), 3)
    for trial in range(6):
        field = sample_field(box, DistributionSpec.uniform(0, 1), R, seed=derive_seed(52, trial))
        bigger = CapacityField(box, R, field.caps + R // 8)
        assert max_flow(box, bigger).value >= max_flow(box, field).value


def test_height_one_flow_is_vertical_sum():
    box = BoxSpec((3,), 1)
    field = sample_field(box, DistributionSpec.uniform(0, 1), R, seed=8)
    verticals = [int(field.caps[edge_ids(box)[Edge((x, 0), (x, 1))]]) for x in (1, 2, 3)]
    res = max_flow(box, field)
    assert res.value == sum(verticals)
    assert flow_value(res.stream) == res.value


def test_flow_value_unit_column():
    box = BoxSpec((2,), 3)
    ids = edge_ids(box)
    flow = np.zeros(len(ids), dtype=np.int64)
    for z in range(3):
        flow[ids[Edge((1, z), (1, z + 1))]] = R
    assert flow_value(Stream(box, R, flow)) == R
    assert flow_value(Stream(box, R, np.zeros(len(ids), dtype=np.int64))) == 0


def test_validate_stream_reports_single_violations():
    box = BoxSpec((2,), 3)
    field = CapacityField.constant(box, R)
    res = max_flow(box, field)
    assert validate_stream(box, field, res.stream) == []

    # one capacity violation, naming the edge
    flow = res.stream.flow.copy()
    flow[0] = field.caps[0] + 1
    bad = Stream(box, R, flow)
    caps_viol = [v for v in validate_stream(box, field, bad) if v.kind == "capacity"]
    assert len(caps_viol) == 1 and caps_viol[0].where == edges_in_box(box)[0]

    # one unit injected at the interior vertex (1, 2): exactly one balance violation
    ids = edge_ids(box)
    flow2 = res.stream.flow.copy()
    flow2[ids[Edge((1, 2), (1, 3))]] += R // 4
    bad2 = Stream(box, R, flow2)
    bal = [v for v in validate_stream(box, CapacityField.constant(box, 2 * R), bad2) if v.kind == "balance"]
    assert len(bal) == 1
    assert bal[0].where == (1, 2)
    assert bal[0].amount == R // 4


def test_balance_sums_are_exact_past_int64():
    box = BoxSpec((2,), 2)
    ids = edge_ids(box)
    big = 2**62 + 1
    flow = np.zeros(len(ids), dtype=np.int64)
    flow[ids[Edge((1, 0), (1, 1))]] = big  # up into (1, 1)
    flow[ids[Edge((1, 1), (2, 1))]] = -big  # from (2, 1) into (1, 1)
    stream = Stream(box, R, flow)
    field = CapacityField.constant(box, big)
    assert [(v.kind, v.where, v.amount) for v in validate_stream(box, field, stream)] == [
        ("balance", (1, 1), -2 * big),
        ("balance", (2, 1), big),
    ]


def test_negative_flows_are_exact_at_the_int64_edge():
    box = BoxSpec((2,), 1)  # no vertex below the top face, so nothing to balance
    ids = edge_ids(box)
    left, right = ids[Edge((1, 0), (1, 1))], ids[Edge((2, 0), (2, 1))]
    cap = 5
    flow = np.zeros(len(ids), dtype=np.int64)
    flow[left], flow[right] = -(2**63), -(cap + 1)
    stream = Stream(box, R, flow)
    field = CapacityField.constant(box, cap)
    assert [(v.kind, v.where, v.amount) for v in validate_stream(box, field, stream)] == [
        ("capacity", Edge((1, 0), (1, 1)), 2**63 - cap),
        ("capacity", Edge((2, 0), (2, 1)), 1),
    ]
    assert flow_value(stream) == -(2**63) - (cap + 1)
    flow[right] = -(2**63)
    assert flow_value(Stream(box, R, flow)) == -(2**64)


def test_decompose_walks_negative_flow_backwards():
    box = BoxSpec((2,), 2)
    ids = edge_ids(box)
    for r in (R, 2**62):
        flow = np.zeros(len(ids), dtype=np.int64)
        flow[ids[Edge((2, 0), (2, 1))]] = r
        flow[ids[Edge((1, 1), (2, 1))]] = -r  # from (2, 1) back to (1, 1)
        flow[ids[Edge((1, 1), (1, 2))]] = r
        stream = Stream(box, r, flow)
        assert flow_value(stream) == r
        assert decompose_paths(box, stream, 2) == [((2, 0), (2, 1), (1, 1), (1, 2))] * 2


def test_decompose_unit_column():
    box = BoxSpec((1,), 3)
    ids = edge_ids(box)
    stream = Stream(box, R, np.full(len(ids), R, dtype=np.int64))
    paths = decompose_paths(box, stream, 1)
    assert paths == [((1, 0), (1, 1), (1, 2), (1, 3))]


def test_decompose_two_columns_level_two():
    box = BoxSpec((2,), 2)
    field = CapacityField.constant(box, R)
    res = max_flow(box, field)
    paths = decompose_paths(box, res.stream, 2)
    assert len(paths) == 4  # two copies per column
    assert {p[0][0] for p in paths} == {1, 2}


def test_decompose_tally_on_seeded_instance():
    box = BoxSpec((3,), 3)
    dist = DistributionSpec.finite_discrete([("0", "0.25"), ("0.5", "0.25"), ("1", "0.5")])
    field = discretize(sample_field(box, dist, R, seed=77), 4)
    res = max_flow(box, field)
    k = 4
    paths = decompose_paths(box, res.stream, k)
    assert len(paths) == res.value * k // R
    usage = Counter()
    top = face_vertices(box, "top")
    bottom = face_vertices(box, "bottom")
    ids = edge_ids(box)
    for p in paths:
        assert p[0] in bottom and p[-1] in top
        for u, w in itertools.pairwise(p):
            usage[ids[Edge(u, w)]] += 1
    step = R // k
    for i, used in usage.items():
        assert used <= abs(int(res.stream.flow[i])) // step


def test_decompose_rejects_non_discrete():
    box = BoxSpec((1,), 1)
    stream = Stream(box, R, np.array([R // 3]))
    with pytest.raises(ValueError):
        decompose_paths(box, stream, 2)


def test_menger_trivial():
    box = BoxSpec((3,), 2)
    assert menger_count(box, CapacityField.constant(box, R)) == 3
    assert menger_count(box, CapacityField.constant(box, 0)) == 0
    with pytest.raises(ValueError):
        menger_count(box, CapacityField.constant(box, R // 2))


def test_menger_matches_exhaustive_packing():
    box = BoxSpec((2,), 3)  # 9 edges
    n_edges = len(edges_in_box(box))
    rng = np.random.Generator(np.random.Philox(key=2024))
    for trial in range(40):
        bits = rng.random(n_edges) < 0.55
        caps = np.where(bits, R, 0).astype(np.int64)
        field = CapacityField(box, R, caps)
        open_ids = frozenset(np.flatnonzero(bits).tolist())
        assert menger_count(box, field) == oracle_disjoint_open_paths(box, open_ids)


def test_discretization_sandwich():
    box = BoxSpec((3,), 4)
    for trial in range(10):
        field = sample_field(box, DistributionSpec.uniform(0, 1), R, seed=derive_seed(63, trial))
        k = 4
        coarse_res = max_flow(box, discretize(field, k))
        mid = max_flow(box, discretize(field, 2 * k)).value
        fine = max_flow(box, field).value
        assert coarse_res.value <= mid <= fine
        assert fine - coarse_res.value <= len(coarse_res.min_cut.edge_ids) * (R // k)


def test_side_by_side_superadditivity():
    for trial in range(10):
        union_box = BoxSpec((5,), 3)
        field = sample_field(union_box, DistributionSpec.uniform(0, 1), R, seed=derive_seed(64, trial))
        left = BoxSpec((2,), 3)
        right = BoxSpec((3,), 3, offset=(2, 0))
        total = max_flow(union_box, field).value
        part = sum(max_flow(b, field.restrict_to(b)).value for b in (left, right))
        assert total >= part


def test_capacity_overflow_is_explicit():
    for box in (BoxSpec((2,), 2), BoxSpec((2, 1), 1)):
        n = len(edges_in_box(box))
        field = CapacityField(box, 2**62, np.full(n, 2**62, dtype=np.int64))
        for solve in (max_flow, min_cut_value):
            with pytest.raises(CapacityOverflowError):
                solve(box, field)


MAX_TOTAL = 2**63 - 1


@pytest.mark.parametrize("box", [BoxSpec((2,), 2), BoxSpec((2, 1), 2)], ids=["d2", "d3"])
def test_total_capacity_bound_is_exact(box):
    """The 64-bit rule bounds the exact total, not the largest capacity
    times the edge count."""
    n = box.edge_count
    big = MAX_TOTAL // n + 1  # big * n passes the bound
    for caps in (
        [MAX_TOTAL - (n - 1)] + [1] * (n - 1),  # a total of exactly 2**63 - 1
        [big] + [0] * (n - 1),  # only the largest-entry bound is passed
    ):
        assert sum(caps) <= MAX_TOTAL < max(caps) * n
        field = CapacityField(box, R, caps)
        assert min_cut_value(box, field) == min_cut(box, field).weight == max_flow(box, field).value
    over = CapacityField(box, R, [MAX_TOTAL - (n - 2)] + [1] * (n - 1))  # a total of 2**63
    for solve in (min_cut_value, min_cut, max_flow):
        with pytest.raises(CapacityOverflowError):
            solve(box, over)


def test_solver_is_deterministic():
    box = BoxSpec((4,), 5)
    field = sample_field(box, DistributionSpec.uniform(0, 1), R, seed=31337)
    a = max_flow(box, field)
    b = max_flow(box, field)
    assert a.value == b.value
    assert a.min_cut == b.min_cut
    assert np.array_equal(a.stream.flow, b.stream.flow)


LAWS = [
    DistributionSpec.bernoulli("0.9", 0, 1),
    DistributionSpec.bernoulli("0.1", 0, 1),  # mostly zero capacities: many tied cuts
    DistributionSpec.finite_discrete([("0", "0.25"), ("0.5", "0.25"), ("1", "0.5")]),
    DistributionSpec.uniform(0, 1),
    DistributionSpec.exponential(1.0),
    DistributionSpec.half_normal(1.0),
]


@given(
    k=st.integers(1, 8),
    h=st.integers(1, 8),
    offset=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    law=st.sampled_from(LAWS),
    seed=st.integers(0, 2**32),
    k_disc=st.sampled_from([None, 1, 4, 256]),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_dual_value_matches_reference(k, h, offset, law, seed, k_disc):
    box = BoxSpec((k,), h, offset)
    field = sample_field(box, law, R, seed)
    if k_disc is not None:
        field = discretize(field, k_disc)
    assert min_cut_value(box, field) == solve_min_cut(box, field)[0]


@given(
    k=st.integers(1, 8),
    half=st.integers(1, 4),
    lo=st.integers(-5, 5),
    law=st.sampled_from(LAWS),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_dual_pinned_slab_matches_tau_slab(k, half, lo, law, seed):
    base = RectSpec((lo,), (lo + k,))
    field = sample_field(base.slab_box(half), law, R, seed)
    never = uncuttable_edge_ids(base, half)
    assert min_cut_value(field.box, field, never) == tau_slab(SlabProblem(base, half, field))[0]


def test_dual_infeasible_pinning_matches_reference():
    box = BoxSpec((3,), 4, (2, -1))
    field = sample_field(box, DistributionSpec.uniform(0, 1), R, seed=5)
    middle_column = frozenset(
        i for i, e in enumerate(edges_in_box(box)) if e.a[0] == e.b[0] == 4
    )
    for never in (middle_column, frozenset(range(len(edges_in_box(box))))):
        for solve in (solve_min_cut, min_cut_value, min_cut):
            with pytest.raises(PinningInfeasibleError):
                solve(box, field, never)


def value_or_infeasible(solve):
    try:
        return solve()
    except PinningInfeasibleError:
        return "infeasible"


@given(
    d=st.sampled_from([3, 4]),
    sides=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)),
    h=st.integers(1, 5),
    offset=st.tuples(*[st.integers(-5, 5)] * 4),
    law=st.sampled_from(LAWS),
    seed=st.integers(0, 2**32),
    k_disc=st.sampled_from([None, 1, 4, 256]),
    never_frac=st.sampled_from([0.0, 0.05, 0.15, 0.3]),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_contracted_value_matches_reference(d, sides, h, offset, law, seed, k_disc, never_frac):
    box = BoxSpec(sides[: d - 1], h, offset[:d])
    field = sample_field(box, law, R, seed)
    if k_disc is not None:
        field = discretize(field, k_disc)
    picks = np.random.Generator(np.random.Philox(key=seed)).random(len(edges_in_box(box)))
    never = frozenset(np.flatnonzero(picks < never_frac).tolist())
    expected = value_or_infeasible(lambda: solve_min_cut(box, field, never)[0])
    assert value_or_infeasible(lambda: min_cut_value(box, field, never)) == expected


@given(
    d=st.sampled_from([3, 4]),
    sides=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)),
    half=st.integers(1, 3),
    lo=st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
    law=st.sampled_from(LAWS),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_contracted_pinned_slab_matches_tau_slab(d, sides, half, lo, law, seed):
    lo = lo[: d - 1]
    base = RectSpec(lo, tuple(a + s for a, s in zip(lo, sides)))
    field = sample_field(base.slab_box(half), law, R, seed)
    never = uncuttable_edge_ids(base, half)
    assert min_cut_value(field.box, field, never) == tau_slab(SlabProblem(base, half, field))[0]


def test_contracted_infeasible_pinning_matches_reference():
    box = BoxSpec((2, 3), 3, (1, -2, 5))
    field = sample_field(box, DistributionSpec.uniform(0, 1), R, seed=6)
    edges = edges_in_box(box)
    column = frozenset(i for i, e in enumerate(edges) if e.a[:-1] == e.b[:-1] == (3, 0))
    for never in (column, frozenset(range(len(edges)))):
        for solve in (solve_min_cut, min_cut_value, min_cut):
            with pytest.raises(PinningInfeasibleError):
                solve(box, field, never)
    # one edge short of a full column leaves a finite cut
    partial = column - {min(column)}
    value, cut = solve_min_cut(box, field, partial)
    assert min_cut_value(box, field, partial) == value
    assert min_cut(box, field, partial) == cut


@given(
    d=st.sampled_from([2, 3, 4]),
    sides=st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 3)),
    h=st.integers(1, 6),
    offset=st.tuples(*[st.integers(-5, 5)] * 4),
    law=st.sampled_from(LAWS),
    seed=st.integers(0, 2**32),
    k_disc=st.sampled_from([None, 1, 4, 256]),
    pinned=st.booleans(),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_certificates_match_reference(d, sides, h, offset, law, seed, k_disc, pinned):
    """Cuts are the reference's source-side cut; streams are valid maximal flows."""
    if d == 4:
        sides = tuple(min(s, 3) for s in sides)
    if pinned:
        lo = offset[: d - 1]
        base = RectSpec(lo, tuple(a + s for a, s in zip(lo, sides)))
        half = (h + 1) // 2
        box = base.slab_box(half)
    else:
        box = BoxSpec(sides[: d - 1], h, offset[:d])
    field = sample_field(box, law, R, seed)
    if k_disc is not None:
        field = discretize(field, k_disc)
    if pinned:
        never = uncuttable_edge_ids(base, half)
        assert tau_slab(SlabProblem(base, half, field)) == solve_min_cut(box, field, never)
        return
    value, cut = solve_min_cut(box, field)
    res = max_flow(box, field)
    assert (res.value, res.min_cut) == (value, cut)
    assert validate_stream(box, field, res.stream) == []
    assert flow_value(res.stream) == value
    top = box.z_hi
    inside_top = [i for i, e in enumerate(edges_in_box(box)) if e.a[-1] == e.b[-1] == top]
    assert not res.stream.flow[inside_top].any()


@given(
    d=st.sampled_from([2, 3, 4]),
    sides=st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 2)),
    h=st.integers(1, 4),
    law=st.sampled_from(LAWS),
    seed=st.integers(0, 2**32),
    k_disc=st.sampled_from([R, 4]),
    zero_share=st.sampled_from([0.0, 0.5, 0.9]),
    pinned=st.booleans(),
)
@settings(max_examples=250, deadline=None, derandomize=True)
def test_search_trees_match_reference(d, sides, h, law, seed, k_disc, zero_share, pinned):
    """``_bk_flow`` gives the reference value, capped or not, and ``min_cut``,
    which runs on it, the reference cut and the one ``max_flow`` finds."""
    base = RectSpec((0,) * (d - 1), sides[: d - 1])
    box = base.slab_box((h + 1) // 2) if pinned else BoxSpec(sides[: d - 1], h)
    never = uncuttable_edge_ids(base, (h + 1) // 2) if pinned else frozenset()
    zeros = np.random.Generator(np.random.Philox(key=seed)).random(box.edge_count) < zero_share
    caps = np.where(zeros, 0, discretize(sample_field(box, law, R, seed), k_disc).caps)
    field = CapacityField(box, R, caps)
    v, cut = solve_min_cut(box, field, never)
    nbrs, arc_edge = flow._contracted(box.dims, box.height, never)
    for limit in (math.inf, 0, max(v - 1, 0), v, v + 1, sum(caps.tolist())):
        assert flow._bk_flow(nbrs, caps[arc_edge].tolist(), limit) == min(v, limit)
    assert min_cut(box, field, never) == cut
    if not pinned:
        assert max_flow(box, field).min_cut == cut


BOUNDED_CACHES = {
    "lattice.edge_ends": lattice.edge_ends,
    "lattice.edge_map": lattice.edge_map,
    "flow._dual_adjacency": flow._dual_adjacency,
    "flow._contracted": flow._contracted,
    "cuts.uncuttable_edge_ids": cuts.uncuttable_edge_ids,
}


@pytest.fixture(scope="module")
def many_shapes_solved():
    """Solve and restrict more distinct slab shapes, at distinct offsets, than
    any cache holds."""
    for i in range(lattice.GEOMETRY_CACHE_SIZE + 1):
        d, j = 2 + i % 2, i // 2
        sides = (1 + j % 16,) if d == 2 else (1 + j % 4, 1 + j // 4 % 4)
        base = RectSpec((i,) * (d - 1), tuple(i + s for s in sides))
        half = 1 + j // 16
        field = CapacityField.constant(base.slab_box(half), R)
        tau_slab(SlabProblem(base, half, field))
        min_cut_value(field.box, field)
        res = max_flow(field.box, field)
        assert validate_stream(field.box, field, res.stream) == []
        assert flow_value(res.stream) == res.value
        assert field.restrict_to(field.box).caps.tolist() == field.caps.tolist()


@pytest.mark.parametrize("name", sorted(BOUNDED_CACHES))
def test_cache_stays_bounded(many_shapes_solved, name):
    info = BOUNDED_CACHES[name].cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    assert info.misses > info.maxsize  # the shapes did overflow the bound


@given(
    d=st.integers(2, 4),
    n=st.integers(1, 3),
    h=st.integers(1, 3),
    law=st.sampled_from(LAWS),
    seed=st.integers(0, 2**32),
    k_disc=st.sampled_from([R, 4]),
    zero_share=st.sampled_from([0.0, 0.5, 0.9]),
    data=st.data(),
)
@settings(max_examples=120, deadline=None, derandomize=True)
def test_threshold_bounds_and_capped_solves(d, n, h, law, seed, k_disc, zero_share, data):
    """The column and layer bounds bracket the reference flow, both solvers
    capped at ``limit`` return ``min(value, limit)``, ``_reached`` counts the
    thresholds each value reaches, and ``estimate_psi_sweep`` gets the same
    hits as counting ``_values`` over unsorted, repeated and unreachable lams."""
    box = BoxSpec((min(n, 2) if d == 4 else n,) * (d - 1), h)
    rows = estimators._block_solve(
        lambda box, rows, arg: rows, box, None, k_disc, law, R, seed, range(5)
    )
    zeros = np.random.Generator(np.random.Philox(key=seed)).random(rows.shape) < zero_share
    zeroed = np.where(zeros, 0, rows)
    values = [solve_min_cut(box, CapacityField(box, R, row))[0] for row in zeroed]
    assert flow._values(box, zeroed, frozenset()) == values
    lower, upper = (b.tolist() for b in flow._bounds(box, zeroed))
    assert all(lo <= v <= up for lo, v, up in zip(lower, values, upper))

    nbrs, arc_edge = flow._contracted(box.dims, h, frozenset())
    for row, v, lo, up in zip(zeroed, values, lower, upper):
        for limit in {0, lo, max(v - 1, 0), v, v + 1, up}:
            assert flow._bk_flow(nbrs, row[arc_edge].tolist(), limit) == min(v, limit)
            if d == 2:
                adj = flow._dual_adjacency(box.dims, h, frozenset())
                assert flow._dual_value(adj, row.tolist(), limit) == min(v, limit)

    thresholds = sorted({0, 2**63 - 1, 2**63, 2**70, *lower, *upper, *values,
                         *(v + 1 for v in values)})
    counts, solved = flow._reached(box, zeroed, thresholds)
    assert counts.tolist() == [sum(v >= t for t in thresholds) for v in values]
    assert 0 <= solved <= len(values)

    flows = flow._values(box, rows, frozenset())
    picks = data.draw(st.lists(st.sampled_from([0, 2**70, *flows, *(v + 1 for v in flows)]),
                               min_size=1, max_size=6))
    lams = [Fraction(t, box.base_area * R) for t in picks]
    tally = Counter()
    sweep = estimators.estimate_psi_sweep(
        law, lams, box.dims[0], h, k_disc, len(rows), seed, d=d, tally=tally
    )
    assert [e.hits for e in sweep] == [sum(v >= t for v in flows) for t in picks]
    assert tally["decided_by_bounds"] + tally["solved"] == len(rows)
