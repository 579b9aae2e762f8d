import itertools
from collections import defaultdict, deque

import numpy as np
import pytest
from reference_lattice import face_vertices

from latticeflow.capacity import (
    DEFAULT_RESOLUTION,
    CapacityField,
    DistributionSpec,
    derive_seed,
    sample_field,
)
from latticeflow.cuts import (
    SlabProblem,
    check_subadditivity,
    tau_slab,
    uncuttable_edge_ids,
)
from latticeflow.flow import max_flow, min_cut
from latticeflow.lattice import (
    VERTICAL,
    BoxSpec,
    RectSpec,
    classify_edge,
    edges_in_box,
)

R = DEFAULT_RESOLUTION


def oracle_uncuttable(rect, box):
    """Pinned edges recomputed from first principles: both endpoints have a
    neighbour outside the cylinder, and the edge is not a vertical one in the
    layer between heights 0 and 1."""

    def boundary(v):
        base = v[:-1]
        if not all(a < x <= b for x, a, b in zip(base, rect.lo, rect.hi)):
            return False
        for i in range(len(base)):
            for step in (-1, 1):
                w = base[:i] + (base[i] + step,) + base[i + 1 :]
                if not all(a < x <= b for x, a, b in zip(w, rect.lo, rect.hi)):
                    return True
        return False

    bad = set()
    for i, e in enumerate(edges_in_box(box)):
        if boundary(e.a) and boundary(e.b):
            if classify_edge(e) == VERTICAL and (e.a[-1], e.b[-1]) == (0, 1):
                continue
            bad.add(i)
    return bad


def oracle_tau(rect, half_height, field):
    """Exhaustive minimisation over all pinning-respecting separating sets."""
    box = rect.slab_box(half_height)
    edges = edges_in_box(box)
    caps = field.caps.tolist()
    cuttable = sorted(set(range(len(edges))) - oracle_uncuttable(rect, box))
    top = face_vertices(box, "top")
    bottom = face_vertices(box, "bottom")

    def separates(removed):
        adj = defaultdict(list)
        for i, e in enumerate(edges):
            if i in removed:
                continue
            adj[e.a].append(e.b)
            adj[e.b].append(e.a)
        seen = set(bottom)
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

    best = None
    for r in range(len(cuttable) + 1):
        for combo in itertools.combinations(cuttable, r):
            removed = set(combo)
            w = sum(caps[i] for i in removed)
            if (best is None or w < best) and separates(removed):
                best = w
    return best


def test_constant_field_flat_cut():
    for n, d in ((3, 2), (2, 3)):
        base = RectSpec.cube(n, d)
        c = R // 2
        field = CapacityField.constant(base.slab_box(2), c)
        value, cut = tau_slab(SlabProblem(base, 2, field))
        assert value == c * n ** (d - 1)
        assert len(cut.edge_ids) == n ** (d - 1)


def test_zero_field():
    base = RectSpec.cube(2, 2)
    field = CapacityField.constant(base.slab_box(3), 0)
    value, cut = tau_slab(SlabProblem(base, 3, field))
    assert value == 0 and cut.weight == 0


def test_width_two_base_forces_flat_cut():
    # S = ]0,2]: every vertex is boundary, only the [0,1] verticals are cuttable
    base = RectSpec((0,), (2,))
    dist = DistributionSpec.bernoulli("0.5", 0, 1)
    for trial in range(6):
        field = sample_field(base.slab_box(2), dist, R, seed=derive_seed(500, trial))
        value, cut = tau_slab(SlabProblem(base, 2, field))
        assert value == oracle_tau(base, 2, field)
        flat = [c for e, c in zip(edges_in_box(base.slab_box(2)), field.caps.tolist()) if e.a[-1] == 0 and e.b[-1] == 1 and classify_edge(e) == VERTICAL]
        assert value == sum(flat)


def test_matches_exhaustive_pinned_minimisation():
    base = RectSpec((0,), (3,))
    dist = DistributionSpec.finite_discrete([("0", "0.5"), ("1", "0.5")])
    for trial in range(5):
        field = sample_field(base.slab_box(1), dist, R, seed=derive_seed(501, trial))
        value, cut = tau_slab(SlabProblem(base, 1, field))
        assert value == oracle_tau(base, 1, field)


def test_uncuttable_ids_match_first_principles():
    for rect, k in ((RectSpec((0,), (3,)), 2), (RectSpec((0, 0), (2, 3)), 1)):
        assert uncuttable_edge_ids(rect, k) == frozenset(oracle_uncuttable(rect, rect.slab_box(k)))


def test_cut_never_contains_uncuttable_edges():
    base = RectSpec((0,), (4,))
    never = uncuttable_edge_ids(base, 3)
    for trial in range(8):
        field = sample_field(base.slab_box(3), DistributionSpec.uniform(0, 1), R, seed=derive_seed(502, trial))
        _, cut = tau_slab(SlabProblem(base, 3, field))
        assert not (cut.edge_ids & never)


def test_tau_non_increasing_in_slab_height():
    base = RectSpec((0,), (4,))
    for trial in range(6):
        field = sample_field(base.slab_box(3), DistributionSpec.uniform(0, 1), R, seed=derive_seed(503, trial))
        values = []
        for k in (1, 2, 3):
            sub = field.restrict_to(base.slab_box(k))
            values.append(tau_slab(SlabProblem(base, k, sub))[0])
        assert values[0] >= values[1] >= values[2]


def test_tau_dominates_unpinned_flow():
    base = RectSpec((0,), (4,))
    for trial in range(6):
        field = sample_field(base.slab_box(2), DistributionSpec.uniform(0, 1), R, seed=derive_seed(504, trial))
        pinned, _ = tau_slab(SlabProblem(base, 2, field))
        unpinned = min_cut(base.slab_box(2), field).weight
        assert unpinned == max_flow(base.slab_box(2), field).value
        assert pinned >= unpinned


def test_subadditivity_constant_field_is_equality():
    left = RectSpec((0,), (2,))
    right = RectSpec((2,), (5,))
    union = RectSpec((0,), (5,))
    c = R // 4
    field = CapacityField.constant(union.slab_box(2), c)
    report = check_subadditivity(left, right, 2, field)
    assert report.tau_left == 2 * c and report.tau_right == 3 * c
    assert report.tau_union == 5 * c
    assert report.holds
    assert report.glued_cut.weight == report.tau_left + report.tau_right


def test_subadditivity_zero_field():
    left = RectSpec((0,), (1,))
    right = RectSpec((1,), (2,))
    field = CapacityField.constant(RectSpec((0,), (2,)).slab_box(1), 0)
    report = check_subadditivity(left, right, 1, field)
    assert (report.tau_union, report.tau_left, report.tau_right) == (0, 0, 0)


def test_subadditivity_random_trials():
    rng = np.random.Generator(np.random.Philox(key=606))
    dists = (
        DistributionSpec.bernoulli("0.7", 0, 1),
        DistributionSpec.uniform(0, 1),
        DistributionSpec.exponential(1.0),
    )
    for trial in range(60):
        a = int(rng.integers(1, 5))
        b = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        left = RectSpec((0,), (a,))
        right = RectSpec((a,), (a + b,))
        union = RectSpec((0,), (a + b,))
        field = sample_field(union.slab_box(k), dists[trial % 3], R, seed=derive_seed(507, trial))
        report = check_subadditivity(left, right, k, field)
        assert report.holds
        # the glued certificate separates the union slab
        top = face_vertices(union.slab_box(k), "top")
        bottom = face_vertices(union.slab_box(k), "bottom")
        adj = defaultdict(list)
        for i, e in enumerate(edges_in_box(union.slab_box(k))):
            if i in report.glued_cut.edge_ids:
                continue
            adj[e.a].append(e.b)
            adj[e.b].append(e.a)
        seen = set(bottom)
        queue = deque(seen)
        reached_top = False
        while queue:
            v = queue.popleft()
            if v in top:
                reached_top = True
                break
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        assert not reached_top


def test_subadditivity_rejects_incompatible_bases():
    field = CapacityField.constant(RectSpec((0,), (3,)).slab_box(1), 0)
    with pytest.raises(ValueError):
        check_subadditivity(RectSpec((0,), (1,)), RectSpec((2,), (3,)), 1, field)


def test_slab_problem_validation():
    base = RectSpec((0,), (2,))
    field = CapacityField.constant(BoxSpec((2,), 2), 0)  # wrong box (not the slab)
    with pytest.raises(ValueError):
        SlabProblem(base, 1, field)
    with pytest.raises(ValueError):
        SlabProblem(base, 0, CapacityField.constant(base.slab_box(1), 0))
