"""Seeded, re-runnable structural property checks behind the command line.

Each check runs a fixed number of deterministic trials and counts
violations; a healthy build reports zero everywhere. The checks rely on
independent re-computation (graph traversals, exhaustive search on tiny
instances, exact identities) rather than on the solver's own bookkeeping.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .capacity import (
    DEFAULT_RESOLUTION,
    CapacityField,
    DistributionSpec,
    derive_seed,
    discretize,
    edge_uniforms,
    sample_field,
)
from .cuts import check_subadditivity
from .estimators import estimate_psi, exact_tail_probability
from .flow import flow_value, max_flow, menger_count, validate_stream
from .junction import (
    discrete_max_flow_stream,
    flip_vertical,
    flip_vertical_field,
    join_streams,
    merge_stacked_fields,
    translate_field,
    translate_stream,
)
from .lattice import BoxSpec, RectSpec, edges_in_box, face_vertices


@dataclass(frozen=True)
class PropertyResult:
    name: str
    trials: int
    violations: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


_MIXED_DISTRIBUTIONS = (
    DistributionSpec.bernoulli("0.5", 0, 1),
    DistributionSpec.finite_discrete([("0", "0.25"), ("0.5", "0.25"), ("1", "0.5")]),
    DistributionSpec.uniform(0, 1),
    DistributionSpec.exponential(1.0),
)


def _shape_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _disconnected_without(box: BoxSpec, removed: frozenset[int]) -> bool:
    """True when no bottom-to-top path survives the removal of the cut edges."""
    adj: dict = {}
    for i, e in enumerate(edges_in_box(box)):
        if i in removed:
            continue
        adj.setdefault(e.a, []).append(e.b)
        adj.setdefault(e.b, []).append(e.a)
    top = face_vertices(box, "top")
    seen = set(face_vertices(box, "bottom"))
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        if v in top:
            return False
        for w in adj.get(v, ()):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return True


def max_disjoint_open_paths(box: BoxSpec, open_ids: frozenset[int]) -> int:
    """Exhaustive maximal edge-disjoint open-path packing on a tiny box."""
    edges = edges_in_box(box)
    adj: dict = {}
    for i in open_ids:
        e = edges[i]
        adj.setdefault(e.a, []).append((i, e.b))
        adj.setdefault(e.b, []).append((i, e.a))
    bottom = sorted(face_vertices(box, "bottom"))
    top = face_vertices(box, "top")
    memo: dict[frozenset[int], int] = {}

    def paths_from(avail: frozenset[int]):
        found = []

        def walk(v, used: frozenset[int], trail: tuple[int, ...]):
            if v in top:
                found.append(trail)
                return
            for i, w in adj.get(v, ()):
                if i in avail and i not in used:
                    walk(w, used | {i}, trail + (i,))

        for b in bottom:
            walk(b, frozenset(), ())
        return found

    def best(avail: frozenset[int]) -> int:
        if avail in memo:
            return memo[avail]
        result = 0
        for trail in paths_from(avail):
            result = max(result, 1 + best(avail - frozenset(trail)))
        memo[avail] = result
        return result

    return best(frozenset(open_ids))


def check_duality(seed: int, trials: int = 50) -> PropertyResult:
    """Flow value equals recomputed cut weight and the cut disconnects."""
    rng = _shape_rng(seed)
    bad = 0
    for t in range(trials):
        d = int(rng.integers(2, 4))
        side_cap = 12 if d == 2 else 5
        dims = tuple(int(rng.integers(1, side_cap + 1)) for _ in range(d - 1))
        height = int(rng.integers(1, 17 if d == 2 else 9))
        box = BoxSpec(dims, height)
        dist = _MIXED_DISTRIBUTIONS[t % len(_MIXED_DISTRIBUTIONS)]
        field = sample_field(box, dist, DEFAULT_RESOLUTION, derive_seed(seed, t))
        res = max_flow(box, field)
        caps = field.caps.tolist()
        weight = sum(caps[i] for i in res.min_cut.edge_ids)
        ok = (
            res.value == weight == res.min_cut.weight
            and _disconnected_without(box, res.min_cut.edge_ids)
            and not validate_stream(box, field, res.stream)
            and flow_value(res.stream) == res.value
        )
        bad += not ok
    return PropertyResult("duality", trials, bad)


def check_menger(seed: int, trials: int = 40) -> PropertyResult:
    """Flow count on 0/1 fields equals the exhaustive disjoint-path packing."""
    box = BoxSpec((3,), 2)  # 10 edges
    r = DEFAULT_RESOLUTION
    bad = 0
    for t in range(trials):
        u = edge_uniforms(derive_seed(seed, t), box.edge_count)
        caps = np.where(u < 0.5, r, 0).astype(np.int64)
        field = CapacityField(box, r, caps)
        open_ids = frozenset(i for i, c in enumerate(caps.tolist()) if c)
        if menger_count(box, field) != max_disjoint_open_paths(box, open_ids):
            bad += 1
    return PropertyResult("menger", trials, bad)


def check_tau_subadditivity(seed: int, trials: int = 100) -> PropertyResult:
    rng = _shape_rng(seed)
    bad = 0
    for t in range(trials):
        a = int(rng.integers(1, 7))
        b = int(rng.integers(1, 7))
        k = int(rng.integers(1, 5))
        left = RectSpec((0,), (a,))
        right = RectSpec((a,), (a + b,))
        union = RectSpec((0,), (a + b,))
        dist = _MIXED_DISTRIBUTIONS[t % len(_MIXED_DISTRIBUTIONS)]
        field = sample_field(union.slab_box(k), dist, DEFAULT_RESOLUTION, derive_seed(seed, t))
        try:
            report = check_subadditivity(left, right, k, field)
        except RuntimeError:
            bad += 1
            continue
        bad += not report.holds
    return PropertyResult("tau_subadditivity", trials, bad)


def check_sandwich(seed: int, trials: int = 50) -> PropertyResult:
    """Coarse flows never exceed finer ones, and the gap bound holds."""
    rng = _shape_rng(seed)
    r = DEFAULT_RESOLUTION
    bad = 0
    for t in range(trials):
        dims = (int(rng.integers(1, 7)),)
        height = int(rng.integers(1, 9))
        box = BoxSpec(dims, height)
        dist = _MIXED_DISTRIBUTIONS[t % len(_MIXED_DISTRIBUTIONS)]
        field = sample_field(box, dist, r, derive_seed(seed, t))
        k = 2 ** int(rng.integers(1, 5))
        fine = max_flow(box, field).value
        mid = max_flow(box, discretize(field, 2 * k)).value
        coarse_res = max_flow(box, discretize(field, k))
        coarse = coarse_res.value
        gap_bound = len(coarse_res.min_cut.edge_ids) * (r // k)
        if not (coarse <= mid <= fine and fine - coarse <= gap_bound):
            bad += 1
    return PropertyResult("sandwich", trials, bad)


def check_junction(seed: int, trials: int = 20) -> PropertyResult:
    """Glued streams are valid, carry the promised flow and never beat max-flow."""
    rng = _shape_rng(seed)
    r = DEFAULT_RESOLUTION
    bad = 0
    for t in range(trials):
        n = int(rng.integers(2, 5))
        height = int(rng.integers(2, 5))
        level = 2 ** int(rng.integers(0, 3))
        box = BoxSpec((n,), height)
        if t % 2 == 0:
            dist = DistributionSpec.finite_discrete(
                [("0", "0.25"), ("0.5", "0.25"), ("1", "0.5")]
            )
            f1 = sample_field(box, dist, r, derive_seed(seed, t))
        else:
            # fat column: one column wide open, everything else shut
            caps = np.zeros(box.edge_count, dtype=np.int64)
            col = int(rng.integers(1, n + 1))
            for i, e in enumerate(edges_in_box(box)):
                if e.axis == 1 and e.a[0] == col:
                    caps[i] = 2 * r
            f1 = CapacityField(box, r, caps)
        s1 = discrete_max_flow_stream(box, f1, level)
        flow1 = flow_value(s1.stream)
        if flow1 == 0:
            continue
        s2 = translate_stream(flip_vertical(s1), height)
        f2 = translate_field(flip_vertical_field(f1), height)
        lam = Fraction(3, 4) * Fraction(flow1, n * r)
        try:
            joined = join_streams(s1, s2, lam, n, level)
        except Exception:
            bad += 1
            continue
        union_field = merge_stacked_fields(discretize(f1, level), discretize(f2, level))
        need = lam * n * r
        ok = (
            not validate_stream(joined.box, union_field, joined.stream)
            and flow_value(joined.stream) >= need
            and max_flow(joined.box, union_field).value >= flow_value(joined.stream)
        )
        bad += not ok
    return PropertyResult("junction", trials, bad)


def check_point_mass_identity(seed: int, samples: int = 2000) -> PropertyResult:
    """Exact 2x2 tail probability equals q_mu^4 and the MC rate agrees to 4 sigma."""
    dist = DistributionSpec.bernoulli("0.9", 0, 1)
    box = BoxSpec((2,), 2)
    exact = exact_tail_probability(dist, box, 1, resolution=DEFAULT_RESOLUTION)
    bad = 0
    if exact != Fraction(9, 10) ** 4:
        bad += 1
    est = estimate_psi(dist, 1, 2, 2, DEFAULT_RESOLUTION, samples, seed)
    p = float(exact)
    sigma = (p * (1 - p) / samples) ** 0.5
    if abs(est.hit_rate - p) > 4 * sigma:
        bad += 1
    return PropertyResult("point_mass_identity", 2, bad)


def run_all(seed: int, scale: float = 1.0) -> list[PropertyResult]:
    """The full property suite with trial counts scaled by ``scale``."""

    def count(base: int) -> int:
        return max(1, int(base * scale))

    return [
        check_duality(derive_seed(seed, 101), count(50)),
        check_menger(derive_seed(seed, 102), count(40)),
        check_tau_subadditivity(derive_seed(seed, 103), count(100)),
        check_sandwich(derive_seed(seed, 104), count(50)),
        check_junction(derive_seed(seed, 105), count(20)),
        check_point_mass_identity(derive_seed(seed, 106), count(2000)),
    ]
