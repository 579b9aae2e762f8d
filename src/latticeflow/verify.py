"""Seeded, re-runnable structural property checks behind the command line.

Each check runs a fixed number of deterministic trials and counts
violations; a healthy build reports zero everywhere. The checks rely on
independent re-computation (graph traversals, exhaustive search on tiny
instances, exact identities) rather than on the solver's own bookkeeping.
Trial t of a check takes its box shape from an ``_IntegerStream`` of the
seed and its field from sub-seed ``derive_seed(seed, t)``, both drawn on the
array Philox kernel, so no check loads numpy.random.
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
    _IntegerStream,
    caps_from_uniforms,
    derive_seed,
    derive_seeds,
    discretize,
    edge_uniform_rows,
)
from .cuts import check_subadditivity
from .estimators import _block_rows, estimate_psi, exact_tail_probability
from .flow import flow_value, max_flow, menger_count, min_cut, min_cut_value, validate_stream
from .junction import (
    discrete_max_flow_stream,
    flip_vertical,
    flip_vertical_field,
    join_streams,
    merge_stacked_fields,
    translate_field,
    translate_stream,
)
from .lattice import BoxSpec, RectSpec, edge_ends, vertical_edges


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
_OPEN_OR_SHUT = DistributionSpec.finite_discrete([("1", "0.5"), ("0", "0.5")])  # open when u < 1/2


def _trial_fields(seed: int, boxes: list[BoxSpec], laws=_MIXED_DISTRIBUTIONS):
    """``sample_field(boxes[t], laws[t % len(laws)], DEFAULT_RESOLUTION, derive_seed(seed, t))``
    per trial t, in the estimators' sampling blocks of rows as wide as the
    largest box: draw i depends only on (seed, i), so a prefix will do."""
    width = max((box.edge_count for box in boxes), default=1)
    rows = _block_rows(width)
    for lo in range(0, len(boxes), rows):
        block = edge_uniform_rows(derive_seeds(seed, range(lo, min(lo + rows, len(boxes)))), width)
        for t, (box, u) in enumerate(zip(boxes[lo : lo + rows], block), lo):
            caps = caps_from_uniforms(laws[t % len(laws)], DEFAULT_RESOLUTION, u[: box.edge_count])
            yield CapacityField(box, DEFAULT_RESOLUTION, caps)


def _adjacency(box: BoxSpec, ids: list[int]) -> dict[int, list[tuple[int, int]]]:
    """``adj[v]``: (edge id, other end) of each edge of ``ids`` at vertex
    index v, in the ``edge_ends`` numbering, where z-index 0 is the bottom
    face and z-index ``height`` the top face."""
    tail, head = edge_ends(box.dims, box.height)
    adj: dict = {}
    for i, t, h in zip(ids, tail[ids].tolist(), head[ids].tolist()):
        adj.setdefault(t, []).append((i, h))
        adj.setdefault(h, []).append((i, t))
    return adj


def _disconnected_without(box: BoxSpec, removed: frozenset[int]) -> bool:
    """True when no bottom-to-top path survives the removal of the cut edges."""
    adj = _adjacency(box, [i for i in range(box.edge_count) if i not in removed])
    levels = box.height + 1
    seen = set(range(0, box.base_area * levels, levels))
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        if v % levels == box.height:
            return False
        for _, w in adj.get(v, ()):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return True


def max_disjoint_open_paths(box: BoxSpec, open_ids: frozenset[int]) -> int:
    """Exhaustive maximal edge-disjoint open-path packing on a tiny box."""
    adj = _adjacency(box, sorted(open_ids))
    levels = box.height + 1
    bottom = range(0, box.base_area * levels, levels)
    memo: dict[frozenset[int], int] = {}

    def paths_from(avail: frozenset[int]):
        found = []

        def walk(v, used: frozenset[int], trail: tuple[int, ...]):
            if v % levels == box.height:
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
    rng = _IntegerStream(seed)
    boxes = []
    for _ in range(trials):
        d = rng.integers(2, 4)
        side_cap = 12 if d == 2 else 5
        dims = tuple(rng.integers(1, side_cap + 1) for _ in range(d - 1))
        boxes.append(BoxSpec(dims, rng.integers(1, 17 if d == 2 else 9)))
    bad = 0
    for box, field in zip(boxes, _trial_fields(seed, boxes)):
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
    bad = 0
    for field in _trial_fields(seed, [box] * trials, (_OPEN_OR_SHUT,)):
        open_ids = frozenset(np.flatnonzero(field.caps).tolist())
        bad += menger_count(box, field) != max_disjoint_open_paths(box, open_ids)
    return PropertyResult("menger", trials, bad)


def check_tau_subadditivity(seed: int, trials: int = 100) -> PropertyResult:
    rng = _IntegerStream(seed)
    shapes = [(rng.integers(1, 7), rng.integers(1, 7), rng.integers(1, 5)) for _ in range(trials)]
    boxes = [RectSpec((0,), (a + b,)).slab_box(k) for a, b, k in shapes]
    bad = 0
    for (a, b, k), field in zip(shapes, _trial_fields(seed, boxes)):
        try:
            check_subadditivity(RectSpec((0,), (a,)), RectSpec((a,), (a + b,)), k, field)
        except RuntimeError:  # raised whenever the inequality fails
            bad += 1
    return PropertyResult("tau_subadditivity", trials, bad)


def check_sandwich(seed: int, trials: int = 50) -> PropertyResult:
    """Coarse flows never exceed finer ones, and the gap bound holds."""
    rng = _IntegerStream(seed)
    r = DEFAULT_RESOLUTION
    shapes = [(BoxSpec((rng.integers(1, 7),), rng.integers(1, 9)), 2 ** rng.integers(1, 5))
              for _ in range(trials)]  # box and coarse level of each trial
    bad = 0
    for (box, k), field in zip(shapes, _trial_fields(seed, [box for box, _ in shapes])):
        fine = min_cut_value(box, field)
        mid = min_cut_value(box, discretize(field, 2 * k))
        coarse = min_cut(box, discretize(field, k))
        gap_bound = len(coarse.edge_ids) * (r // k)
        if not (coarse.weight <= mid <= fine and fine - coarse.weight <= gap_bound):
            bad += 1
    return PropertyResult("sandwich", trials, bad)


def check_junction(seed: int, trials: int = 20) -> PropertyResult:
    """Glued streams are valid, carry the promised flow and never beat max-flow."""
    rng = _IntegerStream(seed)
    r = DEFAULT_RESOLUTION
    shapes = []  # box, level and the fat column of an odd trial
    for t in range(trials):
        box = BoxSpec((rng.integers(2, 5),), rng.integers(2, 5))
        level = 2 ** rng.integers(0, 3)
        shapes.append((box, level, rng.integers(1, box.dims[0] + 1) if t % 2 else 0))
    bad = 0
    fields = _trial_fields(seed, [box for box, *_ in shapes], _MIXED_DISTRIBUTIONS[1:2])
    for (box, level, col), f1 in zip(shapes, fields):
        n, height = box.dims[0], box.height
        if col:  # fat column: one column wide open, everything else shut
            fat = np.isin(np.arange(box.edge_count), vertical_edges(box.dims, height)[col - 1])
            f1 = CapacityField(box, r, np.where(fat, 2 * r, 0))
        s1 = discrete_max_flow_stream(box, f1, level)
        flow1 = flow_value(s1)
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
            not validate_stream(joined.box, union_field, joined)
            and flow_value(joined) >= need
            and min_cut_value(joined.box, union_field) >= flow_value(joined)
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
