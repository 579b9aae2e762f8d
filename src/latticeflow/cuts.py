"""Pinned-boundary minimum cuts over a base rectangle, restricted to a slab.

A cut over a base rectangle S separates far-below from far-above inside the
infinite cylinder S x R. The pinning condition forces the cut to meet the
inner boundary of the cylinder only in vertical edges of the layer between
heights 0 and 1, so cuts over neighbouring rectangles can be glued along
their shared perimeter. Restricted to the slab S x ]-k, k], the minimum is
computed by maximal flow with the pinned edges marked never-cuttable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .capacity import CapacityField
from .flow import CutSet, min_cut
from .lattice import GEOMETRY_CACHE_SIZE, RectSpec, edge_ends, edge_map


@dataclass(eq=False)
class SlabProblem:
    """tau(S, k) instance: base rectangle, slab half-height and its field."""

    base: RectSpec
    half_height: int
    field: CapacityField

    def __post_init__(self) -> None:
        if self.half_height < 1:
            raise ValueError("half_height must be >= 1")
        if self.field.box != self.base.slab_box(self.half_height):
            raise ValueError("field must cover exactly the slab box of the base")


@lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def uncuttable_edge_ids(base: RectSpec, half_height: int) -> frozenset[int]:
    """Slab edge ids excluded from cut membership by the pinning condition.

    These are the boundary-to-boundary edges of the cylinder (both ends on
    the inner boundary of ``tests/reference_lattice.inner_boundary_edges``),
    except the vertical ones spanning heights [0, 1], which stay cuttable so
    that the flat layer cut is always available.
    """
    sides, height = base.sides, 2 * half_height
    tail, head = edge_ends(sides, height)

    def on_rim(v: np.ndarray) -> np.ndarray:
        coords = np.unravel_index(v // (height + 1), sides)
        return np.logical_or.reduce([(c == 0) | (c == k - 1) for c, k in zip(coords, sides)])

    flat = (head == tail + 1) & (tail % (height + 1) == half_height)
    return frozenset(np.flatnonzero(on_rim(tail) & on_rim(head) & ~flat).tolist())


def tau_slab(problem: SlabProblem) -> tuple[int, CutSet]:
    """Minimum pinned cut weight in the slab, with a certificate cut.

    The returned cut separates the slab bottom from the slab top, satisfies
    the pinning condition by construction, and its weight equals the value.
    """
    never = uncuttable_edge_ids(problem.base, problem.half_height)
    cut = min_cut(problem.field.box, problem.field, never)
    return cut.weight, cut


@dataclass(eq=False)
class SubadditivityReport:
    tau_union: int
    tau_left: int
    tau_right: int
    left_cut: CutSet
    right_cut: CutSet
    glued_cut: CutSet

    @property
    def holds(self) -> bool:
        return self.tau_union <= self.tau_left + self.tau_right


def _check_compatible(left: RectSpec, right: RectSpec) -> RectSpec:
    """Union rectangle of two disjoint rectangles sharing a full side."""
    if len(left.lo) != len(right.lo):
        raise ValueError("rectangles live in different dimensions")
    split = [i for i in range(len(left.lo)) if (left.lo[i], left.hi[i]) != (right.lo[i], right.hi[i])]
    if len(split) != 1:
        raise ValueError("rectangles must agree in all axes but one")
    i = split[0]
    if left.hi[i] == right.lo[i]:
        lo, hi = left.lo, right.hi
    elif right.hi[i] == left.lo[i]:
        lo, hi = right.lo, left.hi
    else:
        raise ValueError("rectangles must be contiguous along the split axis")
    return RectSpec(
        left.lo[:i] + (min(left.lo[i], right.lo[i]),) + left.lo[i + 1 :],
        left.hi[:i] + (max(left.hi[i], right.hi[i]),) + left.hi[i + 1 :],
    )


def check_subadditivity(
    left: RectSpec, right: RectSpec, half_height: int, field: CapacityField
) -> SubadditivityReport:
    """Compute tau on both halves and their union from one shared field.

    ``field`` must cover the union slab; the halves use its restriction.
    Raises if the subadditivity inequality fails, which would indicate a
    solver defect, and returns the three values with the glued certificate.
    """
    union = _check_compatible(left, right)
    union_box = union.slab_box(half_height)
    if field.box != union_box:
        raise ValueError("field must cover the union slab box")
    tau_u, _cut_u = tau_slab(SlabProblem(union, half_height, field))
    parts = []
    for rect in (left, right):
        sub = field.restrict_to(rect.slab_box(half_height))
        parts.append(tau_slab(SlabProblem(rect, half_height, sub)))
    (tau_l, cut_l), (tau_r, cut_r) = parts

    glued = set()
    for rect, cut in ((left, cut_l), (right, cut_r)):
        glued.update(edge_map(rect.slab_box(half_height), union_box)[list(cut.edge_ids)].tolist())
    glued_cut = CutSet(frozenset(glued), tau_l + tau_r)

    report = SubadditivityReport(tau_u, tau_l, tau_r, cut_l, cut_r, glued_cut)
    if not report.holds:
        raise RuntimeError(
            f"subadditivity violated: {tau_u} > {tau_l} + {tau_r} (solver defect)"
        )
    return report
