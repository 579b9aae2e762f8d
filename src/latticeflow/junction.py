"""Discrete streams, truncated boundary projections and stream gluing.

A discrete stream at level k is a stream whose signed flows are multiples
of 1/k and which is normalised at the faces: no edge leaving the bottom
face or entering the top face carries flow downward, and edges lying inside
the top face carry none. Such streams arise from families of unit paths in
the parallel-edge expansion of the box, and two of them stacked on top of
each other can be glued into one stream on the union box whenever their
truncated interface projections agree, preserving a prescribed amount of
flow.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .capacity import CapacityField, CapacityOverflowError, _level_step, discretize, read_lam, threshold_units
from .flow import Stream, _unbalanced, decompose_paths, flow_value, max_flow
from .lattice import BoxSpec, edge_ends, edge_index, edge_map, vertical_edges


class JunctionHypothesisError(ValueError):
    """A gluing hypothesis fails: flow shortfall or projection mismatch."""

    def __init__(self, reason: str, *, which: str | None = None, base_point=None):
        self.reason = reason
        self.which = which
        self.base_point = base_point
        detail = which if which is not None else f"at base point {base_point}"
        super().__init__(f"{reason}: {detail}")


@dataclass(eq=False)
class DiscreteStream(Stream):
    """A stream whose amounts are multiples of R/level, normalised for gluing."""

    level: int

    def __post_init__(self) -> None:
        super().__post_init__()
        step = _level_step(self.level, self.resolution)
        box = self.box
        if any(x % step for x in self.flow.tolist()):
            raise ValueError(f"amounts are not multiples of 1/{self.level}")
        faces = vertical_edges(box.dims, box.height)[:, [0, -1]]
        if (self.flow[faces] < 0).any():
            raise ValueError("face edges must carry flow bottom-up")
        tail = edge_ends(box.dims, box.height)[0]  # only top-face edges start on the top face
        if self.flow[tail % (box.height + 1) == box.height].any():
            raise ValueError("edges inside the top face must carry no flow")
        unbalanced = _unbalanced(self)
        if unbalanced:
            raise ValueError(f"stream is unbalanced at {unbalanced[0][0]}")


def _flow_from_paths(box: BoxSpec, paths, unit: int) -> np.ndarray:
    """The net flow of unit paths, each traversal carrying ``unit``."""
    steps = [step for path in paths for step in itertools.pairwise(path)]
    corner = np.add(box.offset, (1,) * (box.d - 1) + (0,))  # the point of vertex 0
    coords = np.array(steps, dtype=np.int64).reshape(-1, 2, box.d) - corner
    u, w = np.ravel_multi_index(np.moveaxis(coords, -1, 0), box.dims + (box.height + 1,)).T
    net = np.zeros(box.edge_count, dtype=np.int64)
    np.add.at(net, edge_index(box, np.minimum(u, w), np.maximum(u, w)), np.where(u < w, unit, -unit))
    return net


def discrete_max_flow_stream(box: BoxSpec, field: CapacityField, level: int) -> DiscreteStream:
    """A discrete stream realising the level-k maximal flow of the field.

    The field is coarsened to level k, solved exactly, decomposed into unit
    paths and rebuilt, which yields the face normalisation for free.
    """
    coarse = discretize(field, level)
    paths = decompose_paths(box, max_flow(box, coarse).stream, level)
    r = field.resolution
    return DiscreteStream(box, r, _flow_from_paths(box, paths, r // level), level)


def translate_stream(ds: DiscreteStream, dz: int) -> DiscreteStream:
    """The same stream on the box shifted vertically by dz."""
    box = ds.box.translate((0,) * (ds.box.d - 1) + (dz,))
    return DiscreteStream(box, ds.resolution, ds.flow, ds.level)


def translate_field(field: CapacityField, dz: int) -> CapacityField:
    box = field.box.translate((0,) * (field.box.d - 1) + (dz,))
    return CapacityField(box, field.resolution, field.caps)


def _mirror(box: BoxSpec) -> np.ndarray:
    """The id of each edge's mirror image about the mid-height plane, -1 for
    the edges inside the top face, whose images would lie in the bottom one."""
    levels = box.height + 1
    tail, head = (v + box.height - 2 * (v % levels) for v in edge_ends(box.dims, box.height))
    return edge_index(box, np.minimum(tail, head), np.maximum(tail, head))


def flip_vertical_field(field: CapacityField) -> CapacityField:
    """Mirror the capacities about the mid-height plane of the box.

    Horizontal edges inside the top face mirror onto the sealed bottom
    level, which carries no edges; they keep their original capacities.
    Discrete streams never use them, so the mirror of a feasible discrete
    stream stays feasible for the mirrored field.
    """
    mirror = _mirror(field.box)
    kept = mirror >= 0
    caps = np.array(field.caps, copy=True)
    caps[mirror[kept]] = field.caps[kept]
    return CapacityField(field.box, field.resolution, caps)


def flip_vertical(ds: DiscreteStream) -> DiscreteStream:
    """Mirror the stream about the mid-height plane, reversing the fluid.

    Upward flow stays upward, so the result is again a discrete stream; its
    boundary condition is the swap of the original one.
    """
    box = ds.box
    mirror = _mirror(box)
    kept = mirror >= 0  # the rest lie inside the top face and carry no flow
    if (ds.flow == np.iinfo(np.int64).min).any():
        raise CapacityOverflowError("a flow of -2**63 units has no 64-bit mirror image")
    tail, head = edge_ends(box.dims, box.height)
    flow = np.zeros_like(ds.flow)
    # the fluid reverses on every edge, and a vertical edge's ends swap as well
    flow[mirror[kept]] = np.where(head == tail + 1, ds.flow, -ds.flow)[kept]
    return DiscreteStream(box, ds.resolution, flow, ds.level)


def merge_stacked_fields(bottom: CapacityField, top: CapacityField) -> CapacityField:
    """One field on the union of a box and the box stacked directly above it."""
    union = _check_stacked(bottom, top)
    caps = np.zeros(union.edge_count, dtype=np.int64)
    for part in (bottom, top):
        caps[edge_map(part.box, union)] = part.caps
    return CapacityField(union, bottom.resolution, caps)


def _check_stacked(lower: CapacityField | Stream, upper: CapacityField | Stream) -> BoxSpec:
    """The union box of two fields or streams at one resolution, the upper stacked on the lower."""
    b, t = lower.box, upper.box
    if lower.resolution != upper.resolution:
        raise ValueError("resolutions differ")
    if b.dims != t.dims or b.offset[:-1] != t.offset[:-1]:
        raise ValueError("boxes must share the same base")
    if t.z_lo != b.z_hi:
        raise ValueError("upper box must sit directly on top of the lower one")
    if t.height != b.height:
        raise ValueError("boxes must have equal heights")
    return BoxSpec(b.dims, b.height + t.height, b.offset)


def join_streams(s1: DiscreteStream, s2: DiscreteStream, lam, n: int, level: int) -> DiscreteStream:
    """Glue a stream on a box with one on the box stacked above it.

    Hypotheses, checked exactly: both flows reach lam * n^(d-1) and the
    truncated projections on the two sides of the interface agree pointwise.
    When no interface column exceeds lam * n^(d-1) the two streams simply
    concatenate; otherwise ceil(lam * n^(d-1) * k) unit paths are re-glued
    through a column that exceeds it on both sides.
    """
    lamf = read_lam(lam)
    if s1.level != level or s2.level != level:
        raise ValueError("streams must be discrete at the requested level")
    union = _check_stacked(s1, s2)
    b1, b2 = s1.box, s2.box
    r = s1.resolution
    d = b1.d
    need_units = lamf * n ** (d - 1) * r  # exact threshold in units

    if flow_value(s1) < need_units:
        raise JunctionHypothesisError("flow_shortfall", which="lower stream")
    if flow_value(s2) < need_units:
        raise JunctionHypothesisError("flow_shortfall", which="upper stream")
    cap = (math.floor(lamf * n ** (d - 1)) + 1) * r  # projections are truncated at cap
    layers = vertical_edges(b1.dims, b1.height)  # the boxes share dims and height
    below, above = s1.flow[layers[:, -1]].tolist(), s2.flow[layers[:, 0]].tolist()
    for base, x, y in zip(b1.base_points(), below, above):
        if min(abs(x), cap) != min(abs(y), cap):
            raise JunctionHypothesisError("projection_mismatch", base_point=base)

    interface = b1.z_hi
    heavy = [x > need_units for x in below]

    if not any(heavy):
        flow = np.zeros(union.edge_count, dtype=np.int64)
        for part in (s1, s2):
            flow[edge_map(part.box, union)] = part.flow
        return DiscreteStream(union, r, flow, level)

    q = threshold_units(lamf, n ** (d - 1), level)
    meet = next(itertools.islice(b1.base_points(), heavy.index(True), None)) + (interface,)
    lower = [p for p in decompose_paths(b1, s1, level) if p[-1] == meet]
    upper = [p for p in decompose_paths(b2, s2, level) if p[0] == meet]
    if len(lower) < q or len(upper) < q:
        raise RuntimeError("internal gluing error: too few paths through the interface")
    glued = [lo + up[1:] for lo, up in zip(lower[:q], upper[:q])]
    return DiscreteStream(union, r, _flow_from_paths(union, glued, r // level), level)
