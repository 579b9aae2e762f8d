"""Discrete streams, truncated boundary projections and stream gluing.

A discrete stream at level k carries flow amounts that are multiples of 1/k
and is normalised at the faces: edges leaving the bottom face and entering
the top face point upward, and edges lying inside the top face carry no
flow. Such streams arise from families of unit paths in the parallel-edge
expansion of the box, and two of them stacked on top of each other can be
glued into one stream on the union box whenever their truncated interface
projections agree, preserving a prescribed amount of flow.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .capacity import CapacityField, as_fraction, discretize, is_power_of_two
from .flow import Stream, _unbalanced, decompose_paths, flow_value, max_flow
from .lattice import BoxSpec, edge_ends, edge_index, edge_map


class JunctionHypothesisError(ValueError):
    """A gluing hypothesis fails: flow shortfall or projection mismatch."""

    def __init__(self, reason: str, *, which: str | None = None, base_point=None):
        self.reason = reason
        self.which = which
        self.base_point = base_point
        detail = which if which is not None else f"at base point {base_point}"
        super().__init__(f"{reason}: {detail}")


@dataclass(eq=False)
class DiscreteStream:
    """A stream whose amounts are multiples of R/level, normalised for gluing."""

    stream: Stream
    level: int

    def __post_init__(self) -> None:
        if not is_power_of_two(self.level) or self.level > self.stream.resolution:
            raise ValueError("level must be a power of two dividing the resolution")
        step = self.stream.resolution // self.level
        box = self.stream.box
        if any(int(x) % step for x in self.stream.g.tolist()):
            raise ValueError(f"amounts are not multiples of 1/{self.level}")
        faces = np.concatenate([_vertical_layer(box, box.z_lo), _vertical_layer(box, box.z_hi - 1)])
        if (self.stream.orient[faces] != 1).any():
            raise ValueError("face edges must be oriented bottom-up")
        tail = edge_ends(box.dims, box.height)[0]  # only top-face edges start on the top face
        if self.stream.g[tail % (box.height + 1) == box.height].any():
            raise ValueError("edges inside the top face must carry no flow")
        unbalanced = _unbalanced(self.stream)
        if unbalanced:
            raise ValueError(f"stream is unbalanced at {unbalanced[0][0]}")

    @property
    def box(self) -> BoxSpec:
        return self.stream.box

    @property
    def resolution(self) -> int:
        return self.stream.resolution

    @property
    def g(self) -> np.ndarray:
        return self.stream.g

    @property
    def orient(self) -> np.ndarray:
        return self.stream.orient


@dataclass(frozen=True)
class BoundaryCondition:
    """Truncated projections at the bottom and below-top layers of a box."""

    pi1: tuple[int, ...]
    pi2: tuple[int, ...]
    lam: Fraction
    n: int
    level: int

    def reflected(self) -> "BoundaryCondition":
        return BoundaryCondition(self.pi2, self.pi1, self.lam, self.n, self.level)


def _vertical_layer(box: BoxSpec, layer: int) -> np.ndarray:
    """Ids of the vertical edges through [layer, layer + 1], in base-point order."""
    tail, head = edge_ends(box.dims, box.height)
    return np.flatnonzero((head == tail + 1) & (tail % (box.height + 1) == layer - box.z_lo))


def _stream_from_paths(box: BoxSpec, paths, unit: int, resolution: int) -> Stream:
    """Rebuild a stream from unit paths, each traversal carrying ``unit``."""
    steps = [step for path in paths for step in itertools.pairwise(path)]
    corner = np.add(box.offset, (1,) * (box.d - 1) + (0,))  # the point of vertex 0
    coords = np.array(steps, dtype=np.int64).reshape(-1, 2, box.d) - corner
    u, w = np.ravel_multi_index(np.moveaxis(coords, -1, 0), box.dims + (box.height + 1,)).T
    net = np.zeros(box.edge_count, dtype=np.int64)
    np.add.at(net, edge_index(box, np.minimum(u, w), np.maximum(u, w)), np.where(u < w, unit, -unit))
    return Stream(box, resolution, np.abs(net), np.where(net < 0, -1, 1))


def discrete_max_flow_stream(box: BoxSpec, field: CapacityField, level: int) -> DiscreteStream:
    """A discrete stream realising the level-k maximal flow of the field.

    The field is coarsened to level k, solved exactly, decomposed into unit
    paths and rebuilt, which yields the face normalisation for free.
    """
    coarse = discretize(field, level)
    result = max_flow(box, coarse)
    paths = decompose_paths(box, result.stream, level)
    stream = _stream_from_paths(box, paths, field.resolution // level, field.resolution)
    return DiscreteStream(stream, level)


def _cap_units(lam: Fraction, n: int, d: int, resolution: int) -> int:
    return (math.floor(lam * n ** (d - 1)) + 1) * resolution


def truncated_projection(ds: DiscreteStream, layer: int, lam, n: int) -> tuple[int, ...]:
    """Per-column vertical amounts through [layer, layer+1], capped.

    The cap is floor(lam * n^(d-1)) + 1 in whole units; entries follow the
    lexicographic base-point order.
    """
    lamf = as_fraction(lam)
    box = ds.box
    if not box.z_lo <= layer < box.z_hi:
        raise ValueError("layer outside the box")
    cap = _cap_units(lamf, n, box.d, ds.resolution)
    return tuple(min(x, cap) for x in ds.g[_vertical_layer(box, layer)].tolist())


def boundary_condition(ds: DiscreteStream, lam, n: int) -> BoundaryCondition:
    """Projections at the bottom layer and the layer below the top face."""
    lamf = as_fraction(lam)
    box = ds.box
    return BoundaryCondition(
        truncated_projection(ds, box.z_lo, lamf, n),
        truncated_projection(ds, box.z_hi - 1, lamf, n),
        lamf,
        n,
        ds.level,
    )


def boundary_count_bound(lam, n: int, level: int, d: int) -> int:
    """Exact counting bound on the distinct boundary conditions at level k."""
    lamf = as_fraction(lam)
    if n < 1 or level < 1 or d < 2 or lamf < 0:
        raise ValueError("parameters must be positive (d >= 2, lam >= 0)")
    return (level * (math.floor(lamf * n ** (d - 1)) + 1) + 1) ** (2 * n ** (d - 1))


def translate_stream(ds: DiscreteStream, dz: int) -> DiscreteStream:
    """The same stream on the box shifted vertically by dz."""
    box = ds.box.translate((0,) * (ds.box.d - 1) + (dz,))
    return DiscreteStream(Stream(box, ds.resolution, ds.g, ds.orient), ds.level)


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
    kept = mirror >= 0
    if ds.g[~kept].any():
        raise ValueError("flow on a top-face edge has no mirror image")
    tail, head = edge_ends(box.dims, box.height)
    # the fluid reverses on every edge, and a vertical edge's ends swap as well
    flipped = np.where(head == tail + 1, ds.orient, -ds.orient)
    g = np.zeros_like(ds.g)
    orient = np.ones_like(ds.orient)
    g[mirror[kept]] = ds.g[kept]
    orient[mirror[kept]] = np.where(ds.g == 0, 1, flipped)[kept]
    return DiscreteStream(Stream(box, ds.resolution, g, orient), ds.level)


def merge_stacked_fields(bottom: CapacityField, top: CapacityField) -> CapacityField:
    """One field on the union of a box and the box stacked directly above it."""
    b, t = bottom.box, top.box
    _check_stacked(b, t)
    union = BoxSpec(b.dims, b.height + t.height, b.offset)
    if bottom.resolution != top.resolution:
        raise ValueError("resolutions differ")
    caps = np.zeros(union.edge_count, dtype=np.int64)
    for part in (bottom, top):
        caps[edge_map(part.box, union)] = part.caps
    return CapacityField(union, bottom.resolution, caps)


def _check_stacked(b: BoxSpec, t: BoxSpec) -> None:
    if b.dims != t.dims or b.offset[:-1] != t.offset[:-1]:
        raise ValueError("boxes must share the same base")
    if t.z_lo != b.z_hi:
        raise ValueError("upper box must sit directly on top of the lower one")
    if t.height != b.height:
        raise ValueError("boxes must have equal heights")


def join_streams(s1: DiscreteStream, s2: DiscreteStream, lam, n: int, level: int) -> DiscreteStream:
    """Glue a stream on a box with one on the box stacked above it.

    Hypotheses, checked exactly: both flows reach lam * n^(d-1) and the
    truncated projections on the two sides of the interface agree pointwise.
    When no interface column exceeds lam * n^(d-1) the two streams simply
    concatenate; otherwise ceil(lam * n^(d-1) * k) unit paths are re-glued
    through a column that exceeds it on both sides.
    """
    lamf = as_fraction(lam)
    if s1.level != level or s2.level != level:
        raise ValueError("streams must be discrete at the requested level")
    if s1.resolution != s2.resolution:
        raise ValueError("resolutions differ")
    b1, b2 = s1.box, s2.box
    _check_stacked(b1, b2)
    r = s1.resolution
    d = b1.d
    need_units = lamf * n ** (d - 1) * r  # exact threshold in units

    if flow_value(s1.stream) < need_units:
        raise JunctionHypothesisError("flow_shortfall", which="lower stream")
    if flow_value(s2.stream) < need_units:
        raise JunctionHypothesisError("flow_shortfall", which="upper stream")
    p1 = truncated_projection(s1, b1.z_hi - 1, lamf, n)
    p2 = truncated_projection(s2, b2.z_lo, lamf, n)
    for base, (x, y) in zip(b1.base_points(), zip(p1, p2)):
        if x != y:
            raise JunctionHypothesisError("projection_mismatch", base_point=base)

    union = BoxSpec(b1.dims, b1.height + b2.height, b1.offset)
    interface = b1.z_hi
    heavy = [x > need_units for x in s1.g[_vertical_layer(b1, interface - 1)].tolist()]

    if not any(heavy):
        g = np.zeros(union.edge_count, dtype=np.int64)
        orient = np.ones(union.edge_count, dtype=np.int8)
        for part in (s1, s2):
            ids = edge_map(part.box, union)
            g[ids] = part.g
            orient[ids] = part.orient
        return DiscreteStream(Stream(union, r, g, orient), level)

    q = math.ceil(lamf * n ** (d - 1) * level)
    meet = next(itertools.islice(b1.base_points(), heavy.index(True), None)) + (interface,)
    lower = [p for p in decompose_paths(b1, s1.stream, level) if p[-1] == meet]
    upper = [p for p in decompose_paths(b2, s2.stream, level) if p[0] == meet]
    if len(lower) < q or len(upper) < q:
        raise RuntimeError("internal gluing error: too few paths through the interface")
    glued = [lo + up[1:] for lo, up in zip(lower[:q], upper[:q])]
    stream = _stream_from_paths(union, glued, r // level, r)
    return DiscreteStream(stream, level)
