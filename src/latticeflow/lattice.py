"""Cylinder lattice geometry: boxes, edges, faces and boundary sets.

The ambient graph is Z^d (d >= 2) with nearest-neighbour edges. A box is a
product of half-open integer intervals ]lo_i, hi_i] over the first d - 1
axes (the base) times ]z_lo, z_hi] along the last axis (the height). An
edge belongs to a box when its interior lies inside it with the side faces
sealed: a vertical edge may span any unit interval within [z_lo, z_hi],
including the one entering from the bottom face, while a horizontal edge
needs both endpoints strictly inside the base and a height in ]z_lo, z_hi].
Fluid can therefore enter or leave a box only through its bottom and top.

All objects here are immutable after construction and safe to share across
worker processes. Edge ids are dense integers given by the lexicographic
ordering of the edges, and ``edge_ends`` holds that numbering for every
solver. It numbers the vertices from the bottom face to the top face in C
order over ``dims + (height + 1,)``: vertex v has z-index
``v % (height + 1)``, counted up from the bottom face, and base index
``v // (height + 1)``, in C order over ``dims``. Ids and vertex indices do
not depend on the offset, so solver geometry is keyed on (dims, height)
alone; ``edges_in_box`` places the same numbering at a box's offset.
``edge_index`` looks ids up from vertex-index pairs, and ``edge_map`` matches
the edges of two boxes that share a place in Z^d.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

Point = tuple[int, ...]

VERTICAL = "vertical"
HORIZONTAL = "horizontal"

# Entries kept by each per-box geometry cache here and in ``cuts``; the
# ``flow`` graph caches hold 16. One ``verify`` run at scale 4 uses at most
# 368 boxes per cache, so long multi-shape runs stay bounded without
# rebuilding within a run.
GEOMETRY_CACHE_SIZE = 512


def _unit_axis(a: Point, b: Point) -> int:
    """Axis in which two nearest neighbours differ; raise if not adjacent."""
    axis = -1
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            if axis >= 0 or abs(x - y) != 1:
                raise ValueError(f"not nearest neighbours: {a}, {b}")
            axis = i
    if axis < 0:
        raise ValueError(f"not nearest neighbours: {a}, {b}")
    return axis


@dataclass(frozen=True)
class Edge:
    """Unordered nearest-neighbour edge, endpoints kept in lexicographic order."""

    a: Point
    b: Point

    def __post_init__(self) -> None:
        a, b = tuple(self.a), tuple(self.b)
        if len(a) != len(b):
            raise ValueError("endpoint dimensions differ")
        if a > b:
            a, b = b, a
        _unit_axis(a, b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def axis(self) -> int:
        return _unit_axis(self.a, self.b)

    @property
    def d(self) -> int:
        return len(self.a)


def classify_edge(e: Edge) -> str:
    """An edge is vertical when it varies in the last coordinate."""
    return VERTICAL if e.axis == e.d - 1 else HORIZONTAL


@dataclass(frozen=True)
class BoxSpec:
    """Axis-aligned cylinder: base side lengths, height and integer offset.

    The default offset places the box at the origin, i.e. base
    prod ]0, k_i] and heights ]0, height]. The bottom face sits at height
    ``z_lo`` (one level below the box vertices) and the top face at
    ``z_hi``; both faces carry exactly prod(dims) lattice points.
    """

    dims: tuple[int, ...]
    height: int
    offset: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        dims = tuple(int(k) for k in self.dims)
        if len(dims) < 1:
            raise ValueError("need at least one base dimension (d >= 2)")
        if any(k < 1 for k in dims):
            raise ValueError("all base side lengths must be >= 1")
        height = int(self.height)
        if height < 1:
            raise ValueError("height must be >= 1")
        offset = tuple(int(o) for o in self.offset) if self.offset else (0,) * (len(dims) + 1)
        if len(offset) != len(dims) + 1:
            raise ValueError("offset must have one entry per coordinate")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "offset", offset)

    @property
    def d(self) -> int:
        return len(self.dims) + 1

    @property
    def z_lo(self) -> int:
        return self.offset[-1]

    @property
    def z_hi(self) -> int:
        return self.offset[-1] + self.height

    @property
    def base_area(self) -> int:
        return math.prod(self.dims)

    @cached_property
    def edge_count(self) -> int:
        """``len(edges_in_box(self))``, without building the edges."""
        area = self.base_area
        return self.height * (area + sum(area // k * (k - 1) for k in self.dims))

    def base_range(self, axis: int) -> range:
        lo = self.offset[axis]
        return range(lo + 1, lo + self.dims[axis] + 1)

    def base_points(self):
        """Base lattice points in lexicographic order."""
        return itertools.product(*(self.base_range(i) for i in range(len(self.dims))))

    def translate(self, delta: tuple[int, ...]) -> "BoxSpec":
        if len(delta) != self.d:
            raise ValueError("translation vector has wrong length")
        return BoxSpec(self.dims, self.height, tuple(o + t for o, t in zip(self.offset, delta)))


@lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def edge_ends(dims: tuple[int, ...], height: int) -> tuple[np.ndarray, np.ndarray]:
    """(tail, head) vertex indices of every edge of a box, in edge-id order.

    Vertices are numbered by the module's rule. C order on vertex indices
    is lexicographic order on points, so tail < head and the edge id ranks
    (tail, head): each vertex lists its vertical edge (z-index z to z + 1,
    for z < height), then its horizontal ones (at z-index >= 1) from the
    last base axis to the first. Both arrays are read-only.
    """
    levels = height + 1
    v = np.arange(math.prod(dims) * levels)
    *base, z = np.unravel_index(v, dims + (levels,))
    steps, present = [1], [z < height]
    stride = levels
    for axis in reversed(range(len(dims))):
        steps.append(stride)
        present.append((base[axis] < dims[axis] - 1) & (z > 0))
        stride *= dims[axis]
    mask = np.stack(present, axis=1)
    tail = np.broadcast_to(v[:, None], mask.shape)[mask]
    head = (v[:, None] + np.array(steps))[mask]
    tail.setflags(write=False)
    head.setflags(write=False)
    return tail, head


def edge_index(box: BoxSpec, tail: np.ndarray, head: np.ndarray) -> np.ndarray:
    """The id of each (tail, head) vertex-index pair of the box, -1 where the
    pair is not an edge (ends of -1 included). Ids rank (tail, head), so
    ``tail * V + head`` increases with the id and one binary search finds them.
    """
    tails, heads = edge_ends(box.dims, box.height)
    n_vertices = box.base_area * (box.height + 1)
    keys = tails * n_vertices + heads
    tail, head = np.asarray(tail, dtype=np.int64), np.asarray(head, dtype=np.int64)
    query = tail * n_vertices + head
    ids = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return np.where((keys[ids] == query) & (tail >= 0) & (head >= 0), ids, -1)


@lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def edge_map(src: BoxSpec, dst: BoxSpec) -> np.ndarray:
    """The id in ``dst`` of every edge of ``src`` at the same place in Z^d,
    -1 where ``dst`` lacks it, in ``src`` edge-id order. Read-only."""
    if src.d != dst.d:
        raise ValueError("boxes live in different dimensions")
    src_sizes, dst_sizes = src.dims + (src.height + 1,), dst.dims + (dst.height + 1,)
    shift = [s - t for s, t in zip(src.offset, dst.offset)]

    def moved(v: np.ndarray) -> np.ndarray:
        coords = [c + s for c, s in zip(np.unravel_index(v, src_sizes), shift)]
        inside = np.logical_and.reduce([(c >= 0) & (c < k) for c, k in zip(coords, dst_sizes)])
        return np.where(inside, np.ravel_multi_index(coords, dst_sizes, mode="clip"), -1)

    ids = edge_index(dst, *map(moved, edge_ends(src.dims, src.height)))
    ids.setflags(write=False)
    return ids


def vertex_points(box: BoxSpec) -> list[Point]:
    """The lattice point of every ``edge_ends`` vertex index of the box, in index order."""
    corner = tuple(o + 1 for o in box.offset[:-1]) + (box.z_lo,)
    sizes = box.dims + (box.height + 1,)
    return list(itertools.product(*(range(c, c + k) for c, k in zip(corner, sizes))))


def edges_in_box(box: BoxSpec) -> tuple[Edge, ...]:
    """All edges of the box, lexicographically ordered; index = dense edge id.

    This is ``edge_ends`` with each vertex index read as its lattice point,
    for the API boundary; the module docstring gives the membership rule.
    """
    points = vertex_points(box)
    tail, head = edge_ends(box.dims, box.height)
    return tuple(Edge(points[t], points[h]) for t, h in zip(tail.tolist(), head.tolist()))


@dataclass(frozen=True)
class RectSpec:
    """Base hyper-rectangle prod ]lo_i, hi_i] in Z^(d-1)."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        lo = tuple(int(x) for x in self.lo)
        hi = tuple(int(x) for x in self.hi)
        if len(lo) != len(hi) or not lo:
            raise ValueError("bounds must be non-empty and of equal length")
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValueError("each interval ]a, b] needs a < b")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def cube(cls, side: int, d: int) -> "RectSpec":
        """The base ]0, side]^(d-1) of a d-dimensional cylinder."""
        return cls((0,) * (d - 1), (side,) * (d - 1))

    @property
    def sides(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    @property
    def area(self) -> int:
        return math.prod(self.sides)

    def slab_box(self, half_height: int) -> BoxSpec:
        """The slab rect x ]-k, k] as a box, reusing the box edge conventions."""
        if half_height < 1:
            raise ValueError("half_height must be >= 1")
        return BoxSpec(self.sides, 2 * half_height, self.lo + (-half_height,))

