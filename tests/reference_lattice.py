"""Reference edge enumeration: every box edge built as an ``Edge`` and sorted.

Test oracle for ``latticeflow.lattice.edge_ends``, whose index arithmetic
must reproduce this lexicographic numbering at every offset, and for
``latticeflow.cuts.uncuttable_edge_ids``, which must reproduce the pinned
set that ``inner_boundary_edges`` defines point by point. Also the point
sets the reference solver and the tests build their faces from.
"""

from __future__ import annotations

from latticeflow.lattice import BoxSpec, Edge, Point, RectSpec


def sorted_edges_in_box(box: BoxSpec) -> tuple[Edge, ...]:
    """All edges of the box, sorted by (low end, high end); index = edge id."""
    edges: list[Edge] = []
    for base in box.base_points():
        for z in range(box.z_lo, box.z_hi):
            edges.append(Edge(base + (z,), base + (z + 1,)))
    for axis in range(len(box.dims)):
        for base in box.base_points():
            if base[axis] + 1 in box.base_range(axis):
                nb = base[:axis] + (base[axis] + 1,) + base[axis + 1 :]
                for z in range(box.z_lo + 1, box.z_hi + 1):
                    edges.append(Edge(base + (z,), nb + (z,)))
    edges.sort(key=lambda e: (e.a, e.b))
    return tuple(edges)


def edge_ids(box: BoxSpec) -> dict[Edge, int]:
    """Edge -> dense id map of the box, from the sorted enumeration."""
    return {e: i for i, e in enumerate(sorted_edges_in_box(box))}


def face_vertices(box: BoxSpec, which: str) -> frozenset[Point]:
    """Lattice points of the bottom or top face."""
    if which == "bottom":
        z = box.z_lo
    elif which == "top":
        z = box.z_hi
    else:
        raise ValueError("which must be 'bottom' or 'top'")
    return frozenset(base + (z,) for base in box.base_points())


def box_vertices(box: BoxSpec) -> tuple[Point, ...]:
    """Vertices of the box itself (top face included, bottom face excluded)."""
    out = []
    for base in box.base_points():
        for z in range(box.z_lo + 1, box.z_hi + 1):
            out.append(base + (z,))
    return tuple(sorted(out))


def contains(rect: RectSpec, base: tuple[int, ...]) -> bool:
    return all(a < x <= b for x, a, b in zip(base, rect.lo, rect.hi))


def is_inner_boundary(rect: RectSpec, base: tuple[int, ...]) -> bool:
    """Base point inside the rectangle with a nearest neighbour outside."""
    if not contains(rect, base):
        return False
    return any(x == a + 1 or x == b for x, a, b in zip(base, rect.lo, rect.hi))


def inner_boundary_edges(rect: RectSpec, height_range: tuple[int, int]) -> frozenset[Edge]:
    """Edges with both endpoints on the inner boundary of the cylinder rect x R,
    restricted to heights ]z_lo, z_hi] with the box edge conventions.

    ``height_range`` is the pair (z_lo, z_hi); the returned set is exactly the
    boundary-to-boundary subset of the edges of the enclosing slab box.
    """
    z_lo, z_hi = height_range
    if z_lo >= z_hi:
        raise ValueError("empty height range")
    enclosing = BoxSpec(rect.sides, z_hi - z_lo, rect.lo + (z_lo,))
    return frozenset(
        e
        for e in sorted_edges_in_box(enclosing)
        if is_inner_boundary(rect, e.a[:-1]) and is_inner_boundary(rect, e.b[:-1])
    )
