"""Reference edge enumeration: every box edge built as an ``Edge`` and sorted.

Test oracle for ``latticeflow.lattice.edge_ends``, whose index arithmetic
must reproduce this lexicographic numbering at every offset.
"""

from __future__ import annotations

from latticeflow.lattice import BoxSpec, Edge, Point


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


def box_vertices(box: BoxSpec) -> tuple[Point, ...]:
    """Vertices of the box itself (top face included, bottom face excluded)."""
    out = []
    for base in box.base_points():
        for z in range(box.z_lo + 1, box.z_hi + 1):
            out.append(base + (z,))
    return tuple(sorted(out))
