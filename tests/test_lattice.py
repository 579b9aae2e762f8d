import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_lattice import (
    classify_edge,
    contains,
    edge_ids,
    face_vertices,
    inner_boundary_edges,
    sorted_edges_in_box,
)

from latticeflow.cuts import uncuttable_edge_ids
from latticeflow.lattice import (
    VERTICAL,
    BoxSpec,
    Edge,
    RectSpec,
    edge_ends,
    edge_index,
    edge_map,
    edges_in_box,
    vertical_edges,
)


def oracle_edge_in_box(box, a, b):
    """Independent pointwise membership predicate for a unit edge.

    Both endpoints must have every horizontal coordinate inside the base and
    a height within [z_lo, z_hi]; horizontal edges at the sealed bottom
    level are out.
    """
    for p in (a, b):
        for i in range(box.d - 1):
            lo = box.offset[i]
            if not lo < p[i] <= lo + box.dims[i]:
                return False
        if not box.z_lo <= p[-1] <= box.z_hi:
            return False
    if a[-1] == b[-1] == box.z_lo:
        return False
    return True


def scan_all_edges(box):
    """Every unit edge touching the closed bounding region, oracle-filtered."""
    ranges = [range(box.offset[i] - 1, box.offset[i] + box.dims[i] + 2) for i in range(box.d - 1)]
    ranges.append(range(box.z_lo - 1, box.z_hi + 2))
    found = set()
    for p in itertools.product(*ranges):
        for axis in range(box.d):
            q = p[:axis] + (p[axis] + 1,) + p[axis + 1 :]
            if oracle_edge_in_box(box, p, q):
                found.add(Edge(p, q))
    return found


def test_edge_canonicalises_and_validates():
    e = Edge((1, 1), (1, 0))
    assert e.a == (1, 0) and e.b == (1, 1)
    with pytest.raises(ValueError, match="not nearest neighbours"):
        Edge((0, 0), (1, 1))
    with pytest.raises(ValueError, match="not nearest neighbours"):
        Edge((0, 0), (0, 0))
    with pytest.raises(ValueError, match="not nearest neighbours"):
        Edge((0, 0), (0, 2))
    with pytest.raises(ValueError, match="endpoint dimensions differ"):
        Edge((0, 0), (0, 0, 1))


def test_edges_narrow_column():
    # width-1 box: only the two vertical edges; side-touching horizontals out
    box = BoxSpec((1,), 2)
    assert set(edges_in_box(box)) == {Edge((1, 0), (1, 1)), Edge((1, 1), (1, 2))}


def test_edges_flat_box():
    box = BoxSpec((2,), 1)
    assert set(edges_in_box(box)) == {
        Edge((1, 0), (1, 1)),
        Edge((2, 0), (2, 1)),
        Edge((1, 1), (2, 1)),
    }


def test_edges_match_pointwise_scan_3d():
    box = BoxSpec((2, 2), 2)
    assert set(edges_in_box(box)) == scan_all_edges(box)


def test_edges_match_pointwise_scan_offset():
    box = BoxSpec((3, 2), 3, offset=(2, -1, -2))
    assert set(edges_in_box(box)) == scan_all_edges(box)


def test_edge_ids_are_lexicographic_and_dense():
    box = BoxSpec((2,), 2)
    edges = edges_in_box(box)
    assert list(edges) == sorted(edges, key=lambda e: (e.a, e.b))
    assert edge_index(box, *edge_ends(box.dims, box.height)).tolist() == list(range(len(edges)))


@given(
    dims=st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple),
    height=st.integers(1, 6),
    offset=st.lists(st.integers(-6, 6), min_size=4, max_size=4),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_index_numbering_matches_sorted_enumeration(dims, height, offset):
    box = BoxSpec(dims, height, tuple(offset[: len(dims) + 1]))
    edges = edges_in_box(box)
    assert edges == sorted_edges_in_box(box)
    # the documented vertex rule: z-index v % (height + 1), base index v // (height + 1)
    tail, head = edge_ends(dims, height)

    def point(v):
        base = np.unravel_index(v // (height + 1), dims)
        return tuple(o + 1 + int(c) for o, c in zip(box.offset, base)) + (box.z_lo + v % (height + 1),)

    assert [(point(t), point(h)) for t, h in zip(tail.tolist(), head.tolist())] == [
        (e.a, e.b) for e in edges
    ]
    # the pinned set read off the index arrays equals the Edge-based definition
    rect = RectSpec(box.offset[:-1], tuple(o + k for o, k in zip(box.offset, dims)))
    half = -(-height // 2)
    ids = edge_ids(rect.slab_box(half))
    expected = {
        ids[e]
        for e in inner_boundary_edges(rect, (-half, half))
        if not (classify_edge(e) == VERTICAL and e.a[-1] == 0)
    }
    assert uncuttable_edge_ids(rect, half) == frozenset(expected)


def offset_boxes(d):
    return st.builds(
        BoxSpec,
        st.lists(st.integers(1, 3), min_size=d - 1, max_size=d - 1).map(tuple),
        st.integers(1, 4),
        st.lists(st.integers(-3, 3), min_size=d, max_size=d).map(tuple),
    )


@given(pair=st.integers(2, 4).flatmap(lambda d: st.tuples(offset_boxes(d), offset_boxes(d))))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_edge_map_matches_reference_lookup(pair):
    src, dst = pair
    ids = edge_ids(dst)
    expected = [ids.get(e, -1) for e in sorted_edges_in_box(src)]
    mapped = edge_map(src, dst)
    assert mapped.tolist() == expected
    assert not mapped.flags.writeable


def test_edge_map_disjoint_partial_and_nested_boxes():
    big = BoxSpec((3, 3), 3, (0, 0, 0))
    assert (edge_map(BoxSpec((2, 2), 2, (5, 5, 5)), big) == -1).all()
    inner = BoxSpec((2, 2), 2, (1, 1, 1))
    assert (edge_map(inner, big) >= 0).all()
    partial = edge_map(BoxSpec((2, 2), 2, (2, 1, 1)), big)
    assert (partial >= 0).any() and (partial == -1).any()
    with pytest.raises(ValueError):
        edge_map(BoxSpec((2,), 2), big)


def test_edge_index_masks_missing_ends():
    box = BoxSpec((2,), 2)
    last = box.base_area * (box.height + 1) - 1
    # (last, -1) as a key equals that of the edge (last - 1, last); it must not match it
    assert edge_index(box, [last - 1], [last]).tolist() == [box.edge_count - 1]
    assert edge_index(box, [last, -1, -1, 0], [-1, 0, -1, 2]).tolist() == [-1, -1, -1, -1]


@pytest.mark.parametrize(
    "box", [BoxSpec((1,), 1), BoxSpec((5,), 3), BoxSpec((2, 3), 4, (1, -2, 7)), BoxSpec((3, 1, 2), 2)]
)
def test_edge_count_matches_edge_list(box):
    assert box.edge_count == len(edges_in_box(box))


def test_face_vertices():
    box = BoxSpec((2,), 3)
    assert face_vertices(box, "bottom") == frozenset({(1, 0), (2, 0)})
    assert face_vertices(box, "top") == frozenset({(1, 3), (2, 3)})
    b3 = BoxSpec((1, 1), 1)
    assert face_vertices(b3, "bottom") == frozenset({(1, 1, 0)})
    assert face_vertices(b3, "top") == frozenset({(1, 1, 1)})


@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple),
    height=st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
def test_face_counts(dims, height):
    box = BoxSpec(dims, height)
    area = 1
    for k in dims:
        area *= k
    assert len(face_vertices(box, "bottom")) == len(face_vertices(box, "top")) == area
    # every vertex index, faces included, is the end of some edge
    tail, head = edge_ends(dims, height)
    assert np.union1d(tail, head).tolist() == list(range(area * (height + 1)))


@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple),
    height=st.integers(1, 3),
    delta=st.lists(st.integers(-3, 3), min_size=2, max_size=3).map(tuple),
)
@settings(max_examples=40, deadline=None)
def test_translation_moves_edges_exactly(dims, height, delta):
    if len(delta) != len(dims) + 1:
        delta = (delta + (0, 0, 0))[: len(dims) + 1]
    box = BoxSpec(dims, height)
    moved = box.translate(delta)
    shifted = {
        Edge(tuple(x + t for x, t in zip(e.a, delta)), tuple(x + t for x, t in zip(e.b, delta)))
        for e in edges_in_box(box)
    }
    assert set(edges_in_box(moved)) == shifted


def test_vertical_edge_count_in_cube():
    for n, h, d in ((3, 4, 2), (2, 3, 3)):
        box = BoxSpec((n,) * (d - 1), h)
        verticals = [e for e in edges_in_box(box) if classify_edge(e) == VERTICAL]
        assert len(verticals) == n ** (d - 1) * h


@pytest.mark.parametrize(
    "box",
    [BoxSpec((3,), 4, (5, -2)), BoxSpec((1,), 1), BoxSpec((2, 3), 2), BoxSpec((2, 1, 2), 3, (1, 1, 1, 1))],
)
def test_vertical_edges_grid(box):
    """Row b is the b-th base point in lexicographic (C) order, column z the
    edge from z-index z to z + 1, read off the ``Edge`` view."""
    expected = np.zeros((box.base_area, box.height), dtype=np.int64)
    base_index = {p: b for b, p in enumerate(box.base_points())}
    for i, e in enumerate(edges_in_box(box)):
        if classify_edge(e) == VERTICAL:
            expected[base_index[e.a[:-1]], e.a[-1] - box.z_lo] = i
    grid = vertical_edges(box.dims, box.height)
    assert grid.dtype == np.int64 and grid.shape == expected.shape
    assert np.array_equal(grid, expected)
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0, 0] = 0


def test_rect_validation():
    with pytest.raises(ValueError):
        RectSpec((0,), (0,))
    r = RectSpec((0, 1), (2, 4))
    assert r.sides == (2, 3)
    assert r.area == 6
    assert r.slab_box(2) == BoxSpec((2, 3), 4, offset=(0, 1, -2))


def test_inner_boundary_two_columns():
    # S = ]0,3]: only the boundary columns x=1 and x=3 qualify
    edges = inner_boundary_edges(RectSpec((0,), (3,)), (0, 2))
    assert edges == frozenset(
        {Edge((1, 0), (1, 1)), Edge((1, 1), (1, 2)), Edge((3, 0), (3, 1)), Edge((3, 1), (3, 2))}
    )


def test_inner_boundary_degenerate_width():
    # S = ]0,1]: every vertex is boundary, all edges in the range qualify
    rect = RectSpec((0,), (1,))
    slab = BoxSpec((1,), 3, offset=(0, -1))
    assert inner_boundary_edges(rect, (-1, 2)) == frozenset(edges_in_box(slab))


def test_inner_boundary_matches_vertex_scan_3d():
    rect = RectSpec((0, 0), (3, 3))
    height_range = (0, 1)

    def boundary_vertex(v):
        base = v[:-1]
        if not contains(rect, base):
            return False
        for i in range(len(base)):
            for step in (-1, 1):
                w = base[:i] + (base[i] + step,) + base[i + 1 :]
                if not contains(rect, w):
                    return True
        return False

    enclosing = BoxSpec(rect.sides, 1, rect.lo + (0,))
    expected = {
        e for e in scan_all_edges(enclosing) if boundary_vertex(e.a) and boundary_vertex(e.b)
    }
    assert inner_boundary_edges(rect, height_range) == frozenset(expected)


def test_inner_boundary_subset_of_slab_edges():
    rect = RectSpec((0, 0), (3, 2))
    slab = BoxSpec(rect.sides, 4, rect.lo + (-2,))
    assert inner_boundary_edges(rect, (-2, 2)) <= frozenset(edges_in_box(slab))


def test_box_validation():
    with pytest.raises(ValueError):
        BoxSpec((), 1)
    with pytest.raises(ValueError):
        BoxSpec((0,), 1)
    with pytest.raises(ValueError):
        BoxSpec((2,), 0)
    with pytest.raises(ValueError):
        BoxSpec((2,), 1, offset=(0,))


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda: RectSpec((0,), (1, 2)), "equal length", id="rect-unequal-bounds"),
    pytest.param(lambda: RectSpec((), ()), "non-empty", id="rect-empty-bounds"),
    pytest.param(lambda: BoxSpec((2,), 2).translate((1,)), "wrong length", id="translate-short-vector"),
])
def test_refusals(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()


def test_sizes_must_be_exact_integers():
    """A float, a string or a boolean size is refused, not truncated or read
    as 0 or 1; numpy integers are read as the Python ints they hold."""
    for call in (lambda: BoxSpec((2.7,), 3), lambda: BoxSpec((2,), "3"), lambda: BoxSpec((2,), 3.0),
                 lambda: BoxSpec((2,), 2, (0.5, 0)), lambda: RectSpec((0.5,), (3,)),
                 lambda: RectSpec((0,), (3.9,)), lambda: RectSpec(("0",), (3,)),
                 lambda: BoxSpec((True,), 2), lambda: BoxSpec((2,), True), lambda: BoxSpec((2,), 2, (False, 0)),
                 lambda: BoxSpec((np.True_,), 2), lambda: RectSpec((False,), (True,)),
                 lambda: RectSpec((0,), (2,)).slab_box(True)):
        with pytest.raises(TypeError):
            call()
    box = BoxSpec((np.int64(2), np.int64(3)), np.int64(4), tuple(np.arange(3)))
    assert box == BoxSpec((2, 3), 4, (0, 1, 2))
    assert {type(x) for x in (*box.dims, box.height, *box.offset)} == {int}
    rect = RectSpec(np.zeros(2, dtype=np.int64), np.array([2, 3]))
    assert rect == RectSpec((0, 0), (2, 3)) and rect.slab_box(1) == BoxSpec((2, 3), 2, (0, 0, -1))
