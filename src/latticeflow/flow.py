"""Exact maximal flow from the bottom to the top face of a box.

Integer-unit capacities, exact maximal-flow solvers, minimum cuts
extracted from residual reachability, stream validation, and the
decomposition of discrete streams into unit paths of the parallel-edge
expansion. A stream is one signed int64 array over the box edges: the net
flow along each edge's tail-to-head direction.

The solvers first contract the box graph: the bottom face becomes the
source, the top face the sink, and each component of "never cut" edges one
node, so pinned cuts need no sentinel capacities. A finite cut keeps each
merged class on one side, so minimum cuts are unchanged, and the smaller
graph has only finite arcs. ``min_cut_value`` returns the value alone, from
Boykov–Kolmogorov search trees, or on d=2 boxes a shortest path in the
planar dual. ``min_cut`` returns the minimum cut with the smallest source
side, the same for every maximal flow, so the search trees find it too.
``max_flow`` also returns a realising stream, which depends on the flow
found; golden digests pin the one Dinic's blocking flow finds, so it keeps
Dinic. Whether a flow reaches a threshold often needs no solve: the
disjoint straight columns carry the sum of their minima, and each layer of
vertical edges is a cut. ``_reached`` solves only the rows these bounds
leave open, capped at the largest threshold the row's upper bound reaches.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush

import numpy as np

from .capacity import CapacityField, CapacityOverflowError, _check_resolution, _level_step, int64_copy
from .lattice import BoxSpec, Point, edge_ends, edges_in_box, vertex_points, vertical_edges

MAX_TOTAL_UNITS = 2**63 - 1


class PinningInfeasibleError(RuntimeError):
    """No finite-weight cut exists once the uncuttable edges are excluded."""


@dataclass(eq=False)
class Stream:
    """Per-edge net flow in integer units.

    ``flow[e]`` is signed along edge e's canonical direction, from its tail
    to its head (the lexicographically smaller end to the larger): positive
    when fluid runs that way, negative when it runs back and 0 on an edge
    that carries none. The array is a read-only int64 copy.
    """

    box: BoxSpec
    resolution: int
    flow: np.ndarray

    def __post_init__(self) -> None:
        _check_resolution(self.resolution)
        flow = int64_copy(self.flow, "flows")
        if flow.shape != (self.box.edge_count,):
            raise ValueError("the flow array must have one entry per box edge")
        self.flow = flow


@dataclass(frozen=True)
class CutSet:
    """A set of edges (by id) together with its total capacity in units."""

    edge_ids: frozenset[int]
    weight: int


@dataclass(eq=False)
class MaxFlowResult:
    value: int
    stream: Stream
    min_cut: CutSet


@dataclass(eq=False)
class Violation:
    kind: str  # "capacity" or "balance"
    where: object  # Edge or Point
    amount: int


def _check_totals(rows: np.ndarray) -> None:
    """Raise CapacityOverflowError when a row of a (rows, edges) int64 array
    of non-negative capacities sums past the 64-bit bound.

    Exact totals are summed only when the largest capacity times the row
    width could pass the bound.
    """
    if rows.size and int(rows.max()) * rows.shape[1] > MAX_TOTAL_UNITS:
        if any(sum(row.tolist()) > MAX_TOTAL_UNITS for row in rows):
            raise CapacityOverflowError("total capacity exceeds the 64-bit accumulator")


def _grouped(keys: np.ndarray, first: np.ndarray, second: np.ndarray, n: int):
    """``out[k]`` holds the pairs ``(first[j], second[j])`` with ``keys[j] == k``,
    in increasing j, for every k < n."""
    order = np.argsort(keys, kind="stable")
    pairs = list(zip(first[order].tolist(), second[order].tolist()))
    ends = np.cumsum(np.bincount(keys, minlength=n)).tolist()
    return tuple(tuple(pairs[lo:hi]) for lo, hi in zip([0] + ends, ends))


def _interleave(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x[0], y[0], x[1], y[1], ...``"""
    out = np.empty(2 * len(x), dtype=x.dtype)
    out[::2], out[1::2] = x, y
    return out


def _edge_list(never_cut: frozenset[int], edge_count: int) -> list[int]:
    """The never-cut ids as a list; raises ValueError unless each is a box edge."""
    never = list(never_cut)
    if not all(0 <= e < edge_count for e in never):
        raise ValueError(f"never-cut edge ids must lie in [0, {edge_count})")
    return never


_LEFT, _RIGHT = 0, 1


@lru_cache(maxsize=16)
def _dual_adjacency(
    dims: tuple[int, ...], height: int, never_cut: frozenset[int]
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Planar dual of a d=2 box as ``adj[node] = ((neighbour, edge id), ...)``.

    Nodes are the left wall, the right wall and one cell per (gap between
    adjacent columns, unit row). Vertical edges join the cells on their two
    sides; horizontal edges below the top face join the cells below and
    above them. Top-row horizontal edges lie inside the contracted sink and
    never-cut edges may not be crossed, so neither gets a dual edge. Each
    node lists its dual edges in edge-id order.
    """
    (k,) = dims
    tail, head = edge_ends(dims, height)
    col, z = np.divmod(tail, height + 1)
    vertical = head == tail + 1
    # a vertical edge in column col separates gaps col - 1 and col in row z;
    # a horizontal edge at z-index z in gap col separates rows z - 1 and z
    gap = np.where(vertical, col - 1, col)
    row = np.where(vertical, z, z - 1)
    crossable = z < height
    crossable[_edge_list(never_cut, len(tail))] = False
    kept = np.flatnonzero(crossable)

    def cell(gap: np.ndarray, row: np.ndarray) -> np.ndarray:
        return np.where(gap < 0, _LEFT, np.where(gap == k - 1, _RIGHT, 2 + gap * height + row))

    u, v = cell(gap[kept], row[kept]), cell(col[kept], z[kept])
    return _grouped(_interleave(u, v), _interleave(v, u), np.repeat(kept, 2), 2 + (k - 1) * height)


def _dual_value(adj: tuple, caps: list[int], limit=math.inf) -> int:
    """Cheapest left-to-right path through the ``_dual_adjacency`` graph ``adj``, capped at ``limit``."""
    dist = [math.inf] * len(adj)
    dist[_LEFT] = 0
    heap = [(0, _LEFT)]
    while heap:
        d, v = heappop(heap)
        if v == _RIGHT or d >= limit:  # popped distances never decrease
            return min(d, limit)
        if d > dist[v]:
            continue
        for w, e in adj[v]:
            nd = d + caps[e]
            if nd < dist[w]:
                dist[w] = nd
                heappush(heap, (nd, w))
    raise PinningInfeasibleError("never-cut edges join bottom to top: no finite cut exists")


_SOURCE, _SINK = 0, 1


@lru_cache(maxsize=16)
def _contracted(
    dims: tuple[int, ...], height: int, never_cut: frozenset[int]
) -> tuple[tuple[tuple[tuple[int, int], ...], ...], np.ndarray]:
    """The box graph with its uncuttable parts merged, as ``(nbrs, arc_edge)``.

    A union-find over the ``edge_ends`` vertices joins every bottom-face
    vertex into the source, every top-face vertex into the sink and the two
    ends of every never-cut edge. Nodes are the classes, the source first
    and the sink second. An edge inside one class drops out; any other
    becomes two opposite arcs, listed in arc order as
    ``nbrs[tail] = ((arc, head), ...)``, with ``arc_edge[arc]`` its edge id.
    Arcs ``a`` and ``a ^ 1`` are reverses, each even arc runs from the class
    of its edge's tail to that of its head, and arcs follow edge-id order.
    """
    tail, head = edge_ends(dims, height)
    levels = height + 1
    parent = np.arange(math.prod(dims) * levels)
    parent[::levels] = 0  # vertex 0 is on the bottom face
    parent[height::levels] = height  # and vertex ``height`` on the top face
    parent = parent.tolist()

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    never = _edge_list(never_cut, len(tail))
    for u, v in zip(tail[never].tolist(), head[never].tolist()):
        parent[find(u)] = find(v)
    root = [find(v) for v in range(len(parent))]
    label = {root[0]: _SOURCE}
    if label.setdefault(root[height], _SINK) != _SINK:
        raise PinningInfeasibleError("never-cut edges join bottom to top: no finite cut exists")
    for r in root:
        label.setdefault(r, len(label))
    node = np.array([label[r] for r in root])
    u, v = node[tail], node[head]
    kept = np.flatnonzero(u != v)
    u, v = u[kept], v[kept]
    nbrs = _grouped(_interleave(u, v), np.arange(2 * len(kept)), _interleave(v, u), len(label))
    arcs = np.repeat(kept, 2)
    arcs.setflags(write=False)
    return nbrs, arcs


def _bk_flow(nbrs: tuple, cap: list[int], limit=math.inf) -> int:
    """Boykov–Kolmogorov search trees on the ``_contracted`` graph ``nbrs``.

    As ``_contracted_flow``, but returns ``limit`` once the value reaches it.
    A source and a sink tree grow until an arc joins them, and persist
    across augmentations (Boykov & Kolmogorov 2004): a node whose tree arc
    saturates adopts a neighbour still rooted at its terminal, or leaves.
    Each terminal scans its arcs once, resuming at its last join. The arcs it
    passed stay useless: a terminal is active only at the start (an orphan with
    a residual arc from it re-adopts it), and its residual arcs only shrink.
    """
    tree = [1, -1] + [0] * (len(nbrs) - 2)  # the source's tree, the sink's, or none
    # parent node (-1 at a terminal, -2 at an orphan); tree arc, directed source to sink
    parent, up = [-1] * len(nbrs), [-1] * len(nbrs)
    resume = [0, 0]  # the arc index where the source's and the sink's next scan starts
    active, value = deque([_SOURCE, _SINK]), 0
    while active:
        p = active[0]
        t = tree[p]
        flip = t < 0
        arcs = nbrs[p] if t else ()
        for a, q in map(arcs.__getitem__, range(resume[p], len(arcs))) if p <= _SINK else arcs:
            tq = tree[q]
            if tq != t and cap[a ^ flip]:  # a residual arc leaving the tree
                if tq:
                    break
                tree[q], parent[q], up[q] = t, p, a ^ flip
                active.append(q)
        else:
            active.popleft()
            continue
        if p <= _SINK:
            resume[p] = arcs.index((a, q), resume[p])
        path, push = [(-1, a ^ flip)], cap[a ^ flip]  # (child, tree arc), the joining arc first
        for v in (p, q):
            while parent[v] >= 0:
                b = up[v]
                path.append((v, b))
                if cap[b] < push:
                    push = cap[b]
                v = parent[v]
        value += push
        if value >= limit:
            return limit
        orphans = []
        for v, b in path:
            cap[b] -= push
            cap[b ^ 1] += push
            if not cap[b] and v >= 0:
                parent[v] = -2
                orphans.append(v)
        while orphans:
            o = orphans.pop()
            t = tree[o]
            back = t > 0
            for a, q in nbrs[o]:
                if tree[q] == t and cap[a ^ back]:  # q may be o's parent
                    v = q
                    while parent[v] >= 0:
                        v = parent[v]
                    if parent[v] == -1:
                        parent[o], up[o] = q, a ^ back
                        break
            else:
                tree[o] = 0
                for a, q in nbrs[o]:
                    if tree[q] == t and parent[q] == o:
                        parent[q] = -2
                        orphans.append(q)
                    if tree[q] == t and cap[a ^ back]:
                        active.append(q)
    return value


def _contracted_flow(nbrs: tuple, cap: list[int]) -> int:
    """Dinic on the ``_contracted`` graph ``nbrs``, whose arcs are all finite.

    ``cap[a]`` is the capacity of arc ``a``. Returns the maximal flow value
    and leaves ``cap`` holding the residual capacities; arc ``a`` then
    carries ``(cap[a ^ 1] - cap[a]) // 2`` units along its direction.

    Each phase labels nodes by residual distance to the sink, with a
    breadth-first search from the sink that stops at the source's level, so
    the path search from the source only walks arcs that lead one step
    closer to the sink. After each augmentation the search resumes from the
    tail of the first arc it saturated rather than from the source.
    """
    n = len(nbrs)
    value = 0
    while True:
        dist = [-1] * n
        dist[_SINK] = 0
        frontier = [_SINK]
        while frontier and dist[_SOURCE] < 0:
            found = []
            for w in frontier:
                for b, v in nbrs[w]:
                    if dist[v] < 0 and cap[b ^ 1]:  # arc b ^ 1 runs from v to w
                        dist[v] = dist[w] + 1
                        found.append(v)
            frontier = found
        if dist[_SOURCE] < 0:
            return value
        it = [0] * n
        verts = [_SOURCE]
        path: list[int] = []  # path[j] is the arc out of verts[j]
        while verts:
            v = verts[-1]
            arcs = nbrs[v]
            i, end, closer = it[v], len(arcs), dist[v] - 1
            while i < end:
                a, w = arcs[i]
                if dist[w] == closer and cap[a]:
                    break
                i += 1
            it[v] = i
            if i == end:  # dead end for the rest of this phase
                dist[v] = -1
                verts.pop()
                if path:
                    path.pop()
                    it[verts[-1]] += 1
                continue
            path.append(a)
            if w != _SINK:
                verts.append(w)
                continue
            push = min([cap[a] for a in path])
            value += push
            for a in path:
                cap[a] -= push
                cap[a ^ 1] += push
            first = next(j for j, a in enumerate(path) if not cap[a])
            del path[first:], verts[first + 1 :]


def value_solver(d: int) -> str:
    """Name of the algorithm ``min_cut_value`` runs on d-dimensional boxes."""
    return "planar_dual" if d == 2 else "search_trees"


def _values(box: BoxSpec, rows: np.ndarray, never_cut: frozenset[int], limits=None) -> list[int]:
    """``min_cut_value`` of each row of a (replicas, edges) int64 array of
    non-negative capacities on ``box``, capped at ``limits[i]`` for row i if given."""
    _check_totals(rows)
    limits = limits or [math.inf] * len(rows)
    if value_solver(box.d) == "planar_dual":
        adj = _dual_adjacency(box.dims, box.height, never_cut)
        return [_dual_value(adj, row.tolist(), lim) for row, lim in zip(rows, limits)]
    nbrs, arc_edge = _contracted(box.dims, box.height, never_cut)
    return [_bk_flow(nbrs, row[arc_edge].tolist(), lim) for row, lim in zip(rows, limits)]


def _bounds(box: BoxSpec, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flow bounds of each row: the sum of column minima, the lightest layer of vertical edges."""
    columns = rows[:, vertical_edges(box.dims, box.height)]
    return columns.min(axis=2).sum(axis=1), columns.sum(axis=1).min(axis=1)


def _reached(box: BoxSpec, rows: np.ndarray, thresholds: list[int]) -> tuple[np.ndarray, int]:
    """How many of the sorted ``thresholds`` the ``min_cut_value`` of each row
    reaches, and how many rows needed a solve; see the module docstring."""
    _check_totals(rows)
    # no row total exceeds MAX_TOTAL_UNITS now, so no flow reaches a larger threshold
    grid = np.array([t for t in thresholds if t <= MAX_TOTAL_UNITS], dtype=np.int64)
    counts, top = np.searchsorted(grid, _bounds(box, rows), side="right")
    undecided = np.flatnonzero(counts < top)
    capped = _values(box, rows[undecided], frozenset(), grid[top[undecided] - 1].tolist())
    counts[undecided] = np.searchsorted(grid, capped, side="right")
    return counts, len(undecided)


def min_cut_value(
    box: BoxSpec, field: CapacityField, never_cut: frozenset[int] = frozenset()
) -> int:
    """Maximal flow value alone, without stream or cut certificates.

    For d=2 this is the cheapest left-wall-to-right-wall path in the planar
    dual (Itai & Shiloach 1979; Hassin 1981), found by Dijkstra; for d >= 3
    the search-tree flow on the contracted graph. Both run on Python ints,
    so both are exact at any total below the 64-bit contract, and both raise
    PinningInfeasibleError when the never-cut edges join bottom to top.
    """
    if field.box != box:
        raise ValueError("field does not cover this box")
    return _values(box, field.caps[None], never_cut)[0]


def _flow_and_cut(
    box: BoxSpec, field: CapacityField, never_cut: frozenset[int], solve
) -> tuple[list[int], np.ndarray, CutSet]:
    """Residual arc capacities of a maximal flow, the edge of each arc, and
    the flow's source-side cut.

    The cut is every edge from a class the residual graph reaches from the
    source to one it does not. That reachable set is the same for every
    maximal flow (Picard & Queyranne 1980), so the cut is the minimum cut
    with the smallest source side whichever maximal flow ``solve`` found.
    """
    if field.box != box:
        raise ValueError("field does not cover this box")
    _check_totals(field.caps[None])
    nbrs, arc_edge = _contracted(box.dims, box.height, never_cut)
    cap = field.caps[arc_edge].tolist()
    value = solve(nbrs, cap)
    reached = [False] * len(nbrs)
    reached[_SOURCE] = True
    todo = [_SOURCE]
    while todo:
        for a, w in nbrs[todo.pop()]:
            if cap[a] and not reached[w]:
                reached[w] = True
                todo.append(w)
    cut_ids = frozenset(
        int(arc_edge[a])
        for v, arcs in enumerate(nbrs)
        if reached[v]
        for a, w in arcs
        if not reached[w]
    )
    weight = sum(field.caps[list(cut_ids)].tolist())
    if weight != value:
        raise RuntimeError("internal solver error: cut weight differs from flow value")
    return cap, arc_edge, CutSet(cut_ids, weight)


def min_cut(
    box: BoxSpec, field: CapacityField, never_cut: frozenset[int] = frozenset()
) -> CutSet:
    """Minimum cut with the smallest source side; no edge of ``never_cut`` is in it.

    Its weight is the maximal flow value. Raises PinningInfeasibleError when
    the never-cut edges join bottom to top.
    """
    return _flow_and_cut(box, field, never_cut, _bk_flow)[2]


def max_flow(box: BoxSpec, field: CapacityField) -> MaxFlowResult:
    """Exact maximal flow with a realising stream and a minimum-cut certificate.

    Edges inside a contracted face carry no flow.
    """
    cap, arc_edge, cut = _flow_and_cut(box, field, frozenset(), _contracted_flow)
    flow = np.zeros(box.edge_count, dtype=np.int64)
    flow[arc_edge[::2]] = [(cap[a + 1] - cap[a]) // 2 for a in range(0, len(cap), 2)]
    return MaxFlowResult(cut.weight, Stream(box, field.resolution, flow), cut)


def flow_value(stream: Stream) -> int:
    """Net amount crossing into the top face, in integer units.

    This is the signed sum over the top layer of vertical edges, which for
    height 1 boxes reads the same edges the fluid entered through.
    """
    top = vertical_edges(stream.box.dims, stream.box.height)[:, -1]
    return sum(stream.flow[top].tolist())


def _unbalanced(stream: Stream) -> list[tuple[Point, int]]:
    """``(vertex, net outflow)`` at every box vertex below the top face where
    the stream does not balance; the bottom face feeds the box and the top
    face drains it, so neither is constrained. Sums run on Python ints."""
    box = stream.box
    tail, head = edge_ends(box.dims, box.height)
    levels = box.height + 1
    net = [0] * (box.base_area * levels)
    for t, h, x in zip(tail.tolist(), head.tolist(), stream.flow.tolist()):
        net[t] += x
        net[h] -= x
    bad = [v for v, x in enumerate(net) if x and 0 < v % levels < box.height]
    points = vertex_points(box) if bad else []
    return [(points[v], net[v]) for v in bad]


def validate_stream(box: BoxSpec, field: CapacityField, stream: Stream) -> list[Violation]:
    """Every capacity violation and every unbalanced vertex below the top face."""
    if field.box != box or stream.box != box:
        raise ValueError("box, field and stream shapes must match")
    if field.resolution != stream.resolution:
        raise ValueError("resolutions differ")
    flow, caps = stream.flow, field.caps
    over = np.flatnonzero((flow > caps) | (flow < -caps)).tolist()
    edges = edges_in_box(box) if over else ()
    violations = [Violation("capacity", edges[i], abs(int(flow[i])) - int(caps[i])) for i in over]
    violations += [Violation("balance", v, net) for v, net in _unbalanced(stream)]
    return violations


def decompose_paths(box: BoxSpec, stream: Stream, k: int) -> list[tuple[Point, ...]]:
    """Peel a level-k stream into unit paths of the parallel-edge expansion.

    Each edge e stands for |flow(e)|*k/R parallel unit copies, walked
    against the edge where its flow is negative. The peeling walks units
    from the bottom face until the top face is first reached, excising any
    loop it closes; excised and leftover units are discarded residual
    circulation. Exactly k*flow/R paths are returned and each uses a copy of
    an edge at most once.
    """
    if stream.box != box:
        raise ValueError("stream does not cover this box")
    step = _level_step(k, stream.resolution)  # k divides R exactly when it passes
    flow = stream.flow.tolist()
    if any(x % step for x in flow):
        raise ValueError(f"stream is not discrete at level {k}")
    total = flow_value(stream)
    if total < 0:
        raise ValueError("stream has negative flow")
    n_paths = (total * k) // stream.resolution

    units = [abs(x) // step for x in flow]
    levels = box.height + 1
    n_vertices = box.base_area * levels
    tail, head = edge_ends(box.dims, box.height)
    back = stream.flow < 0
    out = _grouped(np.where(back, head, tail), np.arange(len(flow)), np.where(back, tail, head), n_vertices)
    ptr = [0] * n_vertices
    points = vertex_points(box)

    def next_step(v: int) -> tuple[int, int]:
        arcs = out[v]
        while ptr[v] < len(arcs):
            i, w = arcs[ptr[v]]
            if units[i] > 0:
                return i, w
            ptr[v] += 1  # exhausted arcs never refill
        raise RuntimeError("internal decomposition error: imbalance at " + repr(points[v]))

    bottoms = range(0, n_vertices, levels)
    paths: list[list[int]] = []
    b = 0
    for _ in range(n_paths):
        while b < len(bottoms) and all(units[i] == 0 for i, _ in out[bottoms[b]]):
            b += 1
        if b >= len(bottoms):
            raise RuntimeError("internal decomposition error: no unit leaves the bottom")
        v = bottoms[b]
        path = [v]
        pos = {v: 0}
        while v % levels != box.height:
            i, w = next_step(v)
            units[i] -= 1
            if w in pos:
                # loop closed: drop its units and resume from the repeat point
                for p in path[pos[w] + 1 :]:
                    del pos[p]
                del path[pos[w] + 1 :]
            else:
                path.append(w)
                pos[w] = len(path) - 1
            v = w
        paths.append(path)
    return [tuple(points[v] for v in path) for path in paths]


def menger_count(box: BoxSpec, field: CapacityField) -> int:
    """Maximal number of edge-disjoint open paths from bottom to top.

    Requires a 0/1-valued field (capacities 0 or one full unit); equals the
    maximal flow divided by the resolution.
    """
    r = field.resolution
    if any(c not in (0, r) for c in field.caps.tolist()):
        raise ValueError("field must be 0/1-valued")
    return min_cut_value(box, field) // r
