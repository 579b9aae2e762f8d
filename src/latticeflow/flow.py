"""Exact maximal flow from the bottom to the top face of a box.

Integer-unit capacities, one deterministic blocking-flow (Dinic) solver,
minimum cuts extracted from residual reachability, stream validation, and
the decomposition of discrete streams into unit paths of the parallel-edge
expansion.

The solver first contracts the box graph: the bottom face becomes the
source, the top face the sink, and each never-cut component one node. A
finite cut keeps each merged class on one side, so minimum cuts are
unchanged, and the smaller graph has only finite arcs. ``min_cut_value``
returns the value alone, ``min_cut`` the minimum cut with the smallest
source side, and ``max_flow`` also a realising stream. On d=2 boxes the
value alone is a shortest path in the planar dual instead.

Edges may carry an explicit "never cut" marker instead of a finite capacity;
the solver merges the ends of such edges, which is how the pinned-boundary
cut problems are expressed without resorting to large sentinel numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush

import numpy as np

from .capacity import CapacityField, CapacityOverflowError
from .lattice import BoxSpec, Point, edge_ends, edges_in_box, vertex_points

MAX_TOTAL_UNITS = 2**63 - 1


class PinningInfeasibleError(RuntimeError):
    """No finite-weight cut exists once the uncuttable edges are excluded."""


@dataclass(eq=False)
class Stream:
    """Per-edge flow amounts in integer units, with orientations.

    ``orient[e]`` is +1 when fluid follows the canonical low-to-high
    direction of edge e and -1 otherwise. Edges with g == 0 carry the
    default orientation +1 (lexicographic tail < head).
    """

    box: BoxSpec
    resolution: int
    g: np.ndarray
    orient: np.ndarray

    def __post_init__(self) -> None:
        g = np.array(self.g, dtype=np.int64, copy=True)
        orient = np.array(self.orient, dtype=np.int8, copy=True)
        n = self.box.edge_count
        if g.shape != (n,) or orient.shape != (n,):
            raise ValueError("stream arrays must have one entry per box edge")
        if n and int(g.min()) < 0:
            raise ValueError("flow amounts must be non-negative")
        if n and not set(np.unique(orient).tolist()) <= {-1, 1}:
            raise ValueError("orientations must be +1 or -1")
        g.setflags(write=False)
        orient.setflags(write=False)
        self.g = g
        self.orient = orient

    @classmethod
    def zero(cls, box: BoxSpec, resolution: int) -> "Stream":
        n = box.edge_count
        return cls(box, resolution, np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int8))


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


def _check_total(caps: list[int]) -> None:
    if sum(caps) > MAX_TOTAL_UNITS:
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
    crossable[list(never_cut)] = False
    kept = np.flatnonzero(crossable)

    def cell(gap: np.ndarray, row: np.ndarray) -> np.ndarray:
        return np.where(gap < 0, _LEFT, np.where(gap == k - 1, _RIGHT, 2 + gap * height + row))

    u, v = cell(gap[kept], row[kept]), cell(col[kept], z[kept])
    return _grouped(_interleave(u, v), _interleave(v, u), np.repeat(kept, 2), 2 + (k - 1) * height)


def _dual_value(adj: tuple, caps: list[int]) -> int:
    """Cheapest left-to-right path through the ``_dual_adjacency`` graph ``adj``."""
    dist = [math.inf] * len(adj)
    dist[_LEFT] = 0
    heap = [(0, _LEFT)]
    while heap:
        d, v = heappop(heap)
        if v == _RIGHT:
            return d
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

    never = list(never_cut)
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
    return "planar_dual" if d == 2 else "contracted_dinic"


def _values(box: BoxSpec, rows: np.ndarray, never_cut: frozenset[int]) -> list[int]:
    """``min_cut_value`` of each row of a (replicas, edges) int64 array of
    non-negative capacities on ``box``, turned into Python ints row by row.

    Exact totals are summed only when the largest capacity times the row
    width could pass the 64-bit bound.
    """
    if rows.size and int(rows.max()) * rows.shape[1] > MAX_TOTAL_UNITS:
        for row in rows:
            _check_total(row.tolist())
    if value_solver(box.d) == "planar_dual":
        adj = _dual_adjacency(box.dims, box.height, never_cut)
        return [_dual_value(adj, row.tolist()) for row in rows]
    nbrs, arc_edge = _contracted(box.dims, box.height, never_cut)
    return [_contracted_flow(nbrs, row[arc_edge].tolist()) for row in rows]


def min_cut_value(
    box: BoxSpec, field: CapacityField, never_cut: frozenset[int] = frozenset()
) -> int:
    """Maximal flow value alone, without stream or cut certificates.

    For d=2 this is the cheapest left-wall-to-right-wall path in the planar
    dual (Itai & Shiloach 1979; Hassin 1981), found by Dijkstra. For d >= 3
    it is Dinic's blocking flow on the graph with the faces and never-cut
    components contracted. Both run on Python ints and so are exact at any
    total below the 64-bit contract, and both raise PinningInfeasibleError
    when the never-cut edges join bottom to top.
    """
    if field.box != box:
        raise ValueError("field does not cover this box")
    return _values(box, field.caps[None], never_cut)[0]


def _flow_and_cut(
    box: BoxSpec, field: CapacityField, never_cut: frozenset[int]
) -> tuple[list[int], np.ndarray, CutSet]:
    """Residual arc capacities of a maximal flow, the edge of each arc, and
    the flow's source-side cut.

    The cut is every edge from a class the residual graph reaches from the
    source to one it does not. That reachable set is the same for every
    maximal flow (Picard & Queyranne 1980), so the cut is the minimum cut
    with the smallest source side whichever flow Dinic found.
    """
    if field.box != box:
        raise ValueError("field does not cover this box")
    caps = field.caps.tolist()
    _check_total(caps)
    nbrs, arc_edge = _contracted(box.dims, box.height, never_cut)
    cap = field.caps[arc_edge].tolist()
    value = _contracted_flow(nbrs, cap)
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
    weight = sum(caps[e] for e in cut_ids)
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
    return _flow_and_cut(box, field, never_cut)[2]


def max_flow(box: BoxSpec, field: CapacityField) -> MaxFlowResult:
    """Exact maximal flow with a realising stream and a minimum-cut certificate.

    Edges inside a contracted face carry no flow.
    """
    cap, arc_edge, cut = _flow_and_cut(box, field, frozenset())
    flow = np.zeros(box.edge_count, dtype=np.int64)
    flow[arc_edge[::2]] = [(cap[a + 1] - cap[a]) // 2 for a in range(0, len(cap), 2)]
    stream = Stream(box, field.resolution, np.abs(flow), np.where(flow < 0, -1, 1))
    return MaxFlowResult(cut.weight, stream, cut)


def flow_value(stream: Stream) -> int:
    """Net amount crossing into the top face, in integer units.

    This is the signed sum over the top layer of vertical edges, which for
    height 1 boxes reads the same edges the fluid entered through.
    """
    height = stream.box.height
    tail, head = edge_ends(stream.box.dims, height)
    top = np.flatnonzero((head == tail + 1) & (head % (height + 1) == height))
    return sum(g * o for g, o in zip(stream.g[top].tolist(), stream.orient[top].tolist()))


def _unbalanced(stream: Stream) -> list[tuple[Point, int]]:
    """``(vertex, net outflow)`` at every box vertex below the top face where
    the stream does not balance; the bottom face feeds the box and the top
    face drains it, so neither is constrained. Sums run on Python ints."""
    box = stream.box
    tail, head = edge_ends(box.dims, box.height)
    levels = box.height + 1
    net = [0] * (box.base_area * levels)
    for t, h, g, o in zip(tail.tolist(), head.tolist(), stream.g.tolist(), stream.orient.tolist()):
        net[t] += g * o
        net[h] -= g * o
    bad = [v for v, x in enumerate(net) if x and 0 < v % levels < box.height]
    points = vertex_points(box) if bad else []
    return [(points[v], net[v]) for v in bad]


def validate_stream(box: BoxSpec, field: CapacityField, stream: Stream) -> list[Violation]:
    """Every capacity violation and every unbalanced vertex below the top face."""
    if field.box != box or stream.box != box:
        raise ValueError("box, field and stream shapes must match")
    violations = [
        Violation("capacity", edges_in_box(box)[i], int(stream.g[i]) - int(field.caps[i]))
        for i in np.flatnonzero(stream.g > field.caps).tolist()
    ]
    violations += [Violation("balance", v, net) for v, net in _unbalanced(stream)]
    return violations


def decompose_paths(box: BoxSpec, stream: Stream, k: int) -> list[tuple[Point, ...]]:
    """Peel a level-k stream into unit paths of the parallel-edge expansion.

    Each edge e stands for g(e)*k/R parallel unit copies. The peeling walks
    units from the bottom face until the top face is first reached, excising
    any loop it closes; excised and leftover units are discarded residual
    circulation. Exactly k*flow/R paths are returned and each uses a copy of
    an edge at most once.
    """
    if k < 1 or stream.resolution % k:
        raise ValueError("k must divide the stream resolution")
    step = stream.resolution // k
    g = stream.g.tolist()
    if any(x % step for x in g):
        raise ValueError(f"stream is not discrete at level {k}")
    total = flow_value(stream)
    if total < 0:
        raise ValueError("stream has negative flow")
    n_paths = (total * k) // stream.resolution

    units = [x // step for x in g]
    levels = box.height + 1
    n_vertices = box.base_area * levels
    tail, head = edge_ends(box.dims, box.height)
    back = stream.orient < 0
    out = _grouped(np.where(back, head, tail), np.arange(len(g)), np.where(back, tail, head), n_vertices)
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
