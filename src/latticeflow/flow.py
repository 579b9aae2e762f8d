"""Exact maximal flow from the bottom to the top face of a box.

Integer-unit capacities, a deterministic blocking-flow (Dinic) solver with a
super-source feeding the bottom face and a super-sink draining the top face,
minimum cuts extracted from residual reachability, stream validation, and
the decomposition of discrete streams into unit paths of the parallel-edge
expansion. That solver is the reference: it provides every cut and stream
certificate.

Value-only solves (``min_cut_value``) take faster routes. On d=2 boxes the
value is a shortest path in the planar dual. On d >= 3 boxes the faces and
the never-cut components are first merged into the source and the sink:
a finite cut keeps each merged class on one side, so the minimum is
unchanged, and the smaller graph has only finite arcs.

Edges may carry an explicit "never cut" marker instead of a finite capacity;
the solver treats such edges as impossible to saturate, which is how the
pinned-boundary cut problems are expressed without resorting to large
sentinel numbers.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush

import numpy as np

from .capacity import CapacityField, CapacityOverflowError
from .lattice import (
    BoxSpec,
    Edge,
    Point,
    box_vertices,
    edge_ids,
    edges_in_box,
    face_vertices,
)

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
        n = len(edges_in_box(self.box))
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
        n = len(edges_in_box(box))
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
    source_side: frozenset[Point]


@dataclass(eq=False)
class Violation:
    kind: str  # "capacity" or "balance"
    where: object  # Edge or Point
    amount: int


@dataclass(eq=False)
class _SolverGraph:
    index: dict[Point, int]
    to: list[int]
    adj: list[list[int]]
    edge_ends: list[tuple[int, int]]
    src: int
    snk: int
    n_lattice_arcs: int


@lru_cache(maxsize=None)
def _graph(box: BoxSpec) -> _SolverGraph:
    edges = edges_in_box(box)
    points = sorted({p for e in edges for p in (e.a, e.b)})
    index = {p: i for i, p in enumerate(points)}
    src = len(points)
    snk = src + 1
    to: list[int] = []
    adj: list[list[int]] = [[] for _ in range(len(points) + 2)]

    def add(u: int, v: int) -> None:
        a = len(to)
        to.append(v)
        adj[u].append(a)
        to.append(u)
        adj[v].append(a + 1)

    edge_ends = []
    for e in edges:
        u, v = index[e.a], index[e.b]
        edge_ends.append((u, v))
        add(u, v)
    n_lattice_arcs = len(to)
    for p in sorted(face_vertices(box, "bottom")):
        add(src, index[p])
    for p in sorted(face_vertices(box, "top")):
        add(index[p], snk)
    return _SolverGraph(index, to, adj, edge_ends, src, snk, n_lattice_arcs)


@lru_cache(maxsize=None)
def _inf_mask(box: BoxSpec, never_cut: frozenset[int]) -> tuple[bool, ...]:
    g = _graph(box)
    mask = [False] * len(g.to)
    for e in never_cut:
        mask[2 * e] = True
        mask[2 * e + 1] = True
    for a in range(g.n_lattice_arcs, len(g.to), 2):
        mask[a] = True  # artificial source/sink arcs are unbounded
    return tuple(mask)


def _dinic(to, adj, is_inf, cap, src, snk) -> int:
    """Blocking-flow maximal flow; mutates ``cap`` into the residual state."""
    n = len(adj)
    value = 0
    while True:
        level = [-1] * n
        level[src] = 0
        q = deque([src])
        while q:
            v = q.popleft()
            lv = level[v] + 1
            for a in adj[v]:
                w = to[a]
                if level[w] < 0 and (is_inf[a] or cap[a] > 0):
                    level[w] = lv
                    q.append(w)
        if level[snk] < 0:
            return value
        it = [0] * n
        while True:
            vstack = [src]
            astack: list[int] = []
            found = False
            while vstack:
                v = vstack[-1]
                if v == snk:
                    found = True
                    break
                moved = False
                arcs = adj[v]
                while it[v] < len(arcs):
                    a = arcs[it[v]]
                    w = to[a]
                    if level[w] == level[v] + 1 and (is_inf[a] or cap[a] > 0):
                        vstack.append(w)
                        astack.append(a)
                        moved = True
                        break
                    it[v] += 1
                if not moved:
                    vstack.pop()
                    if not astack:
                        break
                    level[v] = -1  # dead end this phase
                    astack.pop()
                    it[vstack[-1]] += 1
            if not found:
                break
            finite = [cap[a] for a in astack if not is_inf[a]]
            if not finite:
                raise PinningInfeasibleError(
                    "augmenting path of unbounded edges: no finite cut exists"
                )
            bottleneck = min(finite)
            for a in astack:
                if not is_inf[a]:
                    cap[a] -= bottleneck
                ra = a ^ 1
                if not is_inf[ra]:
                    cap[ra] += bottleneck
            value += bottleneck


def _check_field(box: BoxSpec, field: CapacityField) -> None:
    if field.box != box:
        raise ValueError("field does not cover this box")
    if field.total_units > MAX_TOTAL_UNITS:
        raise CapacityOverflowError("total capacity exceeds the 64-bit accumulator")


def solve_min_cut(
    box: BoxSpec, field: CapacityField, never_cut: frozenset[int] = frozenset()
) -> tuple[int, list[int], CutSet, frozenset[Point]]:
    """Core solve: value, residual arc capacities, canonical min cut, source side.

    The cut is the set of edges from the residual-reachable side of the
    super-source to its complement; edges in ``never_cut`` cannot appear.
    """
    _check_field(box, field)
    g = _graph(box)
    caps = field.caps.tolist()
    cap = [0] * len(g.to)
    for e, t in enumerate(caps):
        cap[2 * e] = t
        cap[2 * e + 1] = t
    is_inf = _inf_mask(box, never_cut)
    value = _dinic(g.to, g.adj, is_inf, cap, g.src, g.snk)

    seen = [False] * len(g.adj)
    seen[g.src] = True
    q = deque([g.src])
    while q:
        v = q.popleft()
        for a in g.adj[v]:
            w = g.to[a]
            if not seen[w] and (is_inf[a] or cap[a] > 0):
                seen[w] = True
                q.append(w)
    cut_ids = [e for e, (u, v) in enumerate(g.edge_ends) if seen[u] != seen[v]]
    weight = sum(caps[e] for e in cut_ids)
    if weight != value:
        raise RuntimeError("internal solver error: cut weight differs from flow value")
    source_side = frozenset(p for p, i in g.index.items() if seen[i])
    return value, cap, CutSet(frozenset(cut_ids), weight), source_side


def max_flow(box: BoxSpec, field: CapacityField) -> MaxFlowResult:
    """Exact maximal flow with a realising stream and a minimum-cut certificate."""
    value, cap, cut, source_side = solve_min_cut(box, field)
    n = len(edges_in_box(box))
    gvals = np.zeros(n, dtype=np.int64)
    orient = np.ones(n, dtype=np.int8)
    for e in range(n):
        f = (cap[2 * e + 1] - cap[2 * e]) // 2
        if f >= 0:
            gvals[e] = f
        else:
            gvals[e] = -f
            orient[e] = -1
    stream = Stream(box, field.resolution, gvals, orient)
    return MaxFlowResult(value, stream, cut, source_side)


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
    never-cut edges may not be crossed, so neither gets a dual edge. Edge
    ids do not depend on the offset, so the origin box stands for them all.
    """
    (k,) = dims
    box = BoxSpec(dims, height)

    def cell(gap: int, row: int) -> int:
        if gap < 0:
            return _LEFT
        return _RIGHT if gap == k - 1 else 2 + gap * height + row

    adj: list[list[tuple[int, int]]] = [[] for _ in range(2 + (k - 1) * height)]
    for i, e in enumerate(edges_in_box(box)):
        (x, z), (x2, _) = e.a, e.b
        if i in never_cut or z == height:
            continue
        if x == x2:  # vertical, in column x - 1 and row z
            u, v = cell(x - 2, z), cell(x - 1, z)
        else:  # horizontal at height z, in gap x - 1
            u, v = cell(x - 1, z - 1), cell(x - 1, z)
        adj[u].append((v, i))
        adj[v].append((u, i))
    return tuple(tuple(a) for a in adj)


def _dual_value(box: BoxSpec, field: CapacityField, never_cut: frozenset[int]) -> int:
    adj = _dual_adjacency(box.dims, box.height, never_cut)
    caps = field.caps.tolist()
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

    A union-find joins every bottom-face vertex into the source, every
    top-face vertex into the sink and the two ends of every never-cut edge.
    Nodes are the classes, the source first and the sink second. An edge
    inside one class drops out; any other becomes two opposite arcs, listed
    as ``nbrs[tail] = ((arc, head), ...)``, with ``arc_edge[arc]`` its edge
    id. Arcs ``a`` and ``a ^ 1`` are reverses. The origin box stands for
    every offset, as edge ids do not depend on it.
    """
    box = BoxSpec(dims, height)
    index: dict[Point, int] = {}
    ends = [
        (index.setdefault(e.a, len(index)), index.setdefault(e.b, len(index)))
        for e in edges_in_box(box)
    ]
    parent = list(range(len(index)))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    bottom = [index[p] for p in face_vertices(box, "bottom")]
    top = [index[p] for p in face_vertices(box, "top")]
    for face in (bottom, top):
        for v in face:
            parent[v] = face[0]
    for e in never_cut:
        u, v = ends[e]
        parent[find(u)] = find(v)
    root = [find(v) for v in range(len(index))]
    label = {root[bottom[0]]: _SOURCE}
    if label.setdefault(root[top[0]], _SINK) != _SINK:
        raise PinningInfeasibleError("never-cut edges join bottom to top: no finite cut exists")
    for r in root:
        label.setdefault(r, len(label))
    nbrs: list[list[tuple[int, int]]] = [[] for _ in label]
    arc_edge: list[int] = []
    for e, (u, v) in enumerate(ends):
        u, v = label[root[u]], label[root[v]]
        if u != v:
            nbrs[u].append((len(arc_edge), v))
            nbrs[v].append((len(arc_edge) + 1, u))
            arc_edge += (e, e)
    arcs = np.array(arc_edge, dtype=np.intp)
    arcs.setflags(write=False)
    return tuple(tuple(a) for a in nbrs), arcs


def _contracted_value(box: BoxSpec, field: CapacityField, never_cut: frozenset[int]) -> int:
    """Dinic on the contracted graph, whose arcs are all finite.

    Each phase labels nodes by residual distance to the sink, with a
    breadth-first search from the sink that stops at the source's level, so
    the path search from the source only walks arcs that lead one step
    closer to the sink. After each augmentation the search resumes from the
    tail of the first arc it saturated rather than from the source.
    """
    nbrs, arc_edge = _contracted(box.dims, box.height, never_cut)
    cap = field.caps[arc_edge].tolist()
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


def min_cut_value(
    box: BoxSpec, field: CapacityField, never_cut: frozenset[int] = frozenset()
) -> int:
    """Maximal flow value alone, without stream or cut certificates.

    For d=2 this is the cheapest left-wall-to-right-wall path in the planar
    dual (Itai & Shiloach 1979; Hassin 1981), found by Dijkstra. For d >= 3
    it is Dinic's blocking flow on the graph with the faces and never-cut
    components contracted. Both run on Python ints and so are exact at any
    total below the 64-bit contract, and both raise PinningInfeasibleError
    where the reference solver does.
    """
    _check_field(box, field)
    if value_solver(box.d) == "planar_dual":
        return _dual_value(box, field, never_cut)
    return _contracted_value(box, field, never_cut)


@lru_cache(maxsize=None)
def _top_vertical_ids(box: BoxSpec) -> tuple[int, ...]:
    ids = edge_ids(box)
    z = box.z_hi
    return tuple(ids[Edge(base + (z - 1,), base + (z,))] for base in box.base_points())


def flow_value(stream: Stream) -> int:
    """Net amount crossing into the top face, in integer units.

    This is the signed sum over the top layer of vertical edges, which for
    height 1 boxes reads the same edges the fluid entered through.
    """
    g = stream.g
    o = stream.orient
    return int(sum(int(g[e]) * int(o[e]) for e in _top_vertical_ids(stream.box)))


@lru_cache(maxsize=None)
def _incidence(box: BoxSpec) -> dict[Point, tuple[tuple[int, int], ...]]:
    inc: dict[Point, list[tuple[int, int]]] = defaultdict(list)
    for i, e in enumerate(edges_in_box(box)):
        inc[e.a].append((i, 1))
        inc[e.b].append((i, -1))
    return {p: tuple(v) for p, v in inc.items()}


def validate_stream(box: BoxSpec, field: CapacityField, stream: Stream) -> list[Violation]:
    """Every capacity violation and every unbalanced interior vertex.

    Balance is required at all box vertices below the top face; the bottom
    face feeds the box and the top face drains it, so neither is constrained.
    """
    if field.box != box or stream.box != box:
        raise ValueError("box, field and stream shapes must match")
    violations: list[Violation] = []
    edges = edges_in_box(box)
    caps = field.caps
    for i, e in enumerate(edges):
        excess = int(stream.g[i]) - int(caps[i])
        if excess > 0:
            violations.append(Violation("capacity", e, excess))
    inc = _incidence(box)
    z_top = box.z_hi
    for v in box_vertices(box):
        if v[-1] == z_top:
            continue
        net = 0
        for i, sign in inc[v]:
            net += int(stream.g[i]) * int(stream.orient[i]) * sign
        if net != 0:
            violations.append(Violation("balance", v, net))
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
    out: dict[Point, list[tuple[int, Point]]] = defaultdict(list)
    for i, e in enumerate(edges_in_box(box)):
        tail, head = (e.a, e.b) if stream.orient[i] > 0 else (e.b, e.a)
        out[tail].append((i, head))
    ptr: dict[Point, int] = defaultdict(int)
    top = face_vertices(box, "top")

    def next_step(v: Point) -> tuple[int, Point]:
        arcs = out[v]
        while ptr[v] < len(arcs):
            i, head = arcs[ptr[v]]
            if units[i] > 0:
                return i, head
            ptr[v] += 1  # exhausted arcs never refill
        raise RuntimeError("internal decomposition error: imbalance at " + repr(v))

    bottoms = sorted(face_vertices(box, "bottom"))
    paths: list[tuple[Point, ...]] = []
    b = 0
    for _ in range(n_paths):
        while b < len(bottoms) and all(units[i] == 0 for i, _ in out[bottoms[b]]):
            b += 1
        if b >= len(bottoms):
            raise RuntimeError("internal decomposition error: no unit leaves the bottom")
        v = bottoms[b]
        path = [v]
        pos = {v: 0}
        while v not in top:
            i, head = next_step(v)
            units[i] -= 1
            if head in pos:
                # loop closed: drop its units and resume from the repeat point
                for p in path[pos[head] + 1 :]:
                    del pos[p]
                del path[pos[head] + 1 :]
                v = head
            else:
                path.append(head)
                pos[head] = len(path) - 1
                v = head
        paths.append(tuple(path))
    return paths


def menger_count(box: BoxSpec, field: CapacityField) -> int:
    """Maximal number of edge-disjoint open paths from bottom to top.

    Requires a 0/1-valued field (capacities 0 or one full unit); equals the
    maximal flow divided by the resolution.
    """
    r = field.resolution
    if any(c not in (0, r) for c in field.caps.tolist()):
        raise ValueError("field must be 0/1-valued")
    return min_cut_value(box, field) // r
