"""Reference maximal-flow solver: blocking flow (Dinic) on the full box graph.

Test oracle for ``latticeflow.flow``. It keeps every lattice vertex, adds a
super-source feeding the bottom face and a super-sink draining the top face,
and marks the never-cut edges and the artificial face arcs as unbounded
instead of contracting them. The cut it returns is the set of edges leaving
the residual-reachable side of the super-source, the minimal minimum cut,
which every exact solver must reproduce.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from reference_lattice import face_vertices

from latticeflow.capacity import CapacityField
from latticeflow.flow import CutSet, PinningInfeasibleError
from latticeflow.lattice import BoxSpec, Point, edges_in_box


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


def solve_min_cut(
    box: BoxSpec, field: CapacityField, never_cut: frozenset[int] = frozenset()
) -> tuple[int, CutSet]:
    """Maximal flow value and the minimal minimum cut.

    The cut is the set of edges from the residual-reachable side of the
    super-source to its complement; edges in ``never_cut`` cannot appear.
    """
    assert field.box == box
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
    assert weight == value, "reference solver: cut weight differs from flow value"
    return value, CutSet(frozenset(cut_ids), weight)
