"""Per-layer metrics derived from the spans ``trace_cli.py`` writes.

A span is (function id, start ns, end ns, parent span index); a parent is
always recorded before its children. A layer's time is the duration of its
outermost spans, so nested calls within a layer are not counted twice, and
a span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import json
from pathlib import Path

GEOMETRY = frozenset({
    "lattice.edges_in_box", "lattice.edge_ids", "lattice.face_vertices",
    "lattice.box_vertices", "lattice.inner_boundary_edges",
})
SOLVE = frozenset({"flow.max_flow", "flow.solve_min_cut"})
REPLICA = frozenset({"estimators._psi_replica", "estimators._nu_replica"})
VERIFY_PROPERTIES = (
    "duality", "menger", "tau_subadditivity", "sandwich", "junction", "point_mass_identity",
)
# Tail percentiles in per mille, highest first.
_TAIL_LADDER = (999, 990, 900, 500)


class SpanTree:
    def __init__(self, path: Path):
        with open(path) as fh:
            raw = json.load(fh)
        self.import_s = raw["import_s"]
        self.shapes = raw["shapes"]
        names = raw["names"]
        spans = raw["spans"]
        self.fn = [names[s[0]] for s in spans]
        self.module = [f.split(".", 1)[0] for f in self.fn]
        self.dur_ms = [(s[2] - s[1]) / 1e6 for s in spans]
        self.parent = [s[3] for s in spans]

    def _covered(self, match: list[bool]) -> list[bool]:
        """covered[i]: span i or one of its ancestors matches."""
        covered = []
        for i, m in enumerate(match):
            p = self.parent[i]
            covered.append(m or (p >= 0 and covered[p]))
        return covered

    def _outside(self, match: list[bool]) -> list[bool]:
        """outside[i]: no proper ancestor of span i matches."""
        covered = self._covered(match)
        return [p < 0 or not covered[p] for p in self.parent]

    def outermost(self, fns=None, module=None) -> list[int]:
        match = [f in fns for f in self.fn] if fns else [m == module for m in self.module]
        return [i for i, ok in enumerate(self._outside(match)) if ok and match[i]]

    def durations(self, fns=None, module=None) -> list[float]:
        return [self.dur_ms[i] for i in self.outermost(fns, module)]

    def total_ms(self, fns=None, module=None) -> float:
        return sum(self.durations(fns, module))

    def nested_ms(self, outer_fns, inner_module: str) -> float:
        """Time in outermost ``inner_module`` spans that run inside ``outer_fns``."""
        in_outer = self._covered([f in outer_fns for f in self.fn])
        inner = [m == inner_module for m in self.module]
        outside_inner = self._outside(inner)
        return sum(
            self.dur_ms[i]
            for i, p in enumerate(self.parent)
            if inner[i] and outside_inner[i] and p >= 0 and in_outer[p]
        )

    def self_ms(self) -> list[float]:
        own = list(self.dur_ms)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.dur_ms[i]
        return own


def p50_and_tail(values: list[float]) -> tuple[float, float, float]:
    """Median, and the highest ladder percentile with at least ten values
    beyond it (nearest rank), with that percentile. Fewer than twenty
    values: the maximum, reported as percentile 100."""
    if not values:
        return 0.0, 0.0, 0.0
    v = sorted(values)
    n = len(v)

    def rank(per_mille: int) -> int:
        return -(-per_mille * n // 1000)

    for pm in _TAIL_LADDER:
        if n - rank(pm) >= 10:
            return v[rank(500) - 1], v[rank(pm) - 1], pm / 10
    return v[rank(500) - 1], v[-1], 100.0


def layer_metrics(traced: SpanTree, pool: SpanTree, workers: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric except ``trace.overhead``, as name -> (value, unit).

    ``traced`` is a fully traced one-worker run; ``pool`` traces only the
    replica map of the same command at the workload's worker count (it is
    ``traced`` itself for one-worker workloads).
    """
    main_ms = traced.total_ms({"cli.main"})
    self_times = traced.self_ms()
    out: dict[str, tuple[float, str]] = {}

    def dist(name: str, values: list[float]) -> None:
        p50, tail, pct = p50_and_tail(values)
        out[f"{name}.p50"] = (p50, "ms")
        out[f"{name}.tail"] = (tail, "ms")
        out[f"{name}.tail_pct"] = (pct, "%")

    out["cli.import_s"] = (traced.import_s, "s")
    out["cli.self_ms"] = (sum(t for t, m in zip(self_times, traced.module) if m == "cli"), "ms")

    out["lattice.geometry_ms"] = (traced.total_ms(GEOMETRY), "ms")
    out["lattice.shapes"] = (traced.shapes, "count")

    dist("capacity.sample_ms", traced.durations({"capacity.sample_field"}))
    out["capacity.discretize_ms"] = (traced.total_ms({"capacity.discretize"}), "ms")
    out["capacity.share"] = (traced.total_ms(module="capacity") / main_ms, "ratio")

    solves = traced.durations(SOLVE)
    dist("flow.solve_ms", solves)
    out["flow.calls"] = (len(solves), "count")
    out["flow.share"] = (traced.total_ms(module="flow") / main_ms, "ratio")

    tau_ms = traced.durations({"cuts.tau_slab"})
    dist("cuts.tau_ms", tau_ms)
    out["cuts.self_ms"] = (sum(tau_ms) - traced.nested_ms({"cuts.tau_slab"}, "flow"), "ms")
    out["cuts.subadditivity_ms"] = (traced.total_ms({"cuts.check_subadditivity"}), "ms")

    out["junction.stream_ms"] = (traced.total_ms({"junction.discrete_max_flow_stream"}), "ms")
    out["junction.join_ms"] = (traced.total_ms({"junction.join_streams"}), "ms")

    replicas = traced.outermost(REPLICA)
    replica_ms = [traced.dur_ms[i] for i in replicas]
    dist("estimators.replica_ms", replica_ms)
    per_replica = sum(self_times[i] for i in replicas) / len(replicas) if replicas else 0.0
    out["estimators.self_ms_per_replica"] = (per_replica, "ms")
    out["estimators.oracle_ms"] = (traced.total_ms({"estimators.exact_tail_probability"}), "ms")
    map_ms = pool.total_ms({"estimators._map_indices"})
    efficiency = sum(replica_ms) / (workers * map_ms) if map_ms else 0.0
    out["estimators.pool_efficiency"] = (efficiency, "ratio")

    for prop in VERIFY_PROPERTIES:
        out[f"verify.{prop}_s"] = (traced.total_ms({f"verify.check_{prop}"}) / 1e3, "s")
    return out
