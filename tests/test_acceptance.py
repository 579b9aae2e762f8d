"""Acceptance suite: one test per criterion, at the stated size and tolerance.

Each test prints one PASS line on success; a failed assertion marks the
criterion red. Oracles used here are local to this module and independent
of the solver code paths they check.
"""

import itertools
import json
import math
import time
from collections import defaultdict, deque
from fractions import Fraction

import numpy as np
from reference_lattice import edge_ids

from latticeflow import verify
from latticeflow.capacity import (
    DEFAULT_RESOLUTION,
    CapacityField,
    DistributionSpec,
    derive_seed,
    discretize,
    sample_field,
)
from latticeflow.cli import EXIT_OK, main
from latticeflow.cuts import check_subadditivity
from latticeflow.estimators import (
    estimate_nu,
    estimate_psi,
    estimate_psi_sweep,
    exact_tail_probability,
    psi_curve_diagnostics,
    wilson_interval,
)
from latticeflow.flow import flow_value, max_flow, menger_count, validate_stream
from latticeflow.junction import (
    discrete_max_flow_stream,
    flip_vertical,
    flip_vertical_field,
    join_streams,
    merge_stacked_fields,
    translate_field,
    translate_stream,
)
from latticeflow.lattice import (
    BoxSpec,
    Edge,
    RectSpec,
    edges_in_box,
    face_vertices,
)

R = DEFAULT_RESOLUTION
BERN09 = DistributionSpec.bernoulli("0.9", 0, 1)
BERN09_JSON = {"kind": "bernoulli", "p": "0.9", "lo": 0, "hi": 1}

MIXED = (
    DistributionSpec.bernoulli("0.5", 0, 1),
    DistributionSpec.finite_discrete([("0", "0.25"), ("0.5", "0.25"), ("1", "0.5")]),
    DistributionSpec.uniform(0, 1),
    DistributionSpec.exponential(1.0),
)


def _ok(num, name, detail):
    print(f"ACCEPTANCE {num} ({name}): PASS [{detail}]")


def _cut_disconnects(box, removed):
    adj = defaultdict(list)
    for i, e in enumerate(edges_in_box(box)):
        if i in removed:
            continue
        adj[e.a].append(e.b)
        adj[e.b].append(e.a)
    top = face_vertices(box, "top")
    seen = set(face_vertices(box, "bottom"))
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        if v in top:
            return False
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return True


def test_criterion_1_duality():
    start = time.time()
    rng = np.random.Generator(np.random.Philox(key=10001))
    trials = 200
    for t in range(trials):
        d = int(rng.integers(2, 4))
        dims = tuple(int(rng.integers(1, 13)) for _ in range(d - 1))
        box = BoxSpec(dims, int(rng.integers(1, 17)))
        field = sample_field(box, MIXED[t % 4], R, seed=derive_seed(10002, t))
        res = max_flow(box, field)
        caps = field.caps.tolist()
        recomputed = sum(caps[i] for i in res.min_cut.edge_ids)
        assert res.value == recomputed == res.min_cut.weight
        assert _cut_disconnects(box, res.min_cut.edge_ids)
    elapsed = time.time() - start
    assert elapsed < 60
    _ok(1, "duality", f"{trials} instances, {elapsed:.1f}s")


def _max_disjoint_open_paths(box, open_ids):
    """Exhaustive packing of edge-disjoint open walks from bottom to top."""
    edges = edges_in_box(box)
    top = face_vertices(box, "top")
    adj = defaultdict(list)
    for i in open_ids:
        adj[edges[i].a].append((i, edges[i].b))
        adj[edges[i].b].append((i, edges[i].a))
    memo = {}

    def walks(avail):
        found = []

        def extend(v, used):
            if v in top:
                found.append(used)
                return
            for i, w in adj[v]:
                if i in avail and i not in used:
                    extend(w, used | {i})

        for b in sorted(face_vertices(box, "bottom")):
            extend(b, frozenset())
        return found

    def pack(avail):
        if avail in memo:
            return memo[avail]
        best = 0
        for used in walks(avail):
            best = max(best, 1 + pack(avail - used))
        memo[avail] = best
        return best

    return pack(frozenset(open_ids))


def test_criterion_2_menger_oracle():
    start = time.time()
    # exhaustive over every 0/1 assignment of a fixed 10-edge box
    box = BoxSpec((3,), 2)
    m = len(edges_in_box(box))
    count = 0
    for bits in itertools.product((0, 1), repeat=m):
        caps = np.array([R * b for b in bits], dtype=np.int64)
        field = CapacityField(box, R, caps)
        open_ids = frozenset(i for i, b in enumerate(bits) if b)
        assert menger_count(box, field) == _max_disjoint_open_paths(box, open_ids)
        count += 1
    # plus seeded random 0/1 instances on a 3-dimensional 8-edge box
    box3 = BoxSpec((2, 2), 1)
    m3 = len(edges_in_box(box3))
    for t in range(100):
        u = np.random.Generator(np.random.Philox(key=derive_seed(20002, t))).random(m3)
        bits = u < 0.5
        field = CapacityField(box3, R, np.where(bits, R, 0).astype(np.int64))
        open_ids = frozenset(np.flatnonzero(bits).tolist())
        assert menger_count(box3, field) == _max_disjoint_open_paths(box3, open_ids)
        count += 1
    elapsed = time.time() - start
    assert elapsed < 30
    _ok(2, "menger oracle", f"{count} instances, {elapsed:.1f}s")


def test_verify_oracles_match_point_oracles():
    """``verify``'s index-array oracles give the answers of the point-set ones here."""
    rng = np.random.Generator(np.random.Philox(key=12012))
    disconnected, packings = set(), set()
    for t in range(80):
        d = 2 + t % 2
        dims = tuple(int(rng.integers(1, 6 if d == 2 else 4)) for _ in range(d - 1))
        box = BoxSpec(dims, int(rng.integers(1, 5)))
        if t % 4 == 0:
            field = sample_field(box, MIXED[t // 4 % 4], R, seed=derive_seed(12013, t))
            removed = max_flow(box, field).min_cut.edge_ids
        else:
            removed = frozenset(np.flatnonzero(rng.random(box.edge_count) < 0.4).tolist())
        answer = verify._disconnected_without(box, removed)
        assert answer == _cut_disconnects(box, removed)
        disconnected.add(answer)
    assert disconnected == {True, False}
    for t in range(40):
        box = (BoxSpec((3,), 2), BoxSpec((2,), 3), BoxSpec((2, 2), 1))[t % 3]
        open_ids = frozenset(np.flatnonzero(rng.random(box.edge_count) < 0.6).tolist())
        count = verify.max_disjoint_open_paths(box, open_ids)
        assert count == _max_disjoint_open_paths(box, open_ids)
        packings.add(count)
    assert len(packings) >= 3


def test_criterion_3_point_mass_identity():
    start = time.time()
    box = BoxSpec((2,), 2)
    exact = exact_tail_probability(BERN09, box, 1, resolution=R)
    assert exact == Fraction(9, 10) ** 4  # rational equality
    samples = 10**5
    est = estimate_psi(BERN09, 1, 2, 2, R, samples, seed=30003)
    p = float(exact)
    sigma = math.sqrt(p * (1 - p) / samples)
    assert abs(est.hit_rate - p) <= 4 * sigma
    elapsed = time.time() - start
    assert elapsed < 60
    _ok(3, "point-mass identity", f"exact={exact}, hit_rate={est.hit_rate:.4f}, {elapsed:.1f}s")


def test_criterion_4_constant_capacity_nu():
    start = time.time()
    c = Fraction(3, 4)
    law = DistributionSpec.finite_discrete([(c, 1)])
    for n in (2, 4, 8):
        est = estimate_nu(law, n, n, 5, seed=40004)
        assert est.mean == c
        assert est.stderr == 0.0
    elapsed = time.time() - start
    assert elapsed < 10
    _ok(4, "constant-capacity nu", f"n in (2,4,8) exact, {elapsed:.1f}s")


def test_criterion_5_tau_subadditivity():
    start = time.time()
    rng = np.random.Generator(np.random.Philox(key=50005))
    trials = 1000
    for t in range(trials):
        a = int(rng.integers(1, 7))
        b = int(rng.integers(1, 7))
        k = int(rng.integers(1, 5))
        left = RectSpec((0,), (a,))
        right = RectSpec((a,), (a + b,))
        union = RectSpec((0,), (a + b,))
        field = sample_field(union.slab_box(k), MIXED[t % 4], R, seed=derive_seed(50006, t))
        report = check_subadditivity(left, right, k, field)
        assert report.tau_union <= report.tau_left + report.tau_right
    elapsed = time.time() - start
    assert elapsed < 60
    _ok(5, "tau subadditivity", f"{trials} trials, zero violations, {elapsed:.1f}s")


def test_criterion_6_discretization_sandwich():
    start = time.time()
    rng = np.random.Generator(np.random.Philox(key=60006))
    trials = 200
    for t in range(trials):
        d = int(rng.integers(2, 4))
        dims = tuple(int(rng.integers(1, 5)) for _ in range(d - 1))
        box = BoxSpec(dims, int(rng.integers(1, 7)))
        field = sample_field(box, MIXED[t % 4], R, seed=derive_seed(60007, t))
        k = 2 ** int(rng.integers(1, 6))
        coarse = max_flow(box, discretize(field, k))
        mid = max_flow(box, discretize(field, 2 * k)).value
        fine = max_flow(box, field).value
        assert coarse.value <= mid <= fine
        assert fine - coarse.value <= len(coarse.min_cut.edge_ids) * (R // k)
    elapsed = time.time() - start
    assert elapsed < 60
    _ok(6, "discretization sandwich", f"{trials} trials, {elapsed:.1f}s")


def test_criterion_7_junction():
    start = time.time()
    rng = np.random.Generator(np.random.Philox(key=70007))
    law = DistributionSpec.finite_discrete([("0", "0.25"), ("0.5", "0.25"), ("1", "0.5")])
    done = 0
    branches = {"concatenate": 0, "reglue": 0}
    trial = 0
    while done < 100:
        trial += 1
        n = int(rng.integers(2, 5))
        height = int(rng.integers(2, 5))
        level = 2 ** int(rng.integers(0, 3))
        box = BoxSpec((n,), height)
        if done % 3 == 2:
            # engineered fat column to force the regluing branch
            caps = np.zeros(len(edges_in_box(box)), dtype=np.int64)
            ids = edge_ids(box)
            col = int(rng.integers(1, n + 1))
            for z in range(height):
                caps[ids[Edge((col, z), (col, z + 1))]] = 2 * R
            field = CapacityField(box, R, caps)
        else:
            field = sample_field(box, law, R, seed=derive_seed(70008, trial))
        s1 = discrete_max_flow_stream(box, field, level)
        total = flow_value(s1)
        if total == 0:
            continue
        done += 1
        s2 = translate_stream(flip_vertical(s1), height)
        f2 = translate_field(flip_vertical_field(field), height)
        lam = Fraction(3, 4) * Fraction(total, n * R)
        need = lam * n * R
        interface = [
            int(s1.flow[edge_ids(box)[Edge((x,) + (height - 1,), (x,) + (height,))]])
            for x in range(1, n + 1)
        ]
        branch = "reglue" if any(x > need for x in interface) else "concatenate"
        branches[branch] += 1
        joined = join_streams(s1, s2, lam, n, level)
        assert flow_value(joined) >= need
        union_field = merge_stacked_fields(discretize(field, level), discretize(f2, level))
        assert validate_stream(joined.box, union_field, joined) == []
        assert max_flow(joined.box, union_field).value >= flow_value(joined)
    assert branches["concatenate"] > 0 and branches["reglue"] > 0
    elapsed = time.time() - start
    assert elapsed < 60
    _ok(7, "junction", f"100 pairs, branches={branches}, {elapsed:.1f}s")


def test_criterion_8_psi_curve_shape():
    start = time.time()
    lams = [Fraction(k, 10) for k in range(2, 11)]
    samples = 10**4
    estimates = estimate_psi_sweep(BERN09, lams, 8, 32, R, samples, seed=80008)
    report = psi_curve_diagnostics(estimates, Fraction(7, 10))
    assert report.monotonicity_violations == ()
    assert report.convexity_violations == ()
    assert estimates[0].psi_hat < 1e-3  # lam = 0.2
    # lam = 1.0: the point-mass rate -ln(0.9) must lie in the 4-sigma band
    last = estimates[-1]
    assert last.lam == 1
    p_lo, p_hi = wilson_interval(last.hits, last.samples, z=4.0)
    volume = 8 * 32
    psi_lo = -math.log(p_hi) / volume
    psi_hi = math.inf if p_lo == 0.0 else -math.log(p_lo) / volume
    target = -math.log(0.9)
    assert psi_lo <= target <= psi_hi
    elapsed = time.time() - start
    assert elapsed < 600
    _ok(8, "psi curve shape", f"psi(0.2)={estimates[0].psi_hat:.2e}, "
        f"psi(1.0) 4-sigma band=({psi_lo:.4f},{psi_hi}), {elapsed:.1f}s")


def test_criterion_9_determinism(tmp_path):
    start = time.time()
    configs = {
        "verify": {"seed": 90009, "scale": 0.2},
        "nu": {
            "seed": 90010,
            "distribution": BERN09_JSON,
            "n_list": [2, 4],
            "k_slab": 2,
            "replications": 8,
        },
        "psi": {
            "seed": 90011,
            "distribution": BERN09_JSON,
            "n": 3,
            "height": 4,
            "lambdas": ["0.3", "0.6", "0.9"],
            "samples": 80,
        },
    }
    for command, config in configs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(config))
        outputs = []
        for run_id, workers in (("a", None), ("b", None), ("c", 2)):
            out = tmp_path / f"{command}_{run_id}.csv"
            args = [command, "--config", str(cfg), "--out", str(out)]
            if workers:
                args += ["--workers", str(workers)]
            assert main(args) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
    elapsed = time.time() - start
    _ok(9, "determinism", f"verify/nu/psi byte-identical across reruns and workers, {elapsed:.1f}s")
