import itertools
import math
import os
import signal
import time
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from latticeflow.capacity import (
    DEFAULT_RESOLUTION,
    CapacityField,
    CapacityOverflowError,
    DistributionSpec,
    derive_seed,
    discretize,
    sample_field,
    unit_count,
)
from latticeflow import cuts, estimators, flow, lattice, verify
from latticeflow.cuts import tau_slab
from latticeflow.estimators import (
    EnumerationBudgetError,
    PsiEstimate,
    estimate_nu,
    estimate_psi,
    estimate_psi_sweep,
    exact_tail_probability,
    psi_curve_diagnostics,
    wilson_interval,
    worker_processes,
)
from latticeflow.flow import max_flow
from latticeflow.lattice import BoxSpec, RectSpec, edges_in_box
from reference_flow import solve_min_cut

R = DEFAULT_RESOLUTION
BERN09 = DistributionSpec.bernoulli("0.9", 0, 1)
# the CPUs this process may use, at which the replica map caps its workers
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def exact_mean_tau(dist, n, k_slab, d=2, resolution=R):
    """Independent oracle: E[tau] / n^(d-1) by exhaustive enumeration."""
    base = RectSpec.cube(n, d)
    box = base.slab_box(k_slab)
    m = len(edges_in_box(box))
    units = [unit_count(v, resolution) for v in dist.support]
    total = Fraction(0)
    for assign in itertools.product(range(len(units)), repeat=m):
        caps = np.array([units[j] for j in assign], dtype=np.int64)
        value = tau_slab(base, k_slab, CapacityField(box, resolution, caps)).weight
        prob = Fraction(1)
        for j in assign:
            prob *= dist.probs[j]
        total += prob * value
    return total / (base.area * resolution)


def test_nu_constant_law_is_exact():
    c = Fraction(3, 4)
    law = DistributionSpec.finite_discrete([(c, 1)])
    for n in (2, 4):
        est = estimate_nu(law, n, n, 5, seed=11)
        assert est.mean == c
        assert est.stderr == 0.0


def test_nu_zero_law():
    law = DistributionSpec.finite_discrete([(0, 1)])
    est = estimate_nu(law, 3, 2, 4, seed=12)
    assert est.mean == 0 and est.stderr == 0.0


def test_nu_mc_matches_exact_enumeration():
    dist = BERN09
    exact = exact_mean_tau(dist, 2, 2)
    assert exact == Fraction(9, 10)  # width-2 slab: only the flat layer is cuttable
    est = estimate_nu(dist, 2, 2, 400, seed=13)
    assert abs(float(est.mean) - float(exact)) <= 4 * est.stderr + 1e-12


def test_nu_trend_non_increasing_within_noise():
    estimates = [estimate_nu(BERN09, n, n, 60, seed=14) for n in (2, 4, 8)]
    for a, b in itertools.pairwise(estimates):
        assert float(b.mean) <= float(a.mean) + 3 * (a.stderr + b.stderr)


def test_nu_non_increasing_in_slab_height_within_noise():
    # deeper slabs admit more cuts, so the means can only drift down
    estimates = [estimate_nu(BERN09, 4, k, 80, seed=31) for k in (1, 2, 4)]
    for a, b in itertools.pairwise(estimates):
        assert float(b.mean) <= float(a.mean) + 3 * (a.stderr + b.stderr)


def test_nu_is_deterministic_and_worker_invariant():
    a = estimate_nu(BERN09, 3, 2, 20, seed=15)
    b = estimate_nu(BERN09, 3, 2, 20, seed=15)
    c = estimate_nu(BERN09, 3, 2, 20, seed=15, workers=2)
    assert a.mean == b.mean == c.mean
    assert a.stderr == b.stderr == c.stderr


# With four-row sampling blocks, 31, 32 and 33 replicas end one below, at
# and one above a block boundary; two workers split them into smaller blocks.
BLOCK_ROWS = 4
BOUNDARY_COUNTS = (4 * 8 - 1, 4 * 8, 4 * 8 + 1)


@pytest.mark.parametrize("count", BOUNDARY_COUNTS)
def test_nu_is_independent_of_sampling_blocks(monkeypatch, count):
    base, k_slab, dist = RectSpec.cube(3, 2), 2, DistributionSpec.exponential(1.0)
    slab = base.slab_box(k_slab)
    taus = [
        tau_slab(base, k_slab, sample_field(slab, dist, R, derive_seed(33, r))).weight
        for r in range(count)
    ]
    default = estimate_nu(dist, 3, k_slab, count, seed=33)
    assert default.mean == Fraction(sum(taus), count * base.area * R)
    monkeypatch.setattr(estimators, "_BLOCK_ELEMENTS", BLOCK_ROWS * slab.edge_count)
    for workers in (1, 2):
        est = estimate_nu(dist, 3, k_slab, count, seed=33, workers=workers)
        assert (est.mean, est.stderr) == (default.mean, default.stderr)


@pytest.mark.parametrize("count", BOUNDARY_COUNTS)
def test_psi_sweep_is_independent_of_sampling_blocks(monkeypatch, count):
    box, dist, k_disc = BoxSpec((2,), 3), DistributionSpec.uniform(0, 1), 2**10
    flows = [
        max_flow(box, discretize(sample_field(box, dist, R, derive_seed(34, r)), k_disc)).value
        for r in range(count)
    ]
    # one lam per distinct flow value: the hit counts then pin down every flow
    lams = sorted({Fraction(v, 2 * R) for v in flows})
    expected = [sum(v >= lam * 2 * R for v in flows) for lam in lams]
    assert len(lams) > count // 2
    monkeypatch.setattr(estimators, "_BLOCK_ELEMENTS", BLOCK_ROWS * box.edge_count)
    for workers in (1, 2):
        sweep = estimate_psi_sweep(dist, lams, 2, 3, k_disc, count, seed=34, workers=workers)
        assert [e.hits for e in sweep] == expected


def test_estimators_build_no_edges(monkeypatch):
    """The psi and nu replicas run on index arrays, not on ``Edge`` objects."""

    def no_edge(self):
        raise AssertionError("an Edge was built")

    for cache in (cuts.uncuttable_edge_ids, flow._dual_adjacency, flow._contracted):
        cache.cache_clear()
    monkeypatch.setattr(lattice.Edge, "__post_init__", no_edge)
    estimate_psi_sweep(DistributionSpec.uniform(0, 1), [0.2, 0.4], 3, 4, 2**10, 20, seed=35)
    estimate_nu(DistributionSpec.exponential(1.0), 3, 2, 20, seed=35, d=3, workers=1)


def test_estimators_build_no_fields(monkeypatch):
    """The psi and nu replicas hand their sampled rows to the solver as they are."""

    def no_field(self):
        raise AssertionError("a CapacityField was built")

    monkeypatch.setattr(CapacityField, "__post_init__", no_field)
    for d in (2, 3):
        estimate_psi_sweep(DistributionSpec.uniform(0, 1), [0.2, 0.4], 2, 3, 2**10, 20, seed=36, d=d)
        estimate_nu(DistributionSpec.exponential(1.0), 2, 2, 20, seed=36, d=d)


def test_verify_and_oracle_build_no_edges_or_fields(monkeypatch):
    """``verify``'s oracles run on index arrays, and the exact oracle hands its
    assignments to the row solver without building a field per assignment."""

    def refuse(self):
        raise AssertionError("an Edge or a CapacityField was built")

    monkeypatch.setattr(lattice.Edge, "__post_init__", refuse)
    assert all(r.passed for r in verify.run_all(38, 0.25))
    monkeypatch.setattr(CapacityField, "__post_init__", refuse)
    law = DistributionSpec.finite_discrete([("0", "1/4"), ("1/2", "1/4"), ("1", "1/2")])
    for box in (BoxSpec((2,), 2), BoxSpec((2, 2), 1)):
        assert 0 < exact_tail_probability(law, box, Fraction(1, 2)) < 1


def test_exact_tail_block_size_invariance(monkeypatch):
    """Blocks of any size, including a last partial one, give the same sum."""
    law = DistributionSpec.finite_discrete([("0", "1/4"), ("1/2", "1/4"), ("1", "1/2")])
    box = BoxSpec((2,), 2)
    expected = exact_tail_probability(law, box, Fraction(1, 2))
    for rows in (1, 7, 3**box.edge_count):
        monkeypatch.setattr(estimators, "_BLOCK_ELEMENTS", rows * box.edge_count)
        assert exact_tail_probability(law, box, Fraction(1, 2)) == expected


def test_exact_tail_overflow():
    box = BoxSpec((2,), 1)
    # at R = 2**20, 2**44 is 2**64 units and 2**43 is 2**63; 2**42 fits, but a row's total does not
    for hi in (2**44, 2**43, 2**42):
        with pytest.raises(CapacityOverflowError):
            exact_tail_probability(DistributionSpec.bernoulli("0.5", 0, hi), box, 1)


@pytest.mark.parametrize("k_disc", [3, 2 * R])
def test_psi_rejects_bad_discretisation_level(k_disc):
    with pytest.raises(ValueError):
        estimate_psi_sweep(BERN09, [0.5], 2, 2, k_disc, 5, seed=37)


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda: estimators.estimate_nu_sweep(BERN09, [(2, 1)], 0, 1), "replications must be",
                 id="nu-no-replications"),
    pytest.param(lambda: estimate_psi_sweep(BERN09, [0.5], 2, 2, R, 0, 1), "samples must be >= 1",
                 id="psi-no-samples"),
    pytest.param(lambda: estimate_psi_sweep(BERN09, [-0.5], 2, 2, R, 5, 1), "lam must be non-negative",
                 id="psi-negative-lam"),
    pytest.param(lambda: psi_curve_diagnostics([], 0), "empty estimate list", id="diagnostics-empty"),
    pytest.param(lambda: exact_tail_probability(BERN09, BoxSpec((2,), 2), 1, resolution=3), "power of two",
                 id="oracle-resolution-3"),
])
def test_refusals(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()


@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(lambda: estimate_psi_sweep(BERN09, [0.5], 2, 2, R, True, 1), TypeError, "boolean",
                 id="psi-samples-true"),
    pytest.param(lambda: estimators.estimate_nu_sweep(BERN09, [(2, 1)], True, 1), TypeError, "boolean",
                 id="nu-replications-true"),
    pytest.param(lambda: worker_processes(True), TypeError, "boolean", id="workers-true"),
    pytest.param(lambda: worker_processes(0), ValueError, "workers must be >= 1", id="workers-0"),
    pytest.param(lambda: worker_processes(-1), ValueError, "workers must be >= 1", id="workers-negative"),
    pytest.param(lambda: estimate_psi_sweep(BERN09, [0.5], 2, 2, R, 5, 1, workers=0), ValueError,
                 "workers must be >= 1", id="psi-workers-0"),
    pytest.param(lambda: estimate_psi_sweep(BERN09, [0.5], 2, 2, R, 5, 1, workers=-1), ValueError,
                 "workers must be >= 1", id="psi-workers-negative"),
    pytest.param(lambda: estimate_psi_sweep(BERN09, [0.5], 2, 0, R, 5, 1), ValueError, "height must be >= 1",
                 id="psi-height-0"),
    pytest.param(lambda: exact_tail_probability(BERN09, BoxSpec((2,), 2), 1, budget=0), ValueError,
                 "budget must be >= 1", id="oracle-budget-0"),
    pytest.param(lambda: exact_tail_probability(BERN09, BoxSpec((2,), 2), 1, budget=True), TypeError,
                 "boolean", id="oracle-budget-true"),
])
def test_counts_must_be_integers_of_at_least_one(call, error, fragment):
    """True ran one replica and was stored as the count, 0 workers died in
    the block map with a ZeroDivisionError and -1 in range()."""
    with pytest.raises(error, match=fragment):
        call()


def test_pool_is_no_larger_than_the_block_count(monkeypatch):
    sizes = []
    fork_map = estimators._fork_map

    def recording_fork_map(calls, processes):
        sizes.append(processes)
        return fork_map(calls, processes)

    monkeypatch.setattr(estimators, "_fork_map", recording_fork_map)
    dist = DistributionSpec.uniform(0, 1)
    serial = estimate_psi_sweep(dist, [0.3, 0.5], 2, 2, R, 3, seed=38)
    nu_serial = estimate_nu(dist, 2, 1, 3, seed=38)
    assert sizes == []
    pooled = estimate_psi_sweep(dist, [0.3, 0.5], 2, 2, R, 3, seed=38, workers=64)
    nu_pooled = estimate_nu(dist, 2, 1, 3, seed=38, workers=64)
    # one replica per block, three blocks; one CPU runs them in the parent
    assert sizes == ([min(3, CPUS)] * 2 if CPUS > 1 else [])
    assert [e.hits for e in pooled] == [e.hits for e in serial]
    assert (nu_pooled.mean, nu_pooled.stderr) == (nu_serial.mean, nu_serial.stderr)


def test_workers_are_capped_at_the_usable_cpus(monkeypatch):
    """A million requested workers fork no more children than this process
    has CPUs. The stub map forks nothing: it records the pool size and runs
    the calls in the parent."""
    sizes = []

    def in_process_map(calls, processes):
        sizes.append(processes)
        return [call() for call in calls]

    serial = estimate_psi_sweep(BERN09, [0.5, 1.0], 2, 2, R, 300, seed=39)
    monkeypatch.setattr(estimators, "_fork_map", in_process_map)
    capped = estimate_psi_sweep(BERN09, [0.5, 1.0], 2, 2, R, 300, seed=39, workers=10**6)
    assert sizes == ([CPUS] if CPUS > 1 else [])  # the uncapped map asked for 300
    assert [e.hits for e in capped] == [e.hits for e in serial]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_map_keeps_call_order():
    """Child i runs calls i, i + 3, ...; the results come back in call order,
    and every call ran outside the parent."""
    parent = os.getpid()
    calls = [partial(lambda i: (i, os.getpid() != parent), i) for i in range(10)]
    assert estimators._fork_map(calls, 3) == [(i, True) for i in range(10)]
    _assert_no_child_left()


def test_fork_map_raises_a_child_exception_as_it_is():
    def overflow():
        raise CapacityOverflowError("row 7 passes 2**63")

    with pytest.raises(CapacityOverflowError, match="row 7 passes 2\\*\\*63") as raised:
        estimators._fork_map([lambda: 1, overflow, lambda: 3], 2)
    assert raised.type is CapacityOverflowError
    _assert_no_child_left()


@pytest.mark.parametrize("end, status", [
    (lambda: os._exit(3), "768"),  # exit code 3 in the high byte of the wait status
    (lambda: os.kill(os.getpid(), signal.SIGKILL), str(signal.SIGKILL.value)),
], ids=["exit", "kill"])
def test_fork_map_names_a_child_that_left_no_result(end, status):
    with pytest.raises(RuntimeError, match=f"wait status {status}\\)"):
        estimators._fork_map([lambda: 1, end], 2)
    _assert_no_child_left()


def test_fork_map_kills_the_children_left_when_one_fails():
    """Child 0 fails at once while child 1 would sleep for a minute: the map
    raises without waiting for it."""
    def fail():
        raise ValueError("block 0")

    start = time.monotonic()
    with pytest.raises(ValueError, match="block 0"):
        estimators._fork_map([fail, partial(time.sleep, 60)], 2)
    assert time.monotonic() - start < 30
    _assert_no_child_left()


def test_psi_lambda_zero_always_hits():
    est = estimate_psi(BERN09, 0, 2, 2, R, 30, seed=21)
    assert est.hits == est.samples == 30
    assert est.psi_hat == 0.0
    assert not est.infinite_flag


def test_psi_above_sup_never_hits():
    est = estimate_psi(BERN09, Fraction(3, 2), 2, 2, R, 40, seed=22)
    assert est.hits == 0
    assert est.infinite_flag
    assert est.psi_hat == pytest.approx(math.log(40) / 4)
    assert math.isinf(est.ci_hi)


def test_psi_matches_point_mass_identity():
    samples = 4000
    est = estimate_psi(BERN09, 1, 2, 2, R, samples, seed=23)
    p = float(Fraction(9, 10) ** 4)
    sigma = math.sqrt(p * (1 - p) / samples)
    assert abs(est.hit_rate - p) <= 4 * sigma


def test_psi_sweep_equals_individual_calls():
    lams = [0, Fraction(1, 2), 1]
    sweep = estimate_psi_sweep(BERN09, lams, 2, 2, R, 80, seed=24)
    for lam, est in zip(lams, sweep):
        single = estimate_psi(BERN09, lam, 2, 2, R, 80, seed=24)
        assert (est.hits, est.psi_hat, est.ci_lo, est.ci_hi) == (
            single.hits, single.psi_hat, single.ci_lo, single.ci_hi,
        )
    # shared replicas make the curve exactly monotone
    assert sweep[0].hits >= sweep[1].hits >= sweep[2].hits


def test_psi_hits_monotone_in_discretisation_level():
    dist = DistributionSpec.uniform(0, 1)
    for i in range(20):
        fine = estimate_psi(dist, Fraction(2, 5), 2, 3, R, 1, seed=derive_seed(25, i))
        coarse = estimate_psi(dist, Fraction(2, 5), 2, 3, R // 2, 1, seed=derive_seed(25, i))
        assert fine.hits >= coarse.hits


def test_psi_three_dimensional_point_mass_identity():
    samples = 800
    est = estimate_psi(BERN09, 1, 2, 2, R, samples, seed=32, d=3)
    p = 0.9**8  # all 2*2*2 vertical edges open
    sigma = math.sqrt(p * (1 - p) / samples)
    assert abs(est.hit_rate - p) <= 4 * sigma


def test_psi_worker_invariance():
    a = estimate_psi(BERN09, Fraction(1, 2), 2, 2, R, 50, seed=26)
    b = estimate_psi(BERN09, Fraction(1, 2), 2, 2, R, 50, seed=26, workers=3)
    assert (a.hits, a.psi_hat) == (b.hits, b.psi_hat)


def test_exact_tail_degenerate_law():
    law = DistributionSpec.finite_discrete([(Fraction(1, 2), 1)])
    box = BoxSpec((2,), 2)
    assert exact_tail_probability(law, box, Fraction(1, 2)) == 1
    assert exact_tail_probability(law, box, Fraction(3, 4)) == 0


def test_exact_tail_closed_form():
    # the full-flow event happens exactly when every vertical edge is open
    box = BoxSpec((2,), 2)
    for p in ("0.9", "0.5", "0.25"):
        dist = DistributionSpec.bernoulli(p, 0, 1)
        assert exact_tail_probability(dist, box, 1) == Fraction(p) ** 4


# (law, d=2 base, heights, lams) of the slab ladder check
LADDER_CASES = [
    (DistributionSpec.bernoulli("0.5", 0, 1), 2, (2, 3, 4), ("1/2", "3/4", "1")),
    (BERN09, 2, (2, 3, 4), ("1/2", "3/4", "1")),
    (DistributionSpec.finite_discrete([(0, "1/4"), (1, "1/2"), (2, "1/4")]), 2, (2, 3),
     ("1/2", "3/4", "1")),
    (DistributionSpec.bernoulli("0.5", 0, 1), 3, (2, 3), ("2/3",)),
]


def test_exact_tail_descends_the_slab_ladder():
    """The paper's slab argument: contracting the levels z = k, 2k, ... of a
    height-h box can only raise its flow and leaves h/k independent
    height-k slabs in series, so P_h <= P_k^(h/k) exactly for every k | h,
    where P_h is the exact tail probability at height h.

    This cannot kill a capped solve that returns its cap: that makes the flow
    the lightest layer's, whose tail is exactly P_1^h, which meets the
    ladder with equality. Other tests kill that mutant."""
    pairs = 0
    for law, base, heights, lams in LADDER_CASES:
        for lam in map(Fraction, lams):
            tail = {h: exact_tail_probability(law, BoxSpec((base,), h), lam)
                    for h in range(1, max(heights) + 1)}
            for h in heights:
                for k in range(1, h):
                    if h % k == 0:
                        assert tail[h] <= tail[k] ** (h // k), (law, base, lam, h, k)
                        pairs += 1
    assert pairs == 32


def test_exact_tail_above_sup_is_zero():
    assert exact_tail_probability(BERN09, BoxSpec((2,), 2), Fraction(3, 2)) == 0


def test_exact_tail_rejects_negative_lam():
    with pytest.raises(ValueError, match="non-negative"):
        exact_tail_probability(BERN09, BoxSpec((2,), 2), Fraction(-1, 2))


def test_exact_tail_budget():
    with pytest.raises(EnumerationBudgetError):
        exact_tail_probability(BERN09, BoxSpec((2,), 2), 1, budget=10)
    with pytest.raises(ValueError):
        exact_tail_probability(DistributionSpec.uniform(0, 1), BoxSpec((2,), 2), 1)


def test_exact_tail_budget_on_a_huge_box_is_immediate():
    """2 * 10**10 edges: the check must not form 2**(2 * 10**10)."""
    with pytest.raises(EnumerationBudgetError):
        exact_tail_probability(BERN09, BoxSpec((10**5,), 10**5), 1)


THREE_ATOMS = DistributionSpec.finite_discrete([("0", "1/4"), ("1/2", "1/4"), ("1", "1/2")])


@pytest.mark.parametrize("dist", [BERN09, THREE_ATOMS])
@pytest.mark.parametrize("box", [BoxSpec((1,), 1), BoxSpec((2,), 1), BoxSpec((1,), 4)])
def test_exact_tail_budget_is_exact(dist, box):
    """A budget of exactly s**m assignments passes; one less does not."""
    count = len(dist.support) ** box.edge_count
    exact_tail_probability(dist, box, 1, budget=count)
    with pytest.raises(EnumerationBudgetError):
        exact_tail_probability(dist, box, 1, budget=count - 1)


def per_assignment_tail(dist, box, lams, resolution):
    """The exact tail at each of ``lams``, summed one assignment at a time with
    one probability product each, every assignment solved by the reference
    Dinic: the oracle for ``exact_tail_probability``."""
    units = [unit_count(v, resolution) for v in dist.support]
    thresholds = [math.ceil(lam * box.base_area * resolution) for lam in lams]
    totals = [Fraction(0)] * len(lams)
    for assign in itertools.product(range(len(units)), repeat=box.edge_count):
        caps = np.array([units[j] for j in assign], dtype=np.int64)
        value, _ = solve_min_cut(box, CapacityField(box, resolution, caps))
        prob = math.prod(dist.probs[j] for j in assign)
        totals = [t + prob if value >= thr else t for t, thr in zip(totals, thresholds)]
    return totals


LAMS = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]


@pytest.mark.parametrize(
    "dist, resolution",
    [
        (DistributionSpec.bernoulli("0.25", 0, 1), R),
        (DistributionSpec.finite_discrete([("0", "1/4"), ("1/3", "1/4"), ("1", "1/2")]), 8),
    ],
)
@pytest.mark.parametrize("box", [BoxSpec((2,), 2), BoxSpec((3,), 1), BoxSpec((2, 1), 1),
                                 BoxSpec((2, 1), 2)])
def test_exact_tail_matches_per_assignment_sum(dist, resolution, box):
    """Counting hits per multiset of atoms gives the per-assignment sum exactly."""
    expected = per_assignment_tail(dist, box, LAMS, resolution)
    got = [exact_tail_probability(dist, box, lam, resolution=resolution) for lam in LAMS]
    assert got == expected
    assert 0 < got[2] < 1


def test_exact_tail_agrees_with_monte_carlo():
    dist = DistributionSpec.finite_discrete([("0", "0.5"), ("1", "0.5")])
    box = BoxSpec((2,), 2)
    lam = Fraction(1, 2)
    exact = exact_tail_probability(dist, box, lam)
    samples = 3000
    est = estimate_psi(dist, lam, 2, 2, R, samples, seed=27)
    p = float(exact)
    sigma = math.sqrt(p * (1 - p) / samples)
    assert abs(est.hit_rate - p) <= 4 * sigma


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0 < hi < 0.1
    lo, hi = wilson_interval(100, 100)
    assert hi == pytest.approx(1.0) and 0.9 < lo < 1.0
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


def test_diagnostics_flat_zero_curve():
    ests = estimate_psi_sweep(BERN09, [0, Fraction(1, 100), Fraction(1, 50)], 2, 2, R, 50, seed=28)
    report = psi_curve_diagnostics(ests, Fraction(1, 2))
    assert report.clean
    assert report.max_psi_below_nu == 0.0
    assert report.min_psi_above_nu is None
    assert report.infinite_points == ()


def test_diagnostics_single_point_vacuous():
    ests = estimate_psi_sweep(BERN09, [Fraction(1, 2)], 2, 2, R, 50, seed=29)
    report = psi_curve_diagnostics(ests, Fraction(1, 4))
    assert report.monotonicity_violations == ()
    assert report.convexity_violations == ()


def _psi_point(lam, hits, psi_hat, halfwidth=0.05):
    return PsiEstimate(Fraction(lam), 2, 2, 2, R, 100, hits, 0, R, psi_hat,
                       psi_hat - halfwidth, psi_hat + halfwidth, False)


def test_diagnostics_report_each_violation():
    """Hand-built curves: a drop whose CIs do not overlap, and a middle point
    above its chord by more than the combined CI half-widths."""
    drop = [_psi_point("0.1", 40, 0.5), _psi_point("0.2", 60, 0.1)]
    report = psi_curve_diagnostics(drop, Fraction(3, 20))
    assert report.monotonicity_violations == ((0.1, 0.2),)
    assert report.convexity_violations == ()
    assert (report.max_psi_below_nu, report.min_psi_above_nu) == (0.5, 0.1)
    bump = [_psi_point("0.1", 90, 0.0), _psi_point("0.2", 50, 0.9), _psi_point("0.3", 10, 1.0)]
    report = psi_curve_diagnostics(bump, Fraction(1, 4))
    assert report.monotonicity_violations == ()
    assert report.convexity_violations == (0.2,)
    assert not report.clean


def test_diagnostics_validation():
    a = estimate_psi(BERN09, 0, 2, 2, R, 50, seed=30)
    b = estimate_psi(BERN09, 1, 2, 3, R, 50, seed=30)  # different h
    with pytest.raises(ValueError):
        psi_curve_diagnostics([a, b], Fraction(1, 2))
    with pytest.raises(ValueError):
        psi_curve_diagnostics([a, a], Fraction(1, 2))  # grid not increasing
