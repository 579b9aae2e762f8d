"""Monte Carlo and exact-enumeration estimators for the flow constants.

Replica r of a run always samples its field with the sub-seed derived from
(master seed, r), so results are independent of evaluation order, of the
number of worker processes and of how replicas are grouped into sampling
blocks, and merging over replicas is a plain sum.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import signal
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .capacity import (
    DEFAULT_RESOLUTION,
    DistributionSpec,
    _level_step,
    _unit_table,
    as_fraction,
    derive_seeds,
    loads_numpy_random,
    sample_block,
    sampler,
)
from .cuts import uncuttable_edge_ids
from .flow import _reached, _values
from .lattice import BoxSpec, RectSpec


class EnumerationBudgetError(RuntimeError):
    """The exact enumeration would exceed the configured assignment budget."""


# Capacities sampled per block: the (rows, edges) float temporaries of one
# block stay near 128 KiB whatever the box size.
_BLOCK_ELEMENTS = 2**14


def _map_indices(jobs, workers: int, samplers: Counter | None = None) -> list[list]:
    """Per (fn, count, width, dist) job, ``fn(block, kernel)`` over consecutive
    index blocks of range(count), in block order. A block holds at most
    _BLOCK_ELEMENTS // width replicas, and a job has at least workers * 8
    blocks when count allows, so the workers stay balanced. All jobs share
    one fork-join map (``_fork_map``); ``capacity.sampler`` picks the kernels
    of all blocks at once, before the fork, and ``samplers`` counts them. A
    law whose sampling loads numpy.random anyway (``half_normal``) leaves no
    import for the array kernel to save."""
    blocks = []  # (job, fn, replica range, width) of each block
    for job, (fn, count, width, _) in enumerate(jobs):
        rows = max(1, min(_BLOCK_ELEMENTS // width, -(-count // (workers * 8))))
        blocks += [(job, fn, range(lo, min(lo + rows, count)), width) for lo in range(0, count, rows)]
    processes = min(workers, len(blocks))
    loaded = any(loads_numpy_random(dist) for *_, dist in jobs)
    kernels = sampler([(len(block), width) for _, _, block, width in blocks], 0 if loaded else processes)
    if samplers is not None:
        samplers.update(kernels)
    calls = [partial(fn, block, kernel) for (_, fn, block, _), kernel in zip(blocks, kernels)]
    if processes <= 1 or not hasattr(os, "fork"):
        parts = [call() for call in calls]
    else:
        parts = _fork_map(calls, processes)
    return [[part for (j, *_), part in zip(blocks, parts) if j == job] for job in range(len(jobs))]


def _fork_map(calls, processes: int) -> list:
    """``call()`` for every call, in call order, over ``processes`` forked
    children: child i runs calls i, i + processes, ... and pickles back one
    ``(ok, results or exception)`` through its own pipe. The children inherit
    the calls, so nothing is pickled on the way in, and the parent runs none.
    A child's exception is raised as it is; a child that ends without a
    result raises RuntimeError. Every child is reaped on every path, after a
    SIGKILL if the map ends early."""
    pids, pipes, reaped = [], [], set()
    try:
        for i in range(processes):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                _child(calls[i::processes], w)
            pids.append(pid)
            os.close(w)
            pipes.append(open(r, "rb"))
        parts = [None] * len(calls)
        for i, (pid, pipe) in enumerate(zip(pids, pipes)):
            data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            reaped.add(pid)
            if not data:
                raise RuntimeError(f"worker process {pid} ended without a result (wait status {status})")
            ok, out = pickle.loads(data)
            if not ok:
                raise out
            parts[i::processes] = out
        return parts
    finally:
        for pipe in pipes:
            pipe.close()
        live = [pid for pid in pids if pid not in reaped]
        for pid in live:
            os.kill(pid, signal.SIGKILL)
        for pid in live:
            os.waitpid(pid, 0)


def _child(calls, w: int):
    """The body of a forked child: write ``(ok, results or exception)`` to
    ``w`` and end the process, skipping the parent's exit handlers."""
    code = 1
    try:
        try:
            out = True, [call() for call in calls]
        except BaseException as exc:  # the parent raises it
            out = False, exc
        data = pickle.dumps(out)
        with open(w, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _block_solve(solve, box, arg, k_disc, dist, resolution, seed, block: range, kernel=None):
    """``solve(box, rows, arg)`` on the capacity rows of replicas ``block`` on
    ``box``, drawn by ``kernel``, every capacity floored to the 1/k_disc grid."""
    step = _level_step(k_disc, resolution)
    rows = sample_block(box, dist, resolution, derive_seeds(seed, block), kernel)
    rows -= rows % step
    return solve(box, rows, arg)


def wilson_interval(hits: int, samples: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    The boundary cases are pinned exactly: zero hits give a lower limit of
    0 and all hits give an upper limit of 1, which float rounding of the
    closed form does not guarantee.
    """
    if not 0 <= hits <= samples or samples < 1:
        raise ValueError("need 0 <= hits <= samples, samples >= 1")
    p = hits / samples
    denom = 1.0 + z * z / samples
    center = (p + z * z / (2 * samples)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / samples + z * z / (4 * samples * samples))
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == samples else min(1.0, center + half)
    return lo, hi


@dataclass(eq=False)
class NuEstimate:
    """Mean rescaled pinned-cut weight over i.i.d. slab replicas."""

    d: int
    n: int
    k_slab: int
    replications: int
    seed: int
    resolution: int
    mean: Fraction
    stderr: float


def estimate_nu_sweep(
    dist: DistributionSpec, slabs, replications: int, seed: int, *, d: int = 2,
    resolution: int = DEFAULT_RESOLUTION, workers: int = 1, samplers: Counter | None = None,
) -> list[NuEstimate]:
    """``estimate_nu`` for every (n, k_slab) of ``slabs``, with the replicas
    of all slabs mapped over one fork-join map."""
    if replications < 1:
        raise ValueError("replications must be >= 1")
    jobs = []
    for n, k_slab in slabs:
        base = RectSpec.cube(n, d)
        slab, never_cut = base.slab_box(k_slab), uncuttable_edge_ids(base, k_slab)
        fn = partial(_block_solve, _values, slab, never_cut, resolution, dist, resolution, seed)
        jobs.append((fn, replications, slab.edge_count, dist))
    out = []
    for (n, k_slab), parts in zip(slabs, _map_indices(jobs, workers, samplers)):
        taus = [t for part in parts for t in part]
        denom = n ** (d - 1) * resolution
        mean = Fraction(sum(taus), replications * denom)
        vals = [t / denom for t in taus]
        avg = sum(vals) / replications
        sq_err = sum((v - avg) ** 2 for v in vals) / max(replications - 1, 1) / replications  # 0 at one
        out.append(NuEstimate(d, n, k_slab, replications, seed, resolution, mean, math.sqrt(sq_err)))
    return out


def estimate_nu(dist: DistributionSpec, n: int, k_slab: int, replications: int, seed: int,
                **kwargs) -> NuEstimate:
    """Monte Carlo mean of tau(]0,n]^(d-1), k_slab) / n^(d-1), exact rational."""
    return estimate_nu_sweep(dist, [(n, k_slab)], replications, seed, **kwargs)[0]


@dataclass(eq=False)
class PsiEstimate:
    """Upper-tail rate estimate at one threshold lam.

    psi_hat is -ln(hits/samples) / (n^(d-1) h); with zero hits it degrades
    to the one-sided lower bound ln(samples) / (n^(d-1) h) and the infinite
    flag is set, since the true rate may genuinely be infinite there.
    """

    lam: Fraction
    d: int
    n: int
    h: int
    k_disc: int
    samples: int
    hits: int
    seed: int
    resolution: int
    psi_hat: float
    ci_lo: float
    ci_hi: float
    infinite_flag: bool

    @property
    def hit_rate(self) -> float:
        return self.hits / self.samples


def estimate_psi_sweep(
    dist: DistributionSpec,
    lams,
    n: int,
    h: int,
    k_disc: int,
    samples: int,
    seed: int,
    *,
    d: int = 2,
    resolution: int = DEFAULT_RESOLUTION,
    z: float = 1.96,
    workers: int = 1,
    tally: Counter | None = None,
    samplers: Counter | None = None,
) -> list[PsiEstimate]:
    """Tail estimates over a lam grid from one shared set of replicas.

    Identical to calling ``estimate_psi`` per lam with the same seed: the
    replica fields depend only on (seed, index), so sharing them is free and
    keeps the whole curve consistent replica by replica. ``tally``, if given,
    counts the replicas ``flow._reached`` decided by its bounds and solved;
    ``samplers`` counts the sampling blocks by kernel.
    """
    if samples < 1 or h < 1:
        raise ValueError("samples and h must be >= 1")
    lamfs = [as_fraction(l) for l in lams]
    if any(l < 0 for l in lamfs):
        raise ValueError("lam must be non-negative")
    area = n ** (d - 1)
    thresholds = [math.ceil(l * area * resolution) for l in lamfs]
    box = BoxSpec((n,) * (d - 1), h)
    grid = sorted(set(thresholds))
    fn = partial(_block_solve, _reached, box, grid, k_disc, dist, resolution, seed)
    reached, solved = zip(*_map_indices([(fn, samples, box.edge_count, dist)], workers, samplers)[0])
    if tally is not None:
        tally.update(decided_by_bounds=samples - sum(solved), solved=sum(solved))
    reached = np.concatenate(reached)
    volume = area * h
    out = []
    for lamf, thr in zip(lamfs, thresholds):
        hits = int(np.count_nonzero(reached > grid.index(thr)))  # reaching grid[j] = reaching > j
        if hits > 0:
            psi = -math.log(hits / samples) / volume + 0.0  # avoid -0.0
            infinite = False
        else:
            psi = math.log(samples) / volume
            infinite = True
        p_lo, p_hi = wilson_interval(hits, samples, z)
        ci_lo = -math.log(p_hi) / volume + 0.0
        ci_hi = math.inf if p_lo == 0.0 else -math.log(p_lo) / volume
        out.append(
            PsiEstimate(
                lamf, d, n, h, k_disc, samples, hits, seed, resolution,
                psi, ci_lo, ci_hi, infinite,
            )
        )
    return out


def estimate_psi(
    dist: DistributionSpec,
    lam,
    n: int,
    h: int,
    k_disc: int,
    samples: int,
    seed: int,
    **kwargs,
) -> PsiEstimate:
    """Tail estimate at a single lam; see ``estimate_psi_sweep``."""
    return estimate_psi_sweep(dist, [lam], n, h, k_disc, samples, seed, **kwargs)[0]


def exact_tail_probability(
    dist: DistributionSpec,
    box: BoxSpec,
    lam,
    *,
    resolution: int = DEFAULT_RESOLUTION,
    budget: int = 2**24,
    tally: Counter | None = None,
) -> Fraction:
    """P[flow >= lam * base_area] by exhaustive enumeration, exact rational.

    Enumerates every capacity assignment of a finite law over the box edges
    (support values floored onto the 1/resolution grid, matching sampling)
    and sums the exact assignment probabilities where the flow clears the
    threshold. The assignments are solved in blocks of rows by the same row
    solver as the Monte Carlo path, but nothing is sampled; intended for
    tiny boxes. An assignment's probability depends only on how often each
    atom occurs in it, so it is formed once per multiset of atoms hit.
    ``tally``, if given, counts the assignments decided by bounds and solved.
    """
    if not dist.is_finite:
        raise ValueError("exact enumeration needs a finite-support law")
    lamf = as_fraction(lam)
    if lamf < 0:
        raise ValueError("lam must be non-negative")
    m = box.edge_count
    s = len(dist.support)
    # s**m > budget, exactly (s >= 2 makes s**bit_length > budget), without
    # forming s**m, which has billions of digits on a large box
    if s ** min(m, budget.bit_length()) > budget:
        raise EnumerationBudgetError(f"{s}**{m} assignments exceed the budget {budget}")
    if m > budget:  # one atom: a single assignment, but one entry per edge
        raise EnumerationBudgetError(f"an assignment of {m} edges exceeds the budget {budget}")
    units = _unit_table(dist, resolution)
    threshold = math.ceil(lamf * box.base_area * resolution)
    assignments = itertools.product(range(s), repeat=m)
    hits = Counter()  # sorted atom indices of a hit assignment -> count
    while block := list(itertools.islice(assignments, max(1, _BLOCK_ELEMENTS // m))):
        rows = np.array(block)
        reached, solved = _reached(box, units[rows], [threshold])
        if tally is not None:
            tally.update(decided_by_bounds=len(rows) - solved, solved=solved)
        hits.update(map(tuple, np.sort(rows[reached > 0], axis=1).tolist()))
    probs = (n * math.prod(dist.probs[j] for j in atoms) for atoms, n in hits.items())
    return sum(probs, Fraction(0))


@dataclass(eq=False)
class PsiCurveReport:
    """Shape diagnostics for a tail-rate curve over a sorted lam grid."""

    monotonicity_violations: tuple[tuple[float, float], ...]
    convexity_violations: tuple[float, ...]
    max_psi_below_nu: float | None
    min_psi_above_nu: float | None
    infinite_points: tuple[float, ...]

    @property
    def clean(self) -> bool:
        return not self.monotonicity_violations and not self.convexity_violations


def psi_curve_diagnostics(
    estimates: list[PsiEstimate],
    nu_hat,
    *,
    nu_margin: float = 0.0,
    tolerance: float = 0.0,
) -> PsiCurveReport:
    """Monotonicity and midpoint-convexity checks beyond the CI noise.

    A monotonicity violation needs the whole CI of the earlier point to sit
    above the CI of the later one; a convexity violation needs the middle
    estimate to exceed the chord through its neighbours by more than the
    combined CI half-widths. The empirical curve is a step function (the
    flow lives on a value lattice), so consecutive grid points with equal
    hit counts describe one and the same empirical tail point and collapse
    to the tight-lam representative before the shape checks. Infinite
    points are reported separately and excluded from both checks.
    """
    if not estimates:
        raise ValueError("empty estimate list")
    ref = estimates[0]
    for e in estimates[1:]:
        if (e.d, e.n, e.h, e.k_disc, e.samples, e.resolution) != (
            ref.d, ref.n, ref.h, ref.k_disc, ref.samples, ref.resolution,
        ):
            raise ValueError("estimates were produced with mismatched parameters")
    lams = [float(e.lam) for e in estimates]
    if any(a >= b for a, b in zip(lams, lams[1:])):
        raise ValueError("lam grid must be strictly increasing")

    nu = float(as_fraction(nu_hat))
    dedup: list[PsiEstimate] = []
    for e in estimates:
        if dedup and dedup[-1].hits == e.hits:
            dedup[-1] = e
        else:
            dedup.append(e)
    finite = [e for e in dedup if not e.infinite_flag]
    mono = []
    for a, b in zip(finite, finite[1:]):
        if a.ci_lo > b.ci_hi + tolerance:
            mono.append((float(a.lam), float(b.lam)))
    convex = []
    for lo, mid, hi in zip(finite, finite[1:], finite[2:]):
        x0, x1, x2 = float(lo.lam), float(mid.lam), float(hi.lam)
        chord = lo.psi_hat + (hi.psi_hat - lo.psi_hat) * (x1 - x0) / (x2 - x0)
        halfwidth = (mid.ci_hi - mid.ci_lo) / 2
        neighbour = ((lo.ci_hi - lo.ci_lo) + (hi.ci_hi - hi.ci_lo)) / 4
        if mid.psi_hat - chord > halfwidth + neighbour + tolerance:
            convex.append(x1)
    below = [e.psi_hat for e in finite if float(e.lam) < nu]
    above = [e.psi_hat for e in finite if float(e.lam) > nu + nu_margin]
    return PsiCurveReport(
        tuple(mono),
        tuple(convex),
        max(below) if below else None,
        min(above) if above else None,
        tuple(float(e.lam) for e in estimates if e.infinite_flag),
    )
