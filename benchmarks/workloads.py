"""The benchmark's workloads: configs made from a seed, replica counts and output checks.

Each workload is one ``latticeflow <command>`` run. Its config is a fixed
set of parameters plus a program seed made from the workload seed by
``input_seeds``, so the same seed always gives the same inputs. ``setup`` is
the smallest config that still runs every code path of the full one; its
wall time is the ``setup_s`` metric. See README.md for why each workload
exists and which layer metrics it is meant to move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# reference.json holds CSV digests for DEFAULT_SEED and for the held-out
# seed 2029, which was recorded with it and never used to size or tune.
DEFAULT_SEED = 1
MAX_SEED = 2**32 - 1

Rows = list[dict[str, str]]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    workers: int
    params: dict
    setup_params: dict
    check: Callable[[dict, Rows], list[str]]

    def config(self, seed: int, *, setup: bool = False) -> dict:
        return {"seed": seed, **(self.setup_params if setup else self.params)}


def input_seeds(seed: int) -> list[int]:
    """Program seeds of the inputs a run's timed runs cycle through.

    DEFAULT_SEED comes first, so every run times and checks one input that
    has a reference digest, whatever its seed. Then come the run seed and a
    second seed that no other run seed up to MAX_SEED produces. Averaging
    over inputs of different cost steadies the run's median, and each input
    is run more than once when time allows, which checks it reruns exactly.
    """
    seeds = [DEFAULT_SEED, seed, seed + MAX_SEED + 1]
    return list(dict.fromkeys(seeds))


def replica_count(command: str, config: dict, rows: Rows) -> int:
    """Replicas a run computed; for ``verify``, the property trials it reports."""
    if command == "psi":
        return config["samples"]
    if command == "nu":
        return config["replications"] * len(config["n_list"])
    return sum(int(row["trials"]) for row in rows)


def _check_psi(config: dict, rows: Rows) -> list[str]:
    """Hits can only fall as lam rises, since every lam shares the replicas."""
    if len(rows) != len(config["lambdas"]):
        return [f"psi: {len(rows)} rows for {len(config['lambdas'])} lambdas"]
    hits = [int(row["hits"]) for row in rows]
    if any(a < b for a, b in zip(hits, hits[1:])) or hits[0] > config["samples"]:
        return [f"psi: hit counts {hits} are not non-increasing within the sample count"]
    return []


POINT_MASS_EXACT = 0.9**4


def _check_psi_tiny(config: dict, rows: Rows) -> list[str]:
    """Seed-independent oracle: the 2x2 box at lam=1 clears with probability 0.9^4
    exactly (criterion 3), so the hit rate lies within 4 sigma of it."""
    problems = _check_psi(config, rows)
    if problems:
        return problems
    row = next(r for r in rows if r["lam_exact"] == "1")
    samples = int(row["samples"])
    sigma = math.sqrt(POINT_MASS_EXACT * (1 - POINT_MASS_EXACT) / samples)
    rate = int(row["hits"]) / samples
    if abs(rate - POINT_MASS_EXACT) > 4 * sigma:
        return [f"psi_tiny: hit rate {rate} at lam=1 is over 4 sigma from 0.9^4"]
    return []


def _check_nu(config: dict, rows: Rows) -> list[str]:
    ns = [int(row["n"]) for row in rows]
    if ns != config["n_list"]:
        return [f"nu: rows for n={ns}, expected {config['n_list']}"]
    if any(int(row["mean_num"]) <= 0 for row in rows):
        return ["nu: a non-positive mean under a law with positive capacities"]
    return []


def _check_verify(config: dict, rows: Rows) -> list[str]:
    failed = [row["property"] for row in rows if row["status"] != "pass"]
    return [f"verify: properties {failed} failed"] if failed else []


_TINY_PSI = {
    "distribution": {"kind": "bernoulli", "p": "0.9", "lo": 0, "hi": 1},
    "d": 2, "n": 2, "height": 2, "lambdas": ["0.5", "1.0"],
}
_GRID_PSI = {
    "distribution": {"kind": "uniform", "a": "0", "b": "1"},
    "d": 2, "n": 32, "height": 32, "lambdas": ["0.2", "0.3", "0.4", "0.5"],
}
_SLAB_NU = {
    "distribution": {"kind": "exponential", "rate": 1.0},
    "d": 3, "n_list": [4, 8], "k_slab": 4,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "psi_tiny", "psi", 1,
            {**_TINY_PSI, "samples": 20000},
            {**_TINY_PSI, "samples": 1},
            _check_psi_tiny,
        ),
        Workload(
            "psi_grid", "psi", 1,
            {**_GRID_PSI, "samples": 30},
            {**_GRID_PSI, "samples": 1},
            _check_psi,
        ),
        # Two replications at setup so the process pool is still created.
        Workload(
            "nu_slab", "nu", 2,
            {**_SLAB_NU, "replications": 300},
            {**_SLAB_NU, "replications": 2},
            _check_nu,
        ),
        # A scale this small runs one trial of every property.
        Workload("verify", "verify", 1, {"scale": 4}, {"scale": 0.0001}, _check_verify),
    )
}
