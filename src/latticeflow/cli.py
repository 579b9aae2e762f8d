"""Reproducible experiment runner.

Every subcommand reads a JSON config, runs deterministically from the
mandatory seed, and writes a CSV with a fixed column set next to a JSON
sidecar recording the exact config, seed and package version. Identical
configs produce byte-identical CSVs, whatever the worker count.

Exit codes: 0 success, 1 runtime failure or property violations,
2 config/schema violation, 3 enumeration budget exceeded, 4 capacity
overflow.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema

from . import __version__
from .capacity import (
    DEFAULT_RESOLUTION,
    DistributionSpec,
    as_fraction,
    discretize,
    is_power_of_two,
    sample_field,
)
from .cuts import SlabProblem, tau_slab
from .estimators import (
    EnumerationBudgetError,
    estimate_nu,
    estimate_psi_sweep,
    exact_tail_probability,
)
from .flow import CapacityOverflowError, max_flow, value_solver
from .lattice import BoxSpec, RectSpec, classify_edge, edges_in_box
from .verify import run_all

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_OVERFLOW = 4

ENV_WORKERS = "LATTICEFLOW_WORKERS"


class ConfigError(ValueError):
    pass


_NUMBER = {"type": ["number", "string"]}

_DISTRIBUTION_FIELDS = {
    "bernoulli": ["p"],
    "finite_discrete": ["atoms"],
    "uniform": ["a", "b"],
    "exponential": ["rate"],
    "half_normal": ["sigma"],
}

_DISTRIBUTION_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "allOf": [
        {
            "if": {"required": ["kind"], "properties": {"kind": {"const": kind}}},
            "then": {"required": fields},
        }
        for kind, fields in _DISTRIBUTION_FIELDS.items()
    ],
    "properties": {
        "kind": {"enum": list(_DISTRIBUTION_FIELDS)},
        "p": _NUMBER,
        "lo": _NUMBER,
        "hi": _NUMBER,
        "atoms": {"type": "array", "items": {"type": "array", "minItems": 2, "maxItems": 2}},
        "a": _NUMBER,
        "b": _NUMBER,
        "rate": {"type": "number"},
        "sigma": {"type": "number"},
    },
}

_HEIGHT_SCHEMA = {
    "oneOf": [
        {"type": "integer", "minimum": 1},
        {
            "type": "object",
            "required": ["rule", "coeff"],
            "properties": {
                "rule": {"enum": ["const", "log", "linear"]},
                "coeff": {"type": "number"},
            },
        },
    ]
}

_COMMON = {
    "seed": {"type": "integer", "minimum": 0},
    "out": {"type": "string"},
    "workers": {"type": "integer", "minimum": 1},
    "resolution": {"type": "integer", "minimum": 1},
    "d": {"type": "integer", "minimum": 2},
}

SCHEMAS = {
    "sample": {
        "type": "object",
        "required": ["distribution", "n", "height"],
        "properties": {
            **_COMMON,
            "distribution": _DISTRIBUTION_SCHEMA,
            "n": {"type": "integer", "minimum": 1},
            "height": {"type": "integer", "minimum": 1},
        },
    },
    "flow": {
        "type": "object",
        "required": ["distribution", "n", "height"],
        "properties": {
            **_COMMON,
            "distribution": _DISTRIBUTION_SCHEMA,
            "n": {"type": "integer", "minimum": 1},
            "height": {"type": "integer", "minimum": 1},
            "k_disc": {"oneOf": [{"type": "integer", "minimum": 1}, {"const": "R"}]},
        },
    },
    "tau": {
        "type": "object",
        "required": ["distribution", "n", "k_slab"],
        "properties": {
            **_COMMON,
            "distribution": _DISTRIBUTION_SCHEMA,
            "n": {"type": "integer", "minimum": 1},
            "k_slab": {"type": "integer", "minimum": 1},
        },
    },
    "nu": {
        "type": "object",
        "required": ["distribution", "n_list", "k_slab", "replications"],
        "properties": {
            **_COMMON,
            "distribution": _DISTRIBUTION_SCHEMA,
            "n_list": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1},
            "k_slab": {"oneOf": [{"type": "integer", "minimum": 1}, {"const": "n"}]},
            "replications": {"type": "integer", "minimum": 1},
        },
    },
    "psi": {
        "type": "object",
        "required": ["distribution", "n", "height", "lambdas", "samples"],
        "properties": {
            **_COMMON,
            "distribution": _DISTRIBUTION_SCHEMA,
            "n": {"type": "integer", "minimum": 1},
            "height": _HEIGHT_SCHEMA,
            "k_disc": {"oneOf": [{"type": "integer", "minimum": 1}, {"const": "R"}]},
            "lambdas": {"type": "array", "items": _NUMBER, "minItems": 1},
            "samples": {"type": "integer", "minimum": 1},
        },
    },
    "oracle": {
        "type": "object",
        "required": ["distribution", "n", "height", "lam"],
        "properties": {
            **_COMMON,
            "distribution": _DISTRIBUTION_SCHEMA,
            "n": {"type": "integer", "minimum": 1},
            "height": {"type": "integer", "minimum": 1},
            "lam": _NUMBER,
            "budget": {"type": "integer", "minimum": 1},
        },
    },
    "verify": {
        "type": "object",
        "properties": {**_COMMON, "scale": {"type": "number", "exclusiveMinimum": 0}},
    },
    "report": {
        "type": "object",
        "required": ["inputs"],
        "properties": {
            **_COMMON,
            "inputs": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        },
    },
}


def _dec(x) -> str:
    """Decimal column format: 12 significant digits."""
    return format(float(x), ".12g")


def _resolve_height(height, n: int) -> int:
    """h = max(1, ceil(c * base)) with base 1, ceil(ln n) or n, c read exactly."""
    if isinstance(height, int):
        return height
    bases = {"const": 1, "log": math.ceil(math.log(max(n, 2))), "linear": n}
    if height["rule"] not in bases:
        raise ConfigError(f"unknown height rule {height['rule']!r}")
    return max(1, math.ceil(_parse(as_fraction, height["coeff"]) * bases[height["rule"]]))


def _parse(parse, value):
    """Apply an exact-value parser to config input; its failures are config errors."""
    try:
        return parse(value)
    except (ValueError, TypeError, ZeroDivisionError) as err:
        raise ConfigError(f"bad value {value!r}: {err}") from None


def _lam(value) -> Fraction:
    lam = _parse(as_fraction, value)
    if lam < 0:
        raise ConfigError(f"lam must be non-negative, got {value!r}")
    return lam


def _box(config) -> BoxSpec:
    d = config.get("d", 2)
    return BoxSpec((config["n"],) * (d - 1), config["height"])


def _k_disc(config, resolution: int) -> int:
    k = config.get("k_disc", "R")
    if k == "R":
        return resolution
    if not is_power_of_two(k) or k > resolution:
        raise ConfigError("k_disc must be a power of two not exceeding the resolution")
    return k


def _resolution(config) -> int:
    r = config.get("resolution", DEFAULT_RESOLUTION)
    if not is_power_of_two(r):
        raise ConfigError("resolution must be a power of two")
    return r


def _run_sample(config, workers):
    dist = _parse(DistributionSpec.from_json, config["distribution"])
    box = _box(config)
    r = _resolution(config)
    field = sample_field(box, dist, r, config["seed"])
    rows = []
    for i, e in enumerate(edges_in_box(box)):
        c = int(field.caps[i])
        rows.append([i, str(e.a), str(e.b), classify_edge(e), c, _dec(Fraction(c, r))])
    return ["edge_id", "endpoint_a", "endpoint_b", "kind", "cap_units", "cap"], rows


def _run_flow(config, workers):
    dist = _parse(DistributionSpec.from_json, config["distribution"])
    box = _box(config)
    r = _resolution(config)
    field = sample_field(box, dist, r, config["seed"])
    k_disc = _k_disc(config, r)
    if k_disc != r:
        field = discretize(field, k_disc)
    res = max_flow(box, field)
    d = config.get("d", 2)
    rows = [[
        d, config["n"], config["height"], config["seed"], r, k_disc,
        res.value, _dec(Fraction(res.value, r)),
        len(res.min_cut.edge_ids), res.min_cut.weight,
        " ".join(str(i) for i in sorted(res.min_cut.edge_ids)),
    ]]
    return [
        "d", "n", "height", "seed", "resolution", "k_disc",
        "value_units", "value", "cut_size", "cut_weight_units", "cut_edge_ids",
    ], rows


def _run_tau(config, workers):
    dist = _parse(DistributionSpec.from_json, config["distribution"])
    d = config.get("d", 2)
    r = _resolution(config)
    base = RectSpec.cube(config["n"], d)
    k = config["k_slab"]
    field = sample_field(base.slab_box(k), dist, r, config["seed"])
    value, cut = tau_slab(SlabProblem(base, k, field))
    rows = [[d, config["n"], k, config["seed"], r, value, _dec(Fraction(value, r)),
             len(cut.edge_ids)]]
    return ["d", "n", "k_slab", "seed", "resolution", "value_units", "value", "cut_size"], rows


def _run_nu(config, workers):
    dist = _parse(DistributionSpec.from_json, config["distribution"])
    d = config.get("d", 2)
    r = _resolution(config)
    rows = []
    for n in config["n_list"]:
        k = n if config["k_slab"] == "n" else config["k_slab"]
        est = estimate_nu(
            dist, n, k, config["replications"], config["seed"],
            d=d, resolution=r, workers=workers,
        )
        rows.append([
            d, n, k, est.replications, est.seed, r,
            est.mean.numerator, est.mean.denominator, _dec(est.mean), _dec(est.stderr),
        ])
    return [
        "d", "n", "k_slab", "replications", "seed", "resolution",
        "mean_num", "mean_den", "mean", "stderr",
    ], rows


def _run_psi(config, workers):
    dist = _parse(DistributionSpec.from_json, config["distribution"])
    d = config.get("d", 2)
    r = _resolution(config)
    n = config["n"]
    h = _resolve_height(config["height"], n)
    k_disc = _k_disc(config, r)
    lams = [_lam(l) for l in config["lambdas"]]
    estimates = estimate_psi_sweep(
        dist, lams, n, h, k_disc, config["samples"], config["seed"],
        d=d, resolution=r, workers=workers,
    )
    rows = []
    for e in estimates:
        rows.append([
            _dec(e.lam), str(e.lam), d, n, h, k_disc, e.samples, e.hits,
            _dec(e.hit_rate), _dec(e.psi_hat), _dec(e.ci_lo),
            "inf" if math.isinf(e.ci_hi) else _dec(e.ci_hi),
            int(e.infinite_flag), e.seed,
        ])
    return [
        "lam", "lam_exact", "d", "n", "h", "k_disc", "samples", "hits",
        "hit_rate", "psi_hat", "psi_ci_lo", "psi_ci_hi", "infinite_flag", "seed",
    ], rows


def _run_oracle(config, workers):
    dist = _parse(DistributionSpec.from_json, config["distribution"])
    if not dist.is_finite:
        raise ConfigError("oracle needs a finite law: bernoulli or finite_discrete")
    d = config.get("d", 2)
    r = _resolution(config)
    box = _box(config)
    lam = _lam(config["lam"])
    prob = exact_tail_probability(
        dist, box, lam,
        resolution=r, budget=config.get("budget", 2**24),
    )
    rows = [[d, config["n"], config["height"], _dec(lam), r,
             prob.numerator, prob.denominator, _dec(prob)]]
    return [
        "d", "n", "height", "lam", "resolution",
        "probability_num", "probability_den", "probability",
    ], rows


def _run_verify(config, workers):
    results = run_all(config["seed"], config.get("scale", 1.0))
    rows = [[r.name, r.trials, r.violations, "pass" if r.passed else "FAIL"] for r in results]
    return ["property", "trials", "violations", "status"], rows


def _run_report(config, workers):
    header = None
    rows = []
    for path in config["inputs"]:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            head = next(reader, None)
            if head is None:
                raise ConfigError(f"{path} is empty")
            if header is None:
                header = head
            elif head != header:
                raise ConfigError(f"column set of {path} differs from the first input")
            rows.extend(reader)
    return header, rows


_RUNNERS = {
    "sample": _run_sample,
    "flow": _run_flow,
    "tau": _run_tau,
    "nu": _run_nu,
    "psi": _run_psi,
    "oracle": _run_oracle,
    "verify": _run_verify,
    "report": _run_report,
}


def _write_outputs(out: Path, command: str, config: dict, workers: int, header, rows) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    sidecar = {
        "artifact_version": __version__,
        "command": command,
        "config": config,
        "seed": config.get("seed"),
        "workers": workers,
    }
    if command in ("psi", "nu", "oracle"):
        sidecar["value_solver"] = value_solver(config.get("d", 2))
    with open(str(out) + ".meta.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticeflow",
        description="Seeded max-flow experiments on random-capacity lattice cylinders",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, default=None, help="worker process count")
        p.add_argument("--out", type=str, default=None, help="CSV output path")
    return parser


def _load_config(args) -> dict:
    if args.config is None:
        config = {}
    else:
        with open(args.config) as fh:
            config = json.load(fh)
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    if args.seed is not None:
        config["seed"] = args.seed
    if args.out is not None:
        config["out"] = args.out
    try:
        jsonschema.validate(config, SCHEMAS[args.command])
    except jsonschema.ValidationError as err:
        raise ConfigError(f"config schema violation: {err.message}") from None
    if args.command != "report" and "seed" not in config:
        raise ConfigError("a seed is mandatory (config key 'seed' or --seed)")
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
    except (ConfigError, OSError, json.JSONDecodeError) as err:
        print(f"latticeflow: config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    workers = args.workers
    if workers is None and os.environ.get(ENV_WORKERS):
        try:
            workers = int(os.environ[ENV_WORKERS])
        except ValueError:
            print(f"latticeflow: config error: {ENV_WORKERS} must be an integer", file=sys.stderr)
            return EXIT_CONFIG
    if workers is None:
        workers = config.get("workers", 1)
    if workers < 1:
        print("latticeflow: config error: the worker count must be >= 1", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(config.get("out", f"{args.command}.csv"))
    try:
        header, rows = _RUNNERS[args.command](config, workers)
    except ConfigError as err:
        print(f"latticeflow: config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except EnumerationBudgetError as err:
        print(f"latticeflow: enumeration budget exceeded: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except CapacityOverflowError as err:
        print(f"latticeflow: capacity overflow: {err}", file=sys.stderr)
        return EXIT_OVERFLOW
    except (ValueError, RuntimeError, OSError) as err:
        print(f"latticeflow: error: {err}", file=sys.stderr)
        return EXIT_ERROR

    _write_outputs(out, args.command, config, workers, header, rows)
    if args.command == "verify":
        failures = [row for row in rows if row[3] != "pass"]
        if failures:
            for row in failures:
                print(f"latticeflow: property {row[0]} failed", file=sys.stderr)
            return EXIT_ERROR
    return EXIT_OK


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
