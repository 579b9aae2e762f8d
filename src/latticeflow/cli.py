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
from collections import Counter
from fractions import Fraction
from pathlib import Path

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
    estimate_nu_sweep,
    estimate_psi_sweep,
    exact_tail_probability,
)
from .flow import CapacityOverflowError, min_cut, value_solver
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
_POSITIVE = {"type": "integer", "minimum": 1}

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
        _POSITIVE,
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
    "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
    "out": {"type": "string"},
    "workers": _POSITIVE,
    "resolution": _POSITIVE,
    "d": {"type": "integer", "minimum": 2, "maximum": 25},
}

# The law and the box of side n and height that ``sample``, ``flow``,
# ``psi`` and ``oracle`` read; ``flow`` and ``psi`` may coarsen to 1/k_disc.
_BOX = {"distribution": _DISTRIBUTION_SCHEMA, "n": _POSITIVE, "height": _POSITIVE}
_K_DISC = {"oneOf": [_POSITIVE, {"const": "R"}]}


def _command(*required: str, **properties) -> dict:
    """A command's config object: the common keys and ``properties``, of which
    ``required`` must be present."""
    return {"type": "object", **({"required": list(required)} if required else {}),
            "properties": {**_COMMON, **properties}}


SCHEMAS = {
    "sample": _command(*_BOX, **_BOX),
    "flow": _command(*_BOX, **_BOX, k_disc=_K_DISC),
    "tau": _command("distribution", "n", "k_slab",
                    distribution=_DISTRIBUTION_SCHEMA, n=_POSITIVE, k_slab=_POSITIVE),
    "nu": _command(
        "distribution", "n_list", "k_slab", "replications",
        distribution=_DISTRIBUTION_SCHEMA,
        n_list={"type": "array", "items": _POSITIVE, "minItems": 1},
        k_slab={"oneOf": [_POSITIVE, {"const": "n"}]},
        replications=_POSITIVE,
    ),
    "psi": _command(
        *_BOX, "lambdas", "samples",
        **{**_BOX, "height": _HEIGHT_SCHEMA}, k_disc=_K_DISC,
        lambdas={"type": "array", "items": _NUMBER, "minItems": 1}, samples=_POSITIVE,
    ),
    "oracle": _command(*_BOX, "lam", **_BOX, lam=_NUMBER, budget=_POSITIVE),
    "verify": _command(scale={"type": "number", "exclusiveMinimum": 0, "maximum": 10**6}),
    "report": _command("inputs", inputs={"type": "array", "items": {"type": "string"}, "minItems": 1}),
}

# The JSON Schema subset SCHEMAS is written in; the tests check ``_errors``
# against jsonschema. An integer must be a real int (JSON Schema also counts
# 3.0) and a number finite (Python's json reads Infinity and NaN); a bool is
# neither. Each would end in a traceback, dodge a bound or leak into a CSV.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: _TYPES["integer"](v) or isinstance(v, float) and math.isfinite(v),
}
_KEYWORDS = {
    "type", "required", "properties", "minimum", "exclusiveMinimum", "maximum",
    "enum", "const", "oneOf", "allOf", "if", "then", "items", "minItems", "maxItems",
}


def _check_schema(schema: dict) -> None:
    """Raise ValueError if ``schema`` uses a keyword or type ``_errors`` does not handle."""
    types = schema.get("type", [])
    if set(schema) - _KEYWORDS or not set([types] if isinstance(types, str) else types) <= set(_TYPES):
        raise ValueError(f"unsupported schema keywords or types in {schema}")
    nested = [*schema.get("properties", {}).values(), *schema.get("oneOf", ()), *schema.get("allOf", ())]
    for sub in nested + [schema[k] for k in ("if", "then", "items") if k in schema]:
        _check_schema(sub)


def _equal(a, b) -> bool:
    """JSON equality of scalars: true is not 1."""
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _errors(schema: dict, value, path: str = "config"):
    """Yield one message per way ``value`` breaks ``schema``."""
    types = schema.get("type", [])
    names = [types] if isinstance(types, str) else types
    if names and not any(_TYPES[t](value) for t in names):
        yield f"{path} must be of type {' or '.join(names)}, got {value!r}"
        return  # no other keyword applies to a value of the wrong type
    if "enum" in schema and not any(_equal(value, v) for v in schema["enum"]):
        yield f"{path} must be one of {schema['enum']}, got {value!r}"
    if "const" in schema and not _equal(value, schema["const"]):
        yield f"{path} must be {schema['const']!r}, got {value!r}"
    if _TYPES["number"](value) and (
        value < schema.get("minimum", -math.inf) or value > schema.get("maximum", math.inf)
        or "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]
    ):
        yield f"{path} is out of range, got {value!r}"
    if isinstance(value, dict):
        yield from (f"{path} lacks the key {k!r}" for k in schema.get("required", ()) if k not in value)
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                yield from _errors(sub, value[key], f"{path}.{key}")
    if isinstance(value, list):
        if not schema.get("minItems", 0) <= len(value) <= schema.get("maxItems", math.inf):
            yield f"{path} has {len(value)} items, too few or too many"
        for i, item in enumerate(value):
            yield from _errors(schema.get("items", {}), item, f"{path}[{i}]")
    for sub in schema.get("allOf", ()):
        yield from _errors(sub, value, path)
    if "oneOf" in schema:
        matches = sum(not any(_errors(sub, value, path)) for sub in schema["oneOf"])
        if matches != 1:
            yield f"{path} matches {matches} of its {len(schema['oneOf'])} alternatives, not one"
    if "if" in schema and not any(_errors(schema["if"], value, path)):
        yield from _errors(schema.get("then", {}), value, path)


for _schema in SCHEMAS.values():
    _check_schema(_schema)


def _dec(x) -> str:
    """Decimal column format: 12 significant digits."""
    return format(float(x), ".12g")


def _resolve_height(height, n: int) -> int:
    """h = max(1, ceil(c * base)) with base 1, ceil(ln n) or n, c read exactly."""
    if isinstance(height, int):
        return height
    bases = {"const": 1, "log": math.ceil(math.log(max(n, 2))), "linear": n}
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


def _law(config) -> tuple[DistributionSpec, int, int]:
    """The capacity law, the dimension d and the resolution R of a run."""
    dist = _parse(DistributionSpec.from_json, config["distribution"])
    r = config.get("resolution", DEFAULT_RESOLUTION)
    if not is_power_of_two(r):
        raise ConfigError("resolution must be a power of two")
    return dist, config.get("d", 2), r


# One float64 uniform per edge and replica row: 2^24 edges make 128 MiB a
# row. The largest shape measured so far, 256x256, has 130 816 edges.
MAX_SAMPLED_EDGES = 2**24


def _box(d: int, n: int, height=None, k_slab=None, sampled: bool = True) -> BoxSpec:
    """The box of side ``n`` and ``height`` (an int or a rule), or the slab of
    half-height ``k_slab`` (an int or ``"n"``). A sampled box with more than
    MAX_SAMPLED_EDGES edges is a config error."""
    if k_slab is None:
        box = BoxSpec((n,) * (d - 1), _resolve_height(height, n))
    else:
        box = RectSpec.cube(n, d).slab_box(n if k_slab == "n" else k_slab)
    if sampled and box.edge_count > MAX_SAMPLED_EDGES:
        raise ConfigError("the box has more than 2**24 edges, too many to sample")
    return box


def _k_disc(config, resolution: int) -> int:
    k = config.get("k_disc", "R")
    if k == "R":
        return resolution
    if not is_power_of_two(k) or k > resolution:
        raise ConfigError("k_disc must be a power of two not exceeding the resolution")
    return k


def _peak_rss_mb() -> float | None:
    """Largest resident set of this process and of its reaped children, in MiB
    (``ru_maxrss`` is KiB on Linux and bytes on macOS); None without ``resource``."""
    try:
        import resource
    except ImportError:  # Windows
        return None
    peak = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return round(peak / (2**20 if sys.platform == "darwin" else 2**10), 2)


def _run_sample(config, workers):
    dist, d, r = _law(config)
    box = _box(d, config["n"], config["height"])
    field = sample_field(box, dist, r, config["seed"])
    rows = []
    for i, e in enumerate(edges_in_box(box)):
        c = int(field.caps[i])
        rows.append([i, str(e.a), str(e.b), classify_edge(e), c, _dec(Fraction(c, r))])
    return ["edge_id", "endpoint_a", "endpoint_b", "kind", "cap_units", "cap"], rows


def _run_flow(config, workers):
    dist, d, r = _law(config)
    box = _box(d, config["n"], config["height"])
    field = sample_field(box, dist, r, config["seed"])
    k_disc = _k_disc(config, r)
    if k_disc != r:
        field = discretize(field, k_disc)
    cut = min_cut(box, field)  # its weight is the flow value
    rows = [[
        d, config["n"], config["height"], config["seed"], r, k_disc,
        cut.weight, _dec(Fraction(cut.weight, r)),
        len(cut.edge_ids), cut.weight, " ".join(str(i) for i in sorted(cut.edge_ids)),
    ]]
    return [
        "d", "n", "height", "seed", "resolution", "k_disc",
        "value_units", "value", "cut_size", "cut_weight_units", "cut_edge_ids",
    ], rows


def _run_tau(config, workers):
    dist, d, r = _law(config)
    n, k = config["n"], config["k_slab"]
    field = sample_field(_box(d, n, k_slab=k), dist, r, config["seed"])
    value, cut = tau_slab(SlabProblem(RectSpec.cube(n, d), k, field))
    rows = [[d, n, k, config["seed"], r, value, _dec(Fraction(value, r)), len(cut.edge_ids)]]
    return ["d", "n", "k_slab", "seed", "resolution", "value_units", "value", "cut_size"], rows


def _run_nu(config, workers):
    dist, d, r = _law(config)
    # a slab of half-height k is 2k high; every slab is checked before any run
    slabs = [(n, _box(d, n, k_slab=config["k_slab"]).height // 2) for n in config["n_list"]]
    samplers = Counter(vectorised=0, numpy=0)  # sampling blocks by capacity.sampler kernel
    estimates = estimate_nu_sweep(
        dist, slabs, config["replications"], config["seed"],
        d=d, resolution=r, workers=workers, samplers=samplers,
    )
    rows = [[
        d, e.n, e.k_slab, e.replications, e.seed, r,
        e.mean.numerator, e.mean.denominator, _dec(e.mean), _dec(e.stderr),
    ] for e in estimates]
    return [
        "d", "n", "k_slab", "replications", "seed", "resolution",
        "mean_num", "mean_den", "mean", "stderr",
    ], rows, {"value_solver": value_solver(d), "sampler_blocks": samplers, "peak_rss_mb": _peak_rss_mb()}


def _run_psi(config, workers):
    dist, d, r = _law(config)
    n = config["n"]
    h = _box(d, n, config["height"]).height
    k_disc = _k_disc(config, r)
    lams = [_lam(l) for l in config["lambdas"]]
    tally, samplers = Counter(), Counter(vectorised=0, numpy=0)
    estimates = estimate_psi_sweep(
        dist, lams, n, h, k_disc, config["samples"], config["seed"],
        d=d, resolution=r, workers=workers, tally=tally, samplers=samplers,
    )
    rows = [[
        _dec(e.lam), str(e.lam), d, n, h, k_disc, e.samples, e.hits,
        _dec(e.hit_rate), _dec(e.psi_hat), _dec(e.ci_lo),
        "inf" if math.isinf(e.ci_hi) else _dec(e.ci_hi),
        int(e.infinite_flag), e.seed,
    ] for e in estimates]
    return [
        "lam", "lam_exact", "d", "n", "h", "k_disc", "samples", "hits",
        "hit_rate", "psi_hat", "psi_ci_lo", "psi_ci_hi", "infinite_flag", "seed",
    ], rows, {"value_solver": value_solver(d), "solver_counts": tally, "sampler_blocks": samplers,
              "peak_rss_mb": _peak_rss_mb()}


def _run_oracle(config, workers):
    dist, d, r = _law(config)
    if not dist.is_finite:
        raise ConfigError("oracle needs a finite law: bernoulli or finite_discrete")
    # nothing is sampled: the enumeration budget bounds the box instead
    box = _box(d, config["n"], config["height"], sampled=False)
    lam = _lam(config["lam"])
    tally = Counter()
    prob = exact_tail_probability(
        dist, box, lam,
        resolution=r, budget=config.get("budget", 2**24), tally=tally,
    )
    rows = [[d, config["n"], config["height"], _dec(lam), r,
             prob.numerator, prob.denominator, _dec(prob)]]
    return [
        "d", "n", "height", "lam", "resolution",
        "probability_num", "probability_den", "probability",
    ], rows, {"value_solver": value_solver(d), "solver_counts": dict(tally)}


def _run_verify(config, workers):
    results = run_all(config["seed"], config.get("scale", 1.0))
    rows = [[r.name, r.trials, r.violations, "pass" if r.passed else "FAIL"] for r in results]
    return ["property", "trials", "violations", "status"], rows, {"peak_rss_mb": _peak_rss_mb()}


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


def _write_outputs(out: Path, command: str, config: dict, workers: int, header, rows, meta=None) -> None:
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
    sidecar.update(meta or {})
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
    err = next(_errors(SCHEMAS[args.command], config), None)
    if err is not None:
        raise ConfigError(f"config schema violation: {err}")
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
        header, rows, *meta = _RUNNERS[args.command](config, workers)
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

    _write_outputs(out, args.command, config, workers, header, rows, *meta)
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
