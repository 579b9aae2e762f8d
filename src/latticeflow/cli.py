"""Reproducible experiment runner.

Every subcommand reads a JSON config, runs deterministically from the
mandatory seed, and writes a CSV with a fixed column set next to a JSON
sidecar recording the exact config, seed and package version. Identical
configs produce byte-identical CSVs, whatever the worker count.

Exit codes, mapped from what any stage raises by ``_FAILURES``: 0 success,
1 runtime failure, unwritable output or property violations, 2 unreadable
config or input file or schema violation, 3 enumeration budget exceeded, 4 capacity overflow.
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
    _check_resolution,
    _level_step,
    as_fraction,
    discretize,
    read_lam,
    sample_field,
)
from .cuts import tau_slab
from .estimators import (
    EnumerationBudgetError,
    estimate_nu_sweep,
    estimate_psi_sweep,
    exact_tail_probability,
    worker_processes,
)
from .flow import CapacityOverflowError, min_cut, value_solver
from .lattice import HORIZONTAL, VERTICAL, BoxSpec, RectSpec, edge_ends, vertex_points

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

# kind: (constructor, its parameters as JSON fields with schema types); the
# constructor's signature says which are required
_LAWS = {
    "bernoulli": (DistributionSpec.bernoulli, {"p": _NUMBER, "lo": _NUMBER, "hi": _NUMBER}),
    "finite_discrete": (DistributionSpec.finite_discrete, {
        "atoms": {"type": "array", "items": {"type": "array", "minItems": 2, "maxItems": 2}}}),
    "uniform": (DistributionSpec.uniform, {"a": _NUMBER, "b": _NUMBER}),
    "exponential": (DistributionSpec.exponential, {"rate": {"type": "number"}}),
    "half_normal": (DistributionSpec.half_normal, {"sigma": {"type": "number"}}),
}

_DISTRIBUTION_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {"kind": {"enum": list(_LAWS)}}
    | {key: rule for _, fields in _LAWS.values() for key, rule in fields.items()},
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
_KEYWORDS = {"type", "required", "properties", "minimum", "exclusiveMinimum", "maximum",
             "enum", "const", "oneOf", "items", "minItems", "maxItems"}


def _check_schema(schema: dict) -> None:
    """Raise ValueError if ``schema`` uses a keyword or type ``_errors`` does not handle."""
    types = schema.get("type", [])
    if set(schema) - _KEYWORDS or not set([types] if isinstance(types, str) else types) <= set(_TYPES):
        raise ValueError(f"unsupported schema keywords or types in {schema}")
    nested = [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]
    for sub in nested + ([schema["items"]] if "items" in schema else []):
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
    if "oneOf" in schema:
        matches = sum(not any(_errors(sub, value, path)) for sub in schema["oneOf"])
        if matches != 1:
            yield f"{path} matches {matches} of its {len(schema['oneOf'])} alternatives, not one"


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


def _read(path, parse):
    """``parse`` of the UTF-8 file at ``path``; any failure to read it is a config error naming it."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return parse(fh)
    except (OSError, ValueError, RecursionError, csv.Error) as err:
        raise ConfigError(f"{path}: {err}") from None


def _law(config) -> tuple[DistributionSpec, int, int]:
    """The capacity law, the dimension d and the resolution R of a run."""
    make, fields = _LAWS[config["distribution"]["kind"]]
    dist = _parse(lambda law: make(**{k: law[k] for k in fields if k in law}), config["distribution"])
    try:
        return dist, config.get("d", 2), _check_resolution(config.get("resolution", DEFAULT_RESOLUTION))
    except ValueError as err:  # the library's message, without _parse's "bad value" prefix
        raise ConfigError(err) from None


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
    k = resolution if config.get("k_disc", "R") == "R" else config["k_disc"]
    _parse(lambda k: _level_step(k, resolution), k)
    return k


def _peak_rss() -> dict:
    """Peak resident set in MiB of this process and its reaped children, and
    where this process's own was read: Linux ``VmHWM`` starts afresh at exec,
    ``ru_maxrss`` (bytes on macOS) keeps the peak of the process that exec'd."""
    try:
        import resource
    except ImportError:  # Windows
        return {"peak_rss_mb": None, "peak_rss_source": None}
    try:
        with open("/proc/self/status", "rb") as fh:  # Linux
            own, source = int(fh.read().split(b"VmHWM:")[1].split()[0]), "VmHWM"
    except (OSError, IndexError):
        own, source = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "ru_maxrss"
    peak = max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    unit = 2**20 if sys.platform == "darwin" else 2**10
    return {"peak_rss_mb": round(peak / unit, 2), "peak_rss_source": source}


def _run_sample(config):
    dist, d, r = _law(config)
    box = _box(d, config["n"], config["height"])
    field = sample_field(box, dist, r, config["seed"])
    points = [str(p) for p in vertex_points(box)]
    tail, head = (a.tolist() for a in edge_ends(box.dims, box.height))
    rows = [[i, points[t], points[h], VERTICAL if h == t + 1 else HORIZONTAL, c, _dec(Fraction(c, r))]
            for i, (t, h, c) in enumerate(zip(tail, head, field.caps.tolist()))]
    return ["edge_id", "endpoint_a", "endpoint_b", "kind", "cap_units", "cap"], rows


def _run_flow(config):
    dist, d, r = _law(config)
    box = _box(d, config["n"], config["height"])
    k_disc = _k_disc(config, r)
    field = discretize(sample_field(box, dist, r, config["seed"]), k_disc)  # unchanged at k_disc = R
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


def _run_tau(config):
    dist, d, r = _law(config)
    n, k = config["n"], config["k_slab"]
    field = sample_field(_box(d, n, k_slab=k), dist, r, config["seed"])
    cut = tau_slab(RectSpec.cube(n, d), k, field)
    rows = [[d, n, k, config["seed"], r, cut.weight, _dec(Fraction(cut.weight, r)), len(cut.edge_ids)]]
    return ["d", "n", "k_slab", "seed", "resolution", "value_units", "value", "cut_size"], rows


def _run_nu(config):
    dist, d, r = _law(config)
    # a slab of half-height k is 2k high; every slab is checked before any run
    slabs = [(n, _box(d, n, k_slab=config["k_slab"]).height // 2) for n in config["n_list"]]
    estimates = estimate_nu_sweep(
        dist, slabs, config["replications"], config["seed"],
        d=d, resolution=r, workers=config.get("workers", 1),
    )
    rows = [[
        d, e.n, e.k_slab, e.replications, e.seed, r,
        e.mean.numerator, e.mean.denominator, _dec(e.mean), _dec(e.stderr),
    ] for e in estimates]
    return [
        "d", "n", "k_slab", "replications", "seed", "resolution",
        "mean_num", "mean_den", "mean", "stderr",
    ], rows, {"value_solver": value_solver(d),
              "processes": worker_processes(config.get("workers", 1))}


def _run_psi(config):
    dist, d, r = _law(config)
    n = config["n"]
    h = _box(d, n, config["height"]).height
    k_disc = _k_disc(config, r)
    lams = [_parse(read_lam, l) for l in config["lambdas"]]
    tally = Counter()
    estimates = estimate_psi_sweep(
        dist, lams, n, h, k_disc, config["samples"], config["seed"],
        d=d, resolution=r, workers=config.get("workers", 1), tally=tally,
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
    ], rows, {"value_solver": value_solver(d), "solver_counts": tally,
              "processes": worker_processes(config.get("workers", 1))}


def _run_oracle(config):
    dist, d, r = _law(config)
    if not dist.is_finite:
        raise ConfigError("oracle needs a finite law: bernoulli or finite_discrete")
    # nothing is sampled: the enumeration budget bounds the box instead
    box = _box(d, config["n"], config["height"], sampled=False)
    lam = _parse(read_lam, config["lam"])
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


def _run_verify(config):
    from .verify import run_all  # only this command loads verify and junction

    results = run_all(config["seed"], config.get("scale", 1.0))
    rows = [[r.name, r.trials, r.violations, "pass" if r.passed else "FAIL"] for r in results]
    return ["property", "trials", "violations", "status"], rows


def _csv_rows(fh) -> list[list[str]]:
    """The rows of a CSV file; flow's cut_edge_ids outgrow csv's 131 072-character field default."""
    limit = csv.field_size_limit(2**31 - 1)
    try:
        return list(csv.reader(fh))
    finally:
        csv.field_size_limit(limit)


def _run_report(config):
    header, rows = None, []
    for path in config["inputs"]:
        table = _read(path, _csv_rows)
        if not table:
            raise ConfigError(f"{path} is empty")
        if header is None:
            header = table[0]
        elif table[0] != header:
            raise ConfigError(f"column set of {path} differs from the first input")
        rows.extend(table[1:])
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


def _write_outputs(command: str, config: dict, header, rows, meta: dict) -> None:
    out = Path(config.get("out", f"{command}.csv"))
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    sidecar = {
        "artifact_version": __version__,
        "command": command,
        "config": config,
        "seed": config.get("seed"),
        "workers": config.get("workers", 1),
        **meta,
    }
    with open(str(out) + ".meta.json", "w", encoding="utf-8") as fh:
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
    """The config with the --seed, --out and worker overrides, schema-checked."""
    config = {} if args.config is None else _read(args.config, json.load)
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    workers = args.workers
    if workers is None and os.environ.get(ENV_WORKERS):
        try:
            workers = int(os.environ[ENV_WORKERS])
        except ValueError:
            raise ConfigError(f"{ENV_WORKERS} must be an integer") from None
    for key, value in (("seed", args.seed), ("out", args.out), ("workers", workers)):
        if value is not None:
            config[key] = value
    err = next(_errors(SCHEMAS[args.command], config), None)
    if err is not None:
        raise ConfigError(f"config schema violation: {err}")
    if args.command != "report" and "seed" not in config:
        raise ConfigError("a seed is mandatory (config key 'seed' or --seed)")
    return config


# Exit code and message prefix per failure, first match first: ConfigError is a
# ValueError and EnumerationBudgetError a RuntimeError, so the last rows come last.
_FAILURES = {
    ConfigError: (EXIT_CONFIG, "config error"),
    EnumerationBudgetError: (EXIT_BUDGET, "enumeration budget exceeded"),
    CapacityOverflowError: (EXIT_OVERFLOW, "capacity overflow"),
    ValueError: (EXIT_ERROR, "error"),
    RuntimeError: (EXIT_ERROR, "error"),
    OSError: (EXIT_ERROR, "error"),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        header, rows, *meta = _RUNNERS[args.command](config)
        _write_outputs(args.command, config, header, rows, dict(*meta, **_peak_rss()))
    except tuple(_FAILURES) as err:
        code, prefix = next(_FAILURES[kind] for kind in _FAILURES if isinstance(err, kind))
        print(f"latticeflow: {prefix}: {err}", file=sys.stderr)
        return code
    failed = [row[0] for row in rows if row[3] != "pass"] if args.command == "verify" else []
    for name in failed:
        print(f"latticeflow: property {name} failed", file=sys.stderr)
    return EXIT_ERROR if failed else EXIT_OK


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
