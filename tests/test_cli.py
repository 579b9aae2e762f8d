import hashlib
import json
import math
import os
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

import latticeflow
from latticeflow import estimators
from latticeflow.capacity import DistributionSpec
from latticeflow.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_OVERFLOW,
    MAX_SAMPLED_EDGES,
    SCHEMAS,
    ConfigError,
    _box,
    _resolve_height,
    main,
)
from latticeflow.estimators import estimate_psi_sweep


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BERN = {"kind": "bernoulli", "p": "0.9", "lo": 0, "hi": 1}


def run(args):
    return main([str(a) for a in args])


def test_sample_command(tmp_path):
    cfg = write_config(
        tmp_path, "c.json",
        {"seed": 1, "distribution": BERN, "n": 2, "height": 2, "d": 2},
    )
    out = tmp_path / "sample.csv"
    assert run(["sample", "--config", cfg, "--out", out]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "edge_id,endpoint_a,endpoint_b,kind,cap_units,cap"
    assert len(lines) == 1 + 6  # six edges in the 2x2 box
    meta = json.loads((tmp_path / "sample.csv.meta.json").read_text())
    assert meta["command"] == "sample" and meta["seed"] == 1
    assert meta["artifact_version"]


def test_flow_command(tmp_path):
    cfg = write_config(
        tmp_path, "c.json",
        {"seed": 2, "distribution": BERN, "n": 3, "height": 3},
    )
    out = tmp_path / "flow.csv"
    assert run(["flow", "--config", cfg, "--out", out]) == EXIT_OK
    header, row = out.read_text().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert int(cols["value_units"]) == int(cols["cut_weight_units"])


def test_tau_command(tmp_path):
    cfg = write_config(
        tmp_path, "c.json",
        {"seed": 3, "distribution": BERN, "n": 2, "k_slab": 2},
    )
    out = tmp_path / "tau.csv"
    assert run(["tau", "--config", cfg, "--out", out]) == EXIT_OK
    assert out.read_text().startswith("d,n,k_slab,seed,resolution,value_units,value,cut_size")


def test_nu_constant_law_exact_column(tmp_path):
    const = {"kind": "finite_discrete", "atoms": [["0.75", "1"]]}
    cfg = write_config(
        tmp_path, "c.json",
        {"seed": 4, "distribution": const, "n_list": [2, 4], "k_slab": "n", "replications": 3},
    )
    out = tmp_path / "nu.csv"
    assert run(["nu", "--config", cfg, "--out", out]) == EXIT_OK
    rows = out.read_text().splitlines()[1:]
    for row in rows:
        cols = row.split(",")
        assert cols[8] == "0.75" and cols[9] == "0"  # mean, stderr


def test_psi_command_infinite_rows(tmp_path):
    cfg = write_config(
        tmp_path, "c.json",
        {
            "seed": 5, "distribution": BERN, "n": 2, "height": 2,
            "lambdas": ["1.5"], "samples": 20,
        },
    )
    out = tmp_path / "psi.csv"
    assert run(["psi", "--config", cfg, "--out", out]) == EXIT_OK
    header, row = out.read_text().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["hits"] == "0" and cols["infinite_flag"] == "1"


def test_psi_height_rule(tmp_path):
    assert _resolve_height(5, 3) == 5
    assert _resolve_height({"rule": "log", "coeff": 4}, 8) == 4 * math.ceil(math.log(8))
    assert _resolve_height({"rule": "linear", "coeff": 2}, 8) == 16
    cfg = write_config(
        tmp_path, "c.json",
        {
            "seed": 6, "distribution": BERN, "n": 2,
            "height": {"rule": "log", "coeff": 2},
            "lambdas": ["0.5"], "samples": 10,
        },
    )
    out = tmp_path / "psi.csv"
    assert run(["psi", "--config", cfg, "--out", out]) == EXIT_OK
    header, row = out.read_text().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["h"] == "2"


def test_oracle_command(tmp_path):
    cfg = write_config(
        tmp_path, "c.json",
        {"seed": 7, "distribution": BERN, "n": 2, "height": 2, "lam": "1"},
    )
    out = tmp_path / "oracle.csv"
    assert run(["oracle", "--config", cfg, "--out", out]) == EXIT_OK
    header, row = out.read_text().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert Fraction(int(cols["probability_num"]), int(cols["probability_den"])) == Fraction(9, 10) ** 4


def test_verify_command(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"seed": 8, "scale": 0.2})
    out = tmp_path / "verify.csv"
    assert run(["verify", "--config", cfg, "--out", out]) == EXIT_OK
    rows = out.read_text().splitlines()[1:]
    assert rows and all(row.endswith(",pass") for row in rows)


def test_report_merges_csvs(tmp_path):
    cfg = write_config(
        tmp_path, "c.json",
        {"seed": 9, "distribution": BERN, "n": 2, "height": 2, "lambdas": ["0.5"], "samples": 10},
    )
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["psi", "--config", cfg, "--out", a]) == EXIT_OK
    assert run(["psi", "--config", cfg, "--seed", 10, "--out", b]) == EXIT_OK
    merged = tmp_path / "merged.csv"
    rcfg = write_config(tmp_path, "r.json", {"inputs": [str(a), str(b)]})
    assert run(["report", "--config", rcfg, "--out", merged]) == EXIT_OK
    lines = merged.read_text().splitlines()
    assert len(lines) == 3 and lines[0].startswith("lam,")


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path, "c.json",
        {
            "seed": 11, "distribution": BERN, "n": 2, "height": 3,
            "lambdas": ["0.2", "0.8"], "samples": 60,
        },
    )
    outs = []
    for name, workers in (("one.csv", None), ("two.csv", None), ("three.csv", 2)):
        out = tmp_path / name
        args = ["psi", "--config", cfg, "--out", out]
        if workers:
            args += ["--workers", workers]
        assert run(args) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_schema_violation_exit_code(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"seed": 1, "distribution": BERN, "n": 2})
    assert run(["psi", "--config", cfg]) == EXIT_CONFIG  # missing fields
    cfg2 = write_config(tmp_path, "c2.json", {"seed": "nope"})
    assert run(["verify", "--config", cfg2]) == EXIT_CONFIG
    assert run(["flow", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG


def test_bad_k_disc_is_a_config_error(tmp_path):
    cfg = write_config(
        tmp_path, "c.json",
        {"seed": 1, "distribution": BERN, "n": 2, "height": 2, "k_disc": 3},
    )
    assert run(["flow", "--config", cfg, "--out", tmp_path / "f.csv"]) == EXIT_CONFIG


def test_seed_is_mandatory(tmp_path):
    cfg = write_config(
        tmp_path, "c.json",
        {"distribution": BERN, "n": 2, "height": 2, "lambdas": ["0.5"], "samples": 5},
    )
    assert run(["psi", "--config", cfg]) == EXIT_CONFIG
    assert run(["psi", "--config", cfg, "--seed", 4, "--out", tmp_path / "ok.csv"]) == EXIT_OK


@pytest.mark.parametrize(
    "command, config",
    [
        ("sample", {"distribution": BERN, "n": 2, "height": 2}),
        ("psi", {"distribution": BERN, "n": 2, "height": 2, "lambdas": ["0.5"], "samples": 5}),
    ],
)
def test_seed_past_64_bits_is_a_config_error(tmp_path, command, config):
    cfg = write_config(tmp_path, "c.json", config)
    out = tmp_path / "o.csv"
    assert run([command, "--config", cfg, "--seed", 2**64, "--out", out]) == EXIT_CONFIG
    assert not out.exists()
    assert run([command, "--config", cfg, "--seed", 2**64 - 1, "--out", out]) == EXIT_OK


PSI = {"seed": 1, "distribution": BERN, "n": 2, "height": 2, "lambdas": ["0.5"], "samples": 3}


@pytest.mark.parametrize("field, value", [
    ("samples", 3.0), ("height", 2.0), ("d", 2.0), ("seed", 1.0), ("n", 2.0),
])
def test_integral_float_in_integer_field_is_a_config_error(tmp_path, field, value):
    """JSON Schema counts 3.0 as an integer; the CLI does not, since a float
    count ends in a traceback or leaks into the CSV as ``2.0``."""
    cfg = write_config(tmp_path, "c.json", {**PSI, field: value})
    out = tmp_path / "psi.csv"
    assert run(["psi", "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert not out.exists()
    cfg = write_config(tmp_path, "c.json", {**PSI, field: int(value)})
    assert run(["psi", "--config", cfg, "--out", out]) == EXIT_OK


@pytest.mark.parametrize(
    "command, config",
    [
        ("verify", {"scale": math.inf}),
        ("verify", {"scale": 1e308}),
        ("verify", {"scale": math.nan}),
        ("verify", {"scale": -math.inf}),
        ("psi", {**PSI, "distribution": {"kind": "exponential", "rate": math.inf}}),
        ("psi", {**PSI, "distribution": {"kind": "half_normal", "sigma": math.nan}}),
        ("psi", {**PSI, "lambdas": ["0.5", math.inf]}),
    ],
)
def test_non_finite_or_huge_number_is_a_config_error(tmp_path, command, config):
    """Python's json reads Infinity and NaN. A scale of inf or 1e308 ended in
    an OverflowError traceback, NaN exited 1, and an infinite rate sampled an
    all-zero law."""
    cfg = write_config(tmp_path, "c.json", {"seed": 1, **config})
    out = tmp_path / f"{command}.csv"
    assert run([command, "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, digest",
    [
        ("psi", {"distribution": BERN, "n": 2, "height": 2, "samples": 40,
                 "lambdas": ["1e30", "0.5", 1e30, "99999999999999999999"]},
         "5cbfa40d97466a340d68f333a3a54c1a29b884a512bce3bbd40833d318346089"),
        ("psi", {"distribution": {"kind": "uniform", "a": 0, "b": 1}, "d": 3, "n": 2,
                 "height": 2, "samples": 40, "lambdas": ["1e30", "0.25"]},
         "84bec5ec3fa958012a04d19fa80abad87412d21d5846c181b765b198eb70de6f"),
        ("oracle", {"distribution": BERN, "n": 2, "height": 2, "lam": "1e30"},
         "b9ef83e41be49995b7c21563fc2c54044a5bb2695807eda1e2cc541d03b248d4"),
    ],
)
def test_unreachable_lambdas_miss(tmp_path, command, config, digest):
    """Thresholds past 2^63 units, which no flow reaches, give the CSVs that
    comparing each flow with them did."""
    cfg = write_config(tmp_path, "c.json", {"seed": 3, **config})
    out = tmp_path / f"{command}.csv"
    assert run([command, "--config", cfg, "--out", out]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_budget_exceeded_exit_code(tmp_path):
    cfg = write_config(
        tmp_path, "c.json",
        {"seed": 1, "distribution": BERN, "n": 2, "height": 2, "lam": "1", "budget": 4},
    )
    assert run(["oracle", "--config", cfg, "--out", tmp_path / "o.csv"]) == EXIT_BUDGET


def test_one_atom_oracle_on_a_huge_box_exceeds_the_budget(tmp_path, capsys):
    """One assignment of 2 * 10**10 edges is refused before it is formed."""
    one = {"kind": "finite_discrete", "atoms": [["1", "1"]]}
    cfg = write_config(
        tmp_path, "c.json", {"seed": 1, "distribution": one, "n": 10**5, "height": 10**5, "lam": "1"}
    )
    assert run(["oracle", "--config", cfg, "--out", tmp_path / "o.csv"]) == EXIT_BUDGET
    assert "budget" in capsys.readouterr().err


PSI_RUN = {"lambdas": ["1"], "samples": 2}


@pytest.mark.parametrize(
    "command, config",
    [
        ("psi", {"n": 2, "height": 10**12, **PSI_RUN}),
        ("psi", {"n": 2, "height": {"rule": "linear", "coeff": 1e12}, **PSI_RUN}),
        ("psi", {"n": 2, "height": {"rule": "linear", "coeff": 1e300}, **PSI_RUN}),
        ("nu", {"d": 3, "n_list": [2, 100000], "k_slab": 1, "replications": 2}),
        ("tau", {"d": 3, "n": 100000, "k_slab": 1}),
        ("sample", {"n": 2, "height": 10**12}),
        ("flow", {"d": 3, "n": 10**5, "height": 10**5}),
    ],
)
def test_box_too_large_to_sample_is_a_config_error(tmp_path, capsys, command, config):
    """More than 2**24 edges to sample exits 2 before anything is allocated."""
    cfg = write_config(tmp_path, "c.json", {"seed": 1, "distribution": BERN, **config})
    out = tmp_path / f"{command}.csv"
    assert run([command, "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert "2**24" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("d", [26, 10**9])
@pytest.mark.parametrize(
    "command, config",
    [
        ("psi", {"n": 1, "height": 1, **PSI_RUN}),
        ("tau", {"n": 1, "k_slab": 1}),
        ("nu", {"n_list": [1], "k_slab": 1, "replications": 2}),
    ],
)
def test_dimension_past_25_is_a_config_error(tmp_path, capsys, command, config, d):
    """A huge ``d`` exits 2 before the (n,) * (d - 1) box sides are built."""
    cfg = write_config(tmp_path, "c.json", {"seed": 1, "distribution": BERN, "d": d, **config})
    out = tmp_path / f"{command}.csv"
    assert run([command, "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_dimension_25_column_still_runs(tmp_path):
    cfg = write_config(
        tmp_path, "c.json",
        {"seed": 1, "distribution": BERN, "d": 25, "n": 1, "height": 1, **PSI_RUN},
    )
    assert run(["psi", "--config", cfg, "--out", tmp_path / "psi.csv"]) == EXIT_OK


def test_sampled_edge_bound_is_inclusive():
    """A box of n=1 has one edge per level; the oracle's box is not bounded."""
    assert _box(2, 1, MAX_SAMPLED_EDGES).edge_count == MAX_SAMPLED_EDGES
    with pytest.raises(ConfigError):
        _box(2, 1, MAX_SAMPLED_EDGES + 1)
    assert _box(2, 1, MAX_SAMPLED_EDGES + 1, sampled=False).edge_count == MAX_SAMPLED_EDGES + 1


def test_overflow_exit_code(tmp_path):
    cfg = write_config(
        tmp_path, "c.json",
        {
            "seed": 1,
            "distribution": {"kind": "bernoulli", "p": "1", "lo": 0, "hi": 1},
            "n": 2, "height": 2, "resolution": 2**62,
        },
    )
    assert run(["flow", "--config", cfg, "--out", tmp_path / "f.csv"]) == EXIT_OVERFLOW


def test_oracle_overflow_exit_code(tmp_path):
    """A support value of 2**64 units at R = 2**20 exits 4, not with a traceback."""
    cfg = write_config(
        tmp_path, "c.json",
        {
            "seed": 1,
            "distribution": {"kind": "bernoulli", "p": "0.5", "lo": 0, "hi": 2**44},
            "n": 2, "height": 1, "lam": 1,
        },
    )
    out = tmp_path / "o.csv"
    assert run(["oracle", "--config", cfg, "--out", out]) == EXIT_OVERFLOW
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_config_schemas_are_valid(command):
    """A run validates configs without re-checking its schema first."""
    Draft202012Validator.check_schema(SCHEMAS[command])


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("command", ["psi", "nu"])
def test_estimator_overflow_exit_code(tmp_path, command, d):
    """Every capacity is 2**62 units, so each replica's total passes 2**63 - 1."""
    config = {
        "seed": 1, "d": d, "resolution": 2**62,
        "distribution": {"kind": "bernoulli", "p": "1", "lo": 0, "hi": 1},
    }
    if command == "psi":
        config.update(n=2, height=2, lambdas=["0.5"], samples=3)
    else:
        config.update(n_list=[2], k_slab=1, replications=3)
    cfg = write_config(tmp_path, "c.json", config)
    assert run([command, "--config", cfg, "--out", tmp_path / "o.csv"]) == EXIT_OVERFLOW


def test_workers_env_override(tmp_path, monkeypatch):
    cfg = write_config(
        tmp_path, "c.json",
        {"seed": 12, "distribution": BERN, "n": 2, "height": 2, "lambdas": ["0.5"], "samples": 30},
    )
    base = tmp_path / "base.csv"
    assert run(["psi", "--config", cfg, "--out", base]) == EXIT_OK
    monkeypatch.setenv("LATTICEFLOW_WORKERS", "2")
    enved = tmp_path / "env.csv"
    assert run(["psi", "--config", cfg, "--out", enved]) == EXIT_OK
    assert base.read_bytes() == enved.read_bytes()


@pytest.mark.parametrize(
    "dist",
    [
        {"kind": "exponential", "rate": 1e-20},
        {"kind": "uniform", "a": "0", "b": "1e15"},
        {"kind": "bernoulli", "p": "0.5", "lo": 0, "hi": "1e15"},
    ],
    ids=lambda d: d["kind"],
)
def test_sampling_overflow_exit_code(tmp_path, dist):
    cfg = write_config(
        tmp_path, "c.json",
        {"seed": 1, "distribution": dist, "n": 2, "height": 2, "resolution": 2**20},
    )
    assert run(["sample", "--config", cfg, "--out", tmp_path / "s.csv"]) == EXIT_OVERFLOW


def test_distribution_missing_fields_is_config_error(tmp_path):
    for dist in ({"kind": "bernoulli"}, {"kind": "uniform", "a": 0}, {"p": "0.5"}):
        cfg = write_config(tmp_path, "c.json", {"seed": 1, "distribution": dist, "n": 2, "height": 2})
        assert run(["flow", "--config", cfg, "--out", tmp_path / "f.csv"]) == EXIT_CONFIG


def test_malformed_fraction_is_config_error(tmp_path):
    bad_p = write_config(
        tmp_path, "p.json",
        {"seed": 1, "distribution": {"kind": "bernoulli", "p": "0.9x"}, "n": 2, "height": 2},
    )
    assert run(["flow", "--config", bad_p, "--out", tmp_path / "f.csv"]) == EXIT_CONFIG
    bad_lam = write_config(
        tmp_path, "l.json",
        {"seed": 1, "distribution": BERN, "n": 2, "height": 2, "lambdas": ["1/0"], "samples": 2},
    )
    assert run(["psi", "--config", bad_lam, "--out", tmp_path / "p.csv"]) == EXIT_CONFIG


def test_nonpositive_workers_is_config_error(tmp_path, monkeypatch):
    cfg = write_config(
        tmp_path, "c.json",
        {"seed": 1, "distribution": BERN, "n": 2, "height": 2, "lambdas": ["0.5"], "samples": 2},
    )
    assert run(["psi", "--config", cfg, "--workers", 0, "--out", tmp_path / "a.csv"]) == EXIT_CONFIG
    monkeypatch.setenv("LATTICEFLOW_WORKERS", "-1")
    assert run(["psi", "--config", cfg, "--out", tmp_path / "b.csv"]) == EXIT_CONFIG


def test_report_on_empty_csv_is_config_error(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    cfg = write_config(tmp_path, "r.json", {"inputs": [str(empty)]})
    assert run(["report", "--config", cfg, "--out", tmp_path / "m.csv"]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "rule, coeff, n, h",
    [
        ("const", 2.5, 8, 3),
        ("log", 1.5, 8, 5),  # 1.5 * ceil(ln 8) = 4.5
        ("linear", 0.5, 8, 4),
    ],
)
def test_fractional_height_coeff_rounds_up(tmp_path, rule, coeff, n, h):
    cfg = write_config(
        tmp_path, "c.json",
        {
            "seed": 12, "distribution": BERN, "n": n,
            "height": {"rule": rule, "coeff": coeff}, "lambdas": ["0.5"], "samples": 2,
        },
    )
    out = tmp_path / "psi.csv"
    assert run(["psi", "--config", cfg, "--out", out]) == EXIT_OK
    header, row = out.read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["h"] == str(h)


def test_sidecar_names_value_solver(tmp_path):
    """The psi and nu sidecars name the value solver and count the sampling
    blocks each kernel drew: 2048 psi replicas of a 2x2 box fill 8 blocks of
    256 rows, two nu replicas on each of two slabs 4 one-row blocks. Runs in
    a fresh interpreter, where numpy.random is unloaded unless numpy < 2
    loads it eagerly, so the one-row blocks also take the array kernel."""
    psi = write_config(
        tmp_path, "psi.json",
        {"seed": 13, "distribution": BERN, "n": 2, "height": 2, "lambdas": ["0.5"], "samples": 2048},
    )
    nu = write_config(
        tmp_path, "nu.json",
        {"seed": 13, "distribution": BERN, "d": 3, "n_list": [2, 3], "k_slab": 1, "replications": 2},
    )
    verify = write_config(tmp_path, "verify.json", {"seed": 13, "scale": 0.0001})
    argvs = [[command, "--config", cfg, "--out", str(tmp_path / f"{command}.csv")]
             for command, cfg in (("psi", psi), ("nu", nu), ("verify", verify))]
    code = (
        "import json, sys, numpy\n"
        "eager = 'numpy.random' in sys.modules\n"
        "from latticeflow.cli import main\n"
        "print(json.dumps([eager, [main(argv) for argv in json.loads(sys.argv[1])]]))"
    )
    eager, codes = json.loads(_python(code, json.dumps(argvs)))
    assert codes == [EXIT_OK, EXIT_OK, EXIT_OK]
    for command in ("psi", "nu", "verify"):
        out = tmp_path / f"{command}.csv"
        peak = json.loads((tmp_path / f"{command}.csv.meta.json").read_text())["peak_rss_mb"]
        assert 1 < peak < 2**12  # MiB: a CLI process holds tens of them
        assert "rss" not in out.read_text()
    nu_blocks = {"vectorised": 0, "numpy": 4} if eager else {"vectorised": 4, "numpy": 0}
    for command, solver, blocks in (
        ("psi", "planar_dual", {"vectorised": 8, "numpy": 0}),
        ("nu", "search_trees", nu_blocks),
    ):
        out = tmp_path / f"{command}.csv"
        meta = json.loads((tmp_path / f"{command}.csv.meta.json").read_text())
        assert meta["value_solver"] == solver
        assert meta["sampler_blocks"] == blocks
        assert solver not in out.read_text() and "vectorised" not in out.read_text()


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is counted in KiB on Linux")
def test_peak_rss_counts_reaped_children():
    """A forked block that touches 96 MiB sets the peak the sidecar records,
    although the parent never holds that array."""
    code = (
        "import resource, numpy as np\n"
        "from latticeflow import cli, estimators\n"
        "estimators._fork_map([lambda: float(np.ones(12 * 2**20).sum()), lambda: 0.0], 2)\n"
        "usage = [resource.getrusage(who).ru_maxrss / 1024\n"
        "         for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]\n"
        "print(*usage, cli._peak_rss_mb())"
    )
    own, children, peak = map(float, _python(code).split())
    assert own < children and 96 < children
    assert peak == round(children, 2)


def test_half_normal_psi_draws_through_numpy(tmp_path, monkeypatch):
    """Sampling half_normal imports scipy.special, which loads numpy.random,
    so the run leaves no import for the array kernel to save: a 3x3 box at
    500 samples draws its 8 blocks through numpy even in a fresh interpreter,
    with the CSV of a run forced onto the array kernel."""
    cfg = write_config(
        tmp_path, "hn.json",
        {"seed": 1, "distribution": {"kind": "half_normal", "sigma": 1.0}, "n": 3, "height": 3,
         "lambdas": ["0.5", "1.0", "1.5"], "samples": 500},
    )
    argv = ["psi", "--config", cfg, "--out", str(tmp_path / "numpy.csv")]
    code = "import json, sys\nfrom latticeflow.cli import main\nprint(main(json.loads(sys.argv[1])))"
    assert int(_python(code, json.dumps(argv))) == EXIT_OK
    meta = json.loads((tmp_path / "numpy.csv.meta.json").read_text())
    assert meta["sampler_blocks"] == {"vectorised": 0, "numpy": 8}
    monkeypatch.setattr(estimators, "sampler", lambda blocks, processes: ["vectorised"] * len(blocks))
    assert run(["psi", "--config", cfg, "--out", tmp_path / "vectorised.csv"]) == EXIT_OK
    assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "vectorised.csv").read_bytes()


def test_sidecar_counts_bound_decisions(tmp_path):
    """The psi and oracle sidecars count the replicas or assignments the flow
    bounds decided and those solved; the CSV holds neither."""
    configs = {
        "psi": {"seed": 14, "distribution": BERN, "n": 2, "height": 2,
                "lambdas": ["0.5", "1", "0.75"], "samples": 300},
        "oracle": {"seed": 14, "distribution": {**BERN, "p": "0.5"}, "n": 3, "height": 2,
                   "lam": "1/3"},
    }
    for (command, config), rows in zip(configs.items(), (300, 2**10)):
        cfg = write_config(tmp_path, f"{command}.json", config)
        out = tmp_path / f"{command}.csv"
        assert run([command, "--config", cfg, "--out", out]) == EXIT_OK
        counts = json.loads((tmp_path / f"{command}.csv.meta.json").read_text())["solver_counts"]
        assert counts["decided_by_bounds"] + counts["solved"] == rows
        assert counts["decided_by_bounds"] > 0 and counts["solved"] > 0
        assert "solved" not in out.read_text()


UNIFORM = {"kind": "uniform", "a": 0, "b": 1}
EXPONENTIAL = {"kind": "exponential", "rate": 1.0}


@pytest.mark.parametrize(
    "command, config, digest",
    [
        ("flow", {"seed": 21, "distribution": UNIFORM, "n": 6, "height": 5},
         "a0f93f00c562415aa8ca64b92eb9f607ef87302731872ad87f1736f884f327ef"),
        ("flow", {"seed": 22, "distribution": {**BERN, "p": "0.5"}, "d": 3, "n": 3, "height": 3},
         "d68286b22109866c268fe32b4baca268befeff7d39b540e146c3315bcea71b9a"),
        ("flow", {"seed": 23, "distribution": EXPONENTIAL, "d": 3, "n": 3, "height": 4,
                  "k_disc": 16},
         "03e64ca53f9adcd84fd81ee5403aa7e4e93876d9eaac939d09b358fedc2dfac8"),
        ("tau", {"seed": 24, "distribution": UNIFORM, "n": 5, "k_slab": 3},
         "f996472d71a388867105b5852dc368f377db9cd4ca561a3bb1db0136a143fcb9"),
        ("tau", {"seed": 25, "distribution": EXPONENTIAL, "d": 3, "n": 3, "k_slab": 2},
         "c45fc709d33c6fc2a6b77fb300136fd1a582de0829e829088e7a9077923a8d53"),
        ("oracle", {"seed": 31, "distribution": {**BERN, "p": "0.5"}, "n": 3, "height": 2,
                    "lam": "1/3"},
         "8b65370dd06275a635e90d668555e2cd7b3322681a4bacb855226efe44723b94"),
        ("oracle", {"seed": 32, "distribution": {"kind": "finite_discrete",
                                                 "atoms": [["0", "1/4"], ["1/3", "1/4"], ["1", "1/2"]]},
                    "n": 2, "height": 2, "lam": "1/3", "resolution": 8},
         "c312369f4e5c4a2eb12c0d1ba97e127607825624c863263e69d4d2e520bfb4b7"),
        ("oracle", {"seed": 33, "distribution": BERN, "d": 3, "n": 2, "height": 1, "lam": "1/2"},
         "4db28d8fea7510d43664d9e5a1190e002a2cc8cb47f702dea3ec7cf40646a111"),
        ("oracle", {"seed": 2029, "distribution": {"kind": "finite_discrete",
                                                   "atoms": [["0", "1/4"], ["1/3", "1/4"], ["1", "1/2"]]},
                    "d": 3, "n": 2, "height": 1, "lam": "1/2", "resolution": 8},
         "9a1635705c75c50ba1e3513b88c02da1aa02c8072fb65b44426228bf79781f23"),
    ],
)
def test_certificate_csv_golden(tmp_path, command, config, digest):
    """The value and cut certificates the ``flow`` and ``tau`` commands print,
    and the exact probabilities of ``oracle``."""
    cfg = write_config(tmp_path, "c.json", config)
    out = tmp_path / f"{command}.csv"
    assert run([command, "--config", cfg, "--out", out]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "command, config",
    [
        ("oracle", {"distribution": UNIFORM, "n": 2, "height": 1, "lam": "0.5"}),
        ("oracle", {"distribution": BERN, "n": 2, "height": 1, "lam": "-1/2"}),
        ("psi", {"distribution": BERN, "n": 2, "height": 2, "lambdas": ["0.5", -1], "samples": 2}),
    ],
)
def test_bad_law_or_lam_is_config_error(tmp_path, command, config):
    cfg = write_config(tmp_path, "c.json", {"seed": 1, **config})
    out = tmp_path / f"{command}.csv"
    assert run([command, "--config", cfg, "--out", out]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, digest",
    [
        ("sample", {"distribution": UNIFORM, "d": 3, "n": 3, "height": 2},
         "de916087dbee830d069a754c41ea9fd763d0bb0ececdbe81e1b0b8a4c8d9f2d0"),
        ("sample", {"distribution": {**BERN, "p": "0.5"}, "n": 4, "height": 3},
         "a97eb7fc4db230b714c1fbeafa8057b6ecdaeb5029d21f1028ef73afdb71e85c"),
        ("flow", {"distribution": UNIFORM, "d": 3, "n": 3, "height": 3},
         "ac78854aa4949453e34ca93d611dc090248083a541aa7135fe39a6bab8a03adb"),
        ("tau", {"distribution": {"kind": "half_normal", "sigma": 1.0}, "d": 3, "n": 3, "k_slab": 2},
         "daf8be67ca34b4a891d5725bea7ed43a23dc20dc545464413cfee6b3fb59904d"),
    ],
)
def test_api_boundary_csv_golden(tmp_path, command, config, digest):
    """Edge endpoints and kinds in ``sample``, cut edge ids in ``flow`` and the
    pinned cut in ``tau``, all at seed 2029."""
    cfg = write_config(tmp_path, "c.json", {"seed": 2029, **config})
    out = tmp_path / f"{command}.csv"
    assert run([command, "--config", cfg, "--out", out]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _python(code: str, *args) -> str:
    """stdout of ``code`` in a fresh interpreter that imports this latticeflow."""
    src = str(Path(latticeflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout


def test_cli_import_leaves_heavy_modules_unloaded(tmp_path):
    """Importing the CLI loads neither jsonschema, a process pool nor scipy,
    and a nu run forked over two workers loads no process pool either."""
    heavy = ["jsonschema", "concurrent.futures.process", "multiprocessing", "scipy"]
    code = "import sys, latticeflow.cli; print([m for m in sys.argv[1:] if m in sys.modules])"
    assert _python(code, *heavy).strip() == "[]"
    cfg = write_config(
        tmp_path, "nu.json",
        {"seed": 1, "distribution": {"kind": "exponential", "rate": 1.0}, "d": 3,
         "n_list": [2], "k_slab": 1, "replications": 4},
    )
    argv = ["nu", "--config", cfg, "--workers", "2", "--out", str(tmp_path / "nu.csv")]
    code = (
        "import json, sys\n"
        "from latticeflow.cli import main\n"
        "code = main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, [m for m in sys.argv[2:] if m in sys.modules]]))"
    )
    pool = ["concurrent.futures.process", "multiprocessing"]
    assert json.loads(_python(code, json.dumps(argv), *pool)) == [EXIT_OK, []]


def _force_numpy(monkeypatch):
    """Every block of every run in this process draws through numpy's generator."""
    monkeypatch.setattr(estimators, "sampler", lambda blocks, processes: ["numpy"] * len(blocks))


# Logs each process that imports numpy.random; forked pool workers inherit the hook.
_WATCH_NUMPY_RANDOM = (
    "import os, sys\n"
    "class Watch:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name == 'numpy.random':\n"
    "            open(os.environ['NUMPY_RANDOM_LOG'], 'a').write(f'{os.getpid()}\\n')\n"
    "sys.meta_path.insert(0, Watch())\n"
)


@pytest.mark.parametrize("command, workers", [("psi", 1), ("nu", 1), ("nu", 2)])
def test_short_runs_never_load_numpy_random(tmp_path, monkeypatch, command, workers):
    """The 32x32 uniform psi run of the benchmark and the small nu run of the
    CI, at one and two workers, sample every block with the array kernel, so
    no process loads numpy.random, and their CSVs equal those of runs forced
    onto numpy's generator."""
    configs = {
        "psi": {"seed": 1, "distribution": {"kind": "uniform", "a": "0", "b": "1"}, "d": 2,
                "n": 32, "height": 32, "lambdas": ["0.2", "0.3", "0.4", "0.5"], "samples": 30},
        "nu": {"seed": 1, "distribution": {"kind": "exponential", "rate": 1.0}, "d": 3,
               "n_list": [2], "k_slab": 1, "replications": 4},
    }
    cfg = write_config(tmp_path, "c.json", configs[command])
    argv = [command, "--config", cfg, "--workers", str(workers)]
    log = tmp_path / "numpy_random.log"
    monkeypatch.setenv("NUMPY_RANDOM_LOG", str(log))
    code = _WATCH_NUMPY_RANDOM + (
        "import json, numpy\n"
        "eager = 'numpy.random' in sys.modules\n"
        "from latticeflow.cli import main\n"
        "print(json.dumps([eager, main(json.loads(sys.argv[1]))]))"
    )
    eager, exit_code = json.loads(_python(code, json.dumps([*argv, "--out", str(tmp_path / "a.csv")])))
    assert exit_code == EXIT_OK
    if not eager:
        assert not log.exists()
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert meta["sampler_blocks"]["numpy"] == 0
    _force_numpy(monkeypatch)
    assert run([*argv, "--out", tmp_path / "b.csv"]) == EXIT_OK
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert json.loads((tmp_path / "b.csv.meta.json").read_text())["sampler_blocks"]["vectorised"] == 0


def test_two_slab_nu_forks_one_pool(tmp_path, monkeypatch):
    """A nu run maps the replicas of all its slabs over one fork-join map,
    and its CSV equals that of a one-worker run."""
    sizes = []
    fork_map = estimators._fork_map

    def counting_fork_map(calls, processes):
        sizes.append(processes)
        return fork_map(calls, processes)

    cfg = write_config(
        tmp_path, "nu.json",
        {"seed": 1, "distribution": {"kind": "exponential", "rate": 1.0}, "d": 3,
         "n_list": [2, 3], "k_slab": 1, "replications": 4},
    )
    assert run(["nu", "--config", cfg, "--out", tmp_path / "serial.csv"]) == EXIT_OK
    monkeypatch.setattr(estimators, "_fork_map", counting_fork_map)
    assert run(["nu", "--config", cfg, "--workers", "2", "--out", tmp_path / "pooled.csv"]) == EXIT_OK
    assert sizes == [2]
    assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "pooled.csv").read_bytes()
    assert len((tmp_path / "serial.csv").read_text().splitlines()) == 3


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_overflow_exits_4(tmp_path):
    """A CapacityOverflowError raised in a forked child reaches the CLI as
    itself: every slab replica's total passes 2**63 - 1."""
    cfg = write_config(
        tmp_path, "c.json",
        {"seed": 1, "d": 3, "resolution": 2**62, "n_list": [2], "k_slab": 1, "replications": 3,
         "distribution": {"kind": "bernoulli", "p": "1", "lo": 0, "hi": 1}},
    )
    assert run(["nu", "--config", cfg, "--workers", "2", "--out", tmp_path / "o.csv"]) == EXIT_OVERFLOW
    _assert_no_child_left()


@pytest.mark.parametrize("end", ["exit", "kill"])
def test_crashed_child_exits_1(tmp_path, monkeypatch, end):
    """A child that ends without a result, by os._exit or SIGKILL, makes the
    run exit 1 and leaves no child behind."""
    parent = os.getpid()

    def crash(*args):
        assert os.getpid() != parent, "a block ran in the parent"
        if end == "exit":
            os._exit(3)
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(estimators, "_block_solve", crash)
    cfg = write_config(
        tmp_path, "c.json",
        {"seed": 1, "distribution": {"kind": "exponential", "rate": 1.0}, "d": 3,
         "n_list": [2], "k_slab": 1, "replications": 4},
    )
    assert run(["nu", "--config", cfg, "--workers", "2", "--out", tmp_path / "o.csv"]) == EXIT_ERROR
    assert not (tmp_path / "o.csv").exists()
    _assert_no_child_left()


def test_tiny_box_psi_leaves_numpy_random_unloaded(monkeypatch):
    """The 2x2 bernoulli(0.9) box at 20 000 replicas samples every block with
    the array kernel, so numpy.random is never imported, and its hit counts
    equal those of numpy's own generator. numpy < 2 imports numpy.random with
    numpy itself, so there only the hit counts are checked."""
    code = (
        "import json, sys, numpy\n"
        "eager = 'numpy.random' in sys.modules\n"
        "from latticeflow.capacity import DistributionSpec\n"
        "from latticeflow.estimators import estimate_psi_sweep\n"
        "est = estimate_psi_sweep(DistributionSpec.bernoulli('0.9'), ['0.5', '1'], 2, 2, 2**20, 20000, 1)\n"
        "print(json.dumps([eager, 'numpy.random' in sys.modules, [e.hits for e in est]]))\n"
    )
    eager, loaded, hits = json.loads(_python(code))
    if not eager:
        assert not loaded
    _force_numpy(monkeypatch)
    est = estimate_psi_sweep(DistributionSpec.bernoulli("0.9"), ["0.5", "1"], 2, 2, 2**20, 20000, 1)
    assert hits == [e.hits for e in est]


def test_runs_need_no_jsonschema(tmp_path):
    """With jsonschema unimportable, setup-size ``psi``, ``nu`` (through a
    two-worker pool) and ``verify`` runs exit 0 with the CSVs of normal runs."""
    configs = {
        "psi": {"seed": 1, "distribution": BERN, "n": 2, "height": 2, "lambdas": ["0.5", "1"],
                "samples": 5},
        "nu": {"seed": 1, "distribution": {"kind": "exponential", "rate": 1.0}, "d": 3,
               "n_list": [2], "k_slab": 1, "replications": 4, "workers": 2},
        "verify": {"seed": 1, "scale": 0.0001},
    }
    argvs = []
    for command, config in configs.items():
        cfg = write_config(tmp_path, f"{command}.json", config)
        argvs.append([command, "--config", cfg, "--out", str(tmp_path / f"blocked_{command}.csv")])
        assert run([command, "--config", cfg, "--out", tmp_path / f"{command}.csv"]) == EXIT_OK
    code = (
        "import json, sys\n"
        "sys.modules['jsonschema'] = None\n"
        "from latticeflow.cli import main\n"
        "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))"
    )
    assert json.loads(_python(code, json.dumps(argvs))) == [EXIT_OK] * len(configs)
    for command in configs:
        blocked = (tmp_path / f"blocked_{command}.csv").read_bytes()
        assert blocked == (tmp_path / f"{command}.csv").read_bytes()
