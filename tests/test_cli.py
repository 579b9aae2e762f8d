import hashlib
import json
import math
from fractions import Fraction

import pytest

from latticeflow.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_OVERFLOW,
    _resolve_height,
    main,
)


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


def test_budget_exceeded_exit_code(tmp_path):
    cfg = write_config(
        tmp_path, "c.json",
        {"seed": 1, "distribution": BERN, "n": 2, "height": 2, "lam": "1", "budget": 4},
    )
    assert run(["oracle", "--config", cfg, "--out", tmp_path / "o.csv"]) == EXIT_BUDGET


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
    psi = write_config(
        tmp_path, "psi.json",
        {"seed": 13, "distribution": BERN, "n": 2, "height": 2, "lambdas": ["0.5"], "samples": 2},
    )
    nu = write_config(
        tmp_path, "nu.json",
        {"seed": 13, "distribution": BERN, "d": 3, "n_list": [2], "k_slab": 1, "replications": 2},
    )
    for command, cfg, solver in (("psi", psi, "planar_dual"), ("nu", nu, "contracted_dinic")):
        out = tmp_path / f"{command}.csv"
        assert run([command, "--config", cfg, "--out", out]) == EXIT_OK
        meta = json.loads((tmp_path / f"{command}.csv.meta.json").read_text())
        assert meta["value_solver"] == solver
        assert solver not in out.read_text()


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
    ],
)
def test_certificate_csv_golden(tmp_path, command, config, digest):
    """The value and cut certificates the ``flow`` and ``tau`` commands print."""
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
