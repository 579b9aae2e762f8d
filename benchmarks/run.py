"""The latticeflow benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --smoke

Run from the repository root. Each run times fresh ``python3 -m
latticeflow.cli <command>`` processes built from ``src/`` of the current
directory, one after another (a closed loop with one client). The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the run record.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
  setup_s         median wall of the smallest config, over SETUP_REPEATS runs
  wall_s          median wall of the full config, repeated for --seconds
  replicas_per_s  replicas (property trials for verify) / wall_s
  peak_rss_mb     median over the timed runs of the largest process RSS

``--trace 1`` reports the per-layer metrics (see spans.py) from a run of the
full config under trace_cli.py with one worker, and ``trace.overhead``, its
wall over the median wall of untraced one-worker runs.

A command run fails on a non-zero exit, on a CSV that differs from the
reference digest (reference.json) or from another run of the same config,
or on a failed output check (workloads.py). ``failed / attempted`` is the
error rate. ``--smoke`` runs every workload once at its setup size in both
modes and checks that every metric of BENCHMARK.json appears with its unit.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from spans import SpanTree, layer_metrics
from workloads import DEFAULT_SEED, MAX_SEED, WORKLOADS, Rows, Workload, input_seeds, replica_count

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
UNTRACED_MIN_REPEATS = 2
RUN_BUDGET_S = 170.0


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


@dataclass
class CommandRun:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    digest: str
    rows: Rows


@dataclass
class Runner:
    """Runs latticeflow processes and keeps the run's tally of failures."""

    root: Path
    workdir: Path
    references: dict
    deadline: float
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    first_digest: dict = field(default_factory=dict)

    def _env(self) -> dict:
        env = dict(os.environ)
        env.pop("LATTICEFLOW_WORKERS", None)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        return env

    def _spawn(self, argv: list[str], tag: str) -> tuple[float, float, int]:
        """Run one process group to completion: wall s, peak RSS MB, exit code."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run budget exhausted")
        with open(self.workdir / f"{tag}.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.workdir, env=self._env(), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
            )
            timer = threading.Timer(remaining, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # Interrupted or terminated: leave no process of the group behind.
                _kill_group(proc.pid)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB and covers the process and its reaped pool workers.
        return wall, usage.ru_maxrss / 1024, proc.returncode

    def run(self, w: Workload, config: dict, tag: str, *, workers: int, trace: str | None = None) -> CommandRun:
        """One ``latticeflow`` run of ``config``; ``trace`` is trace_cli's ONLY argument."""
        cfg_path = self.workdir / f"{tag}.json"
        out_path = self.workdir / f"{tag}.csv"
        cfg_path.write_text(json.dumps(config))
        cli_args = [w.command, "--config", str(cfg_path), "--out", str(out_path), "--workers", str(workers)]
        if trace is None:
            argv = [sys.executable, "-m", "latticeflow.cli", *cli_args]
        else:
            spans = self.workdir / f"{tag}.spans.json"
            argv = [sys.executable, str(BENCH_DIR / "trace_cli.py"), str(spans), trace, "--", *cli_args]
        self.attempted += 1
        try:
            wall, rss, code = self._spawn(argv, tag)
        except TimeoutError:
            self.failed += 1
            raise
        digest, rows = "", []
        if code == 0:
            data = out_path.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            rows = list(csv.DictReader(data.decode().splitlines()))
        run = CommandRun(wall, rss, code, digest, rows)
        problems = self._check(w, config, run)
        if problems:
            self.failed += 1
            stderr_tail = (self.workdir / f"{tag}.err").read_text(errors="replace")[-2000:]
            self.problems.append(f"{w.name} {tag}: " + "; ".join(problems) + "\n" + stderr_tail)
        return run

    def _check(self, w: Workload, config: dict, run: CommandRun) -> list[str]:
        if run.exit_code != 0:
            return [f"exit code {run.exit_code}"]
        problems = []
        key = json.dumps(config, sort_keys=True)
        first = self.first_digest.setdefault(key, run.digest)
        if run.digest != first:
            problems.append("CSV differs from an earlier run of the same config")
        reference = self.references.get(w.name, {}).get(str(config["seed"]))
        if reference and config == w.config(config["seed"]) and run.digest != reference:
            problems.append(f"CSV sha256 {run.digest} differs from the reference {reference}")
        return problems + w.check(config, run.rows)


def run_record(root: Path, w: Workload, seed: int, seconds: int, trace: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "worker_scaling": f"measured only up to {max(x.workers for x in WORKLOADS.values())} workers, on {os.cpu_count()} cores",
        "loadavg_before": os.getloadavg(),
    }


def end_to_end(runner: Runner, w: Workload, seed: int, seconds: float, smoke: bool) -> tuple[dict, dict]:
    setups = [
        runner.run(w, w.config(seed, setup=True), f"setup{i}", workers=w.workers)
        for i in range(1 if smoke else SETUP_REPEATS)
    ]
    configs = [w.config(s, setup=smoke) for s in input_seeds(seed)]
    timed, rates = [], []
    start = time.perf_counter()
    while not timed or (not smoke and time.perf_counter() - start < seconds):
        config = configs[len(timed) % len(configs)]
        run = runner.run(w, config, f"timed{len(timed)}", workers=w.workers)
        timed.append(run)
        rates.append(replica_count(w.command, config, run.rows) / run.wall_s)
    metrics = {
        "wall_s": (statistics.median(r.wall_s for r in timed), "s"),
        "replicas_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(r.wall_s for r in setups), "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in timed), "MB"),
    }
    details = {
        "setup_walls_s": [r.wall_s for r in setups],
        "timed_walls_s": [r.wall_s for r in timed],
        "csv_sha256": timed[0].digest,
    }
    return metrics, details


def per_layer(runner: Runner, w: Workload, seed: int, seconds: float, smoke: bool) -> tuple[dict, dict]:
    config = w.config(seed, setup=smoke)
    start = time.perf_counter()
    traced = runner.run(w, config, "traced", workers=1, trace="all")
    trace_tree = SpanTree(runner.workdir / "traced.spans.json")
    pool_tree = trace_tree
    if w.workers > 1:
        runner.run(w, config, "pool", workers=w.workers, trace="estimators._map_indices")
        pool_tree = SpanTree(runner.workdir / "pool.spans.json")
    untraced = []
    while len(untraced) < UNTRACED_MIN_REPEATS or time.perf_counter() - start < seconds:
        untraced.append(runner.run(w, config, f"untraced{len(untraced)}", workers=1))
        if smoke:
            break
    metrics = layer_metrics(trace_tree, pool_tree, w.workers)
    untraced_wall = statistics.median(r.wall_s for r in untraced)
    metrics["trace.overhead"] = (traced.wall_s / untraced_wall, "ratio")
    details = {"spans": len(trace_tree.fn), "traced_wall_s": traced.wall_s, "untraced_walls_s": [r.wall_s for r in untraced]}
    return metrics, details


def run_workload(root: Path, name: str, seed: int, seconds: int, trace: int, smoke: bool = False) -> tuple[dict, dict]:
    """Returns (result line, run record)."""
    w = WORKLOADS[name]
    references = json.loads((BENCH_DIR / "reference.json").read_text())
    workdir = root / ".bench_run" / f"{name}-{os.getpid()}-{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    record = run_record(root, w, seed, seconds, trace)
    runner = Runner(root, workdir, references, time.monotonic() + RUN_BUDGET_S)
    try:
        measure = per_layer if trace else end_to_end
        metrics, details = measure(runner, w, seed, seconds, smoke)
    except (TimeoutError, FileNotFoundError, json.JSONDecodeError) as err:
        # Out of time, or a failed traced run left no spans: already counted.
        runner.problems.append(f"{name}: {type(err).__name__}: {err}")
        metrics, details = {}, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    record.update(details, loadavg_after=os.getloadavg(), problems=runner.problems)
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record


def smoke(root: Path) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("smoke: BENCHMARK.json workloads differ from workloads.py", file=sys.stderr)
        return 1
    bad = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            result, record = run_workload(root, name, DEFAULT_SEED, 1, trace, smoke=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            ok = result["correct"] and got == expected[trace]
            bad += not ok
            print(f"smoke {name} trace={trace}: {'ok' if ok else 'FAIL'}")
            if not ok:
                print(json.dumps({"expected": expected[trace], "got": got, "problems": record["problems"]}), file=sys.stderr)
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _terminate)
    root = Path.cwd()
    if not (root / "src" / "latticeflow" / "cli.py").is_file():
        print("benchmark: run from the repository root; src/latticeflow is missing", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if args.workload is None or not 0 <= args.seed <= MAX_SEED or args.seconds < 1:
        parser.error(f"--workload is required, --seed must be in [0, {MAX_SEED}] and --seconds >= 1")
    result, record = run_workload(root, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
