"""One benchmark run: a workload at a seed, untraced or traced.

Untraced (``--trace 0``) runs give the end-to-end metrics. Fresh
``child.py setup`` processes time set-up (import, load, initial DF), then
the real CLI (``python3 -m blissdf.cli``) runs as a subprocess, repeatedly,
until ``--seconds`` is used up. Timings are medians over the run's repeats.

Traced (``--trace 1``) runs give the per-layer metrics. ``child.py cli``
runs ``blissdf.cli.main`` once plain and once with the layer wrappers, and
then probes the public kernels at the workload's shape; the difference of
the two ``main`` times is the tracing overhead.

All load comes from this one process: children run one at a time.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import check_run
from workloads import OUT_DIR, ROOT, ensure_input

CHILD = ROOT / "bench" / "child.py"

# Every run must end within 180 s; children are killed at this deadline.
RUN_LIMIT_S = 170.0
# Set-up probes stop after this share of --seconds or this many samples.
SETUP_SHARE = 0.25
SETUP_MAX_SAMPLES = 15

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "iters_per_s": "1/s",
    "peak_rss_mb": "MB",
    "lambda_ratio": "ratio",
    "pass_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "fcidump.load_s": "s",
    "fcidump.records_per_s": "1/s",
    "factorization.initial_df_s": "s",
    "factorization.initial_df_calls": "count",
    "factorization.lambda_df_s": "s",
    "factorization.save_s": "s",
    "factorization.npz_bytes": "bytes",
    "factorization.nuclear_norm_loop_ms": "ms",
    "hamiltonian.frobenius_s": "s",
    "hamiltonian.shift_build_ms": "ms",
    "hamiltonian.reconstruct_ms": "ms",
    "hamiltonian.residual_ms": "ms",
    "optimizer.optimize_s": "s",
    "optimizer.evaluations": "count",
    "optimizer.iter_ms": "ms",
    "optimizer.total_cost_ms": "ms",
    "optimizer.gradient_ms": "ms",
    "optimizer.step_overhead_ms": "ms",
    "optimizer.gemm_gflop_per_eval": "GFLOP",
    "optimizer.gemm_gflops": "GFLOP/s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.trace_lines": "count",
    "trace_overhead_s": "s",
}


@dataclass
class ChildRun:
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


class Run:
    """State of one benchmark run: deadline, invocation tally, problems."""

    def __init__(self, workload, threads: int):
        self.workload = workload
        self.deadline = perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.update({var: str(threads) for var in BLAS_THREAD_VARS})
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        (OUT_DIR / "work").mkdir(parents=True, exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR / "work"))

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(f"{what}: {p}" for p in problems)

    def child(self, argv: list[str], name: str) -> ChildRun:
        """Run one child to completion, timing it and reading its peak RSS."""
        self.attempted += 1
        timeout = max(self.deadline - perf_counter(), 1.0)
        with open(self.work / f"{name}.out", "w+") as out, open(
            self.work / f"{name}.err", "w+"
        ) as err:
            start = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=self.env, stdout=out, stderr=err
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall_s = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            # ru_maxrss is in KiB on Linux.
            return ChildRun(proc.returncode, wall_s, usage.ru_maxrss / 1024, out.read(), err.read())

    def cli_args(self, inp, out_dir: Path) -> list[str]:
        wl = self.workload
        args = [wl.command, "--input", str(inp.path), "--rank", str(wl.rank), "--out", str(out_dir)]
        if wl.config is not None:
            config_path = self.work / "config.json"
            config_path.write_text(json.dumps(wl.config))
            args += ["--config", str(config_path)]
        return args

    def time_left(self, next_s: float) -> bool:
        return perf_counter() + next_s < self.deadline


def _stderr_tail(run: ChildRun) -> list[str]:
    return run.stderr.strip().splitlines()[-3:]


def measure_end_to_end(run: Run, inp, seconds: float) -> tuple[dict, dict]:
    """Set-up probes, then CLI repeats until ``seconds`` is used up."""
    wl = run.workload
    setup_times, setup_hashes = [], set()
    t0 = perf_counter()
    for probe in range(SETUP_MAX_SAMPLES):
        child = run.child(
            [str(CHILD), "setup", "--input", str(inp.path), "--rank", str(wl.rank)],
            f"setup-{probe}",
        )
        try:
            sample = json.loads(child.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            sample = None
        if child.exit_code != 0 or sample is None:
            run.fail("setup probe", [f"exit code {child.exit_code}", *_stderr_tail(child)])
        else:
            setup_times.append(sample["setup_s"])
            setup_hashes.add(sample["factors_sha256"])
        spent = perf_counter() - t0
        if spent + child.wall_s > SETUP_SHARE * seconds or not run.time_left(2 * child.wall_s):
            break
    if len(setup_hashes) > 1:
        run.fail("setup probe", ["initial factors differ between processes"])

    walls, rss, outcomes = [], [], []
    while True:
        out_dir = run.work / f"cli-{len(walls)}"
        child = run.child(["-m", "blissdf.cli", *run.cli_args(inp, out_dir)], f"cli-{len(walls)}")
        outcome = check_run(wl, inp, out_dir, child.exit_code)
        shutil.rmtree(out_dir, ignore_errors=True)
        walls.append(child.wall_s)
        rss.append(child.peak_rss_mb)
        if outcome.ok and outcomes and outcome.hashes != outcomes[0].hashes:
            outcome.problems.append("outputs differ from the first passing repeat")
        if outcome.ok and wl.command == "factorize" and setup_hashes - {outcome.factors_sha256}:
            outcome.problems.append("factors differ from the set-up probe's")
        if not outcome.ok:
            run.fail(f"cli repeat {len(walls) - 1}", outcome.problems + _stderr_tail(child))
        else:
            outcomes.append(outcome)
        enough = len(walls) >= wl.min_repeats
        if not run.time_left(1.5 * child.wall_s) or (
            enough and perf_counter() - t0 + child.wall_s > seconds
        ):
            break

    wall = statistics.median(walls)
    first = outcomes[0] if outcomes else None
    # factorize has no descent: its one pass counts as one iteration.
    iterations = first.iterations if first and first.iterations is not None else 1
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setup_times) if setup_times else None,
        "iters_per_s": iterations / wall,
        "peak_rss_mb": statistics.median(rss),
        "lambda_ratio": first.lambda_ratio if first else None,
    }
    samples = {"wall_s": walls, "setup_s": setup_times, "peak_rss_mb": rss}
    return metrics, samples


def _span_totals(spans: list, wrapped: set[str]) -> dict:
    """Per span name: total time, call count and self time (minus children)."""
    totals = {name: {"s": 0.0, "calls": 0, "self_s": 0.0} for name in wrapped}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for index, (name, start, end, _) in enumerate(spans):
        totals[name]["s"] += end - start
        totals[name]["calls"] += 1
        totals[name]["self_s"] += end - start - child_time[index]
    return totals


def measure_layers(run: Run, inp) -> tuple[dict, dict]:
    """One plain and one traced in-process CLI run, then the kernel probes."""
    wl = run.workload
    results, outcomes = {}, {}
    for mode in ("plain", "traced"):
        out_dir = run.work / mode
        result_path = run.work / f"{mode}.json"
        argv = [str(CHILD), "cli", "--result", str(result_path)]
        argv += ["--trace"] if mode == "traced" else []
        child = run.child([*argv, "--", *run.cli_args(inp, out_dir)], mode)
        outcome = check_run(wl, inp, out_dir, child.exit_code)
        shutil.rmtree(out_dir, ignore_errors=True)
        if mode == "traced" and outcome.ok and outcome.hashes != outcomes["plain"].hashes:
            outcome.problems.append("traced outputs differ from the plain run's")
        if not outcome.ok:
            run.fail(f"{mode} cli", outcome.problems + _stderr_tail(child))
            return {name: None for name in PER_LAYER_UNITS}, {}
        results[mode] = json.loads(result_path.read_text())
        outcomes[mode] = outcome

    traced = results["traced"]
    totals = _span_totals(traced["spans"], set(traced["wrapped"]))
    probes = traced["probes"] or {}

    def total(name, key="s"):
        return totals[name][key] if name in totals else None

    evaluations = traced["evaluations"] or 0
    load_s = total("fcidump.load_integrals")
    descent_self = total("optimizer.optimize", "self_s")
    iter_ms = None
    if descent_self is not None:
        iter_ms = descent_self / evaluations * 1e3 if evaluations else 0.0
    gradient_ms = probes.get("gradient_ms")
    step_overhead_ms = None
    if iter_ms is not None and gradient_ms is not None:
        step_overhead_ms = iter_ms - gradient_ms if evaluations else 0.0
    # Two N^2 x R x N^2 gemms per evaluation (reconstruction and gradient),
    # computed from the shapes, not counted.
    gflop = 4 * wl.n**4 * wl.rank / 1e9
    metrics = {
        "fcidump.load_s": load_s,
        "fcidump.records_per_s": inp.records / load_s if load_s else None,
        "factorization.initial_df_s": total("factorization.initial_df"),
        "factorization.initial_df_calls": total("factorization.initial_df", "calls"),
        "factorization.lambda_df_s": total("factorization.lambda_df"),
        "factorization.save_s": total("factorization.save_factor_set"),
        "factorization.npz_bytes": outcomes["traced"].npz_bytes,
        "factorization.nuclear_norm_loop_ms": probes.get("nuclear_norm_loop_ms"),
        "hamiltonian.frobenius_s": total("hamiltonian.frobenius_error"),
        "hamiltonian.shift_build_ms": probes.get("shift_build_ms"),
        "hamiltonian.reconstruct_ms": probes.get("reconstruct_ms"),
        "hamiltonian.residual_ms": probes.get("residual_ms"),
        "optimizer.optimize_s": total("optimizer.optimize"),
        "optimizer.evaluations": evaluations,
        "optimizer.iter_ms": iter_ms,
        "optimizer.total_cost_ms": probes.get("total_cost_ms"),
        "optimizer.gradient_ms": gradient_ms,
        "optimizer.step_overhead_ms": step_overhead_ms,
        "optimizer.gemm_gflop_per_eval": gflop,
        "optimizer.gemm_gflops": gflop / (gradient_ms / 1e3) if gradient_ms else None,
        "cli.import_s": traced["import_s"],
        "cli.self_s": total("cli.cmd", "self_s"),
        "cli.trace_lines": outcomes["traced"].trace_lines,
        "trace_overhead_s": traced["main_s"] - results["plain"]["main_s"],
    }
    samples = {
        "spans": {name: totals[name] for name in sorted(totals)},
        "plain_main_s": results["plain"]["main_s"],
        "traced_main_s": traced["main_s"],
    }
    return metrics, samples


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return sha.stdout.strip() or None


def environment(threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "blas": blas_name,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
    }


def run_benchmark(workload, seed: int, seconds: float, trace: bool, label: str):
    """Run one workload and write its results file.

    Returns (result line, full record, path of the results file).
    """
    threads = len(os.sched_getaffinity(0))
    inp = ensure_input(workload.n, seed)
    run = Run(workload, threads)
    try:
        if trace:
            metrics, samples = measure_layers(run, inp)
            units = PER_LAYER_UNITS
        else:
            metrics, samples = measure_end_to_end(run, inp, seconds)
            metrics["pass_ratio"] = (run.attempted - run.failed) / run.attempted
            units = END_TO_END_UNITS
    finally:
        run.close()

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "label": label,
        "environment": environment(threads),
        "workload": {
            "name": workload.name,
            "command": workload.command,
            "seed": seed,
            "n": workload.n,
            "rank": workload.rank,
            "reshape_rank": workload.reshape_rank,
            "null_space_share": max(workload.rank - workload.reshape_rank, 0) / workload.rank,
            "max_iters": workload.max_iters,
            "config": workload.config,
            "input_sha256": inp.sha256,
            "input_records": inp.records,
        },
        "seconds": seconds,
        "trace": trace,
        "fail_ratio": run.failed / run.attempted,
        "problems": run.problems,
        "samples": samples,
        **result,
    }
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"BENCH_{label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return result, record, path
