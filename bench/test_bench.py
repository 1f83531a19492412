"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from checks import check_run  # noqa: E402
from harness import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_the_declared_metrics(workload, trace):
    proc = _run_bench(
        "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace, "--smoke"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_metric_tables_match_benchmark_json():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(END_TO_END_UNITS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(PER_LAYER_UNITS)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)


def test_same_seed_gives_same_input(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "INPUT_DIR", tmp_path)
    first = workloads.ensure_input(5, 11)
    first.path.unlink()  # force regeneration instead of a cache hit
    again = workloads.ensure_input(5, 11)
    other = workloads.ensure_input(5, 12)
    assert again.sha256 == first.sha256
    assert other.sha256 != first.sha256
    assert again.records == first.records > 0


@pytest.fixture
def optimize_output(tmp_path, monkeypatch):
    """A real N=4 optimize run and the workload/input it was made from."""
    monkeypatch.setattr(workloads, "INPUT_DIR", tmp_path / "inputs")
    workload = workloads.WORKLOADS["n32-kernel-descent"].smoke()
    inp = workloads.ensure_input(workload.n, 3)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload.config))
    out_dir = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "blissdf.cli", "optimize", "--input", str(inp.path),
         "--rank", str(workload.rank), "--config", str(config), "--out", str(out_dir)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert check_run(workload, inp, out_dir, 0).ok
    return workload, inp, out_dir


def _edit_report(out_dir, edit):
    path = out_dir / "report.json"
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))


def test_gate_fails_on_nonzero_exit(optimize_output):
    workload, inp, out_dir = optimize_output
    assert not check_run(workload, inp, out_dir, 3).ok


def test_gate_fails_when_optimized_lambda_exceeds_xdf(optimize_output):
    workload, inp, out_dir = optimize_output

    def raise_lambda(report):
        report["runs"][1]["lambda"] = report["runs"][0]["lambda"] * 1.01

    _edit_report(out_dir, raise_lambda)
    assert not check_run(workload, inp, out_dir, 0).ok


def test_gate_fails_on_a_bad_trace_line(optimize_output):
    workload, inp, out_dir = optimize_output
    path = out_dir / "trace.jsonl"
    lines = path.read_text().splitlines()
    row = json.loads(lines[-1])
    row["err"] = -1.0
    lines[-1] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")
    outcome = check_run(workload, inp, out_dir, 0)
    assert any("trace.jsonl" in p for p in outcome.problems)


def test_gate_fails_on_truncated_factors(optimize_output):
    workload, inp, out_dir = optimize_output
    path = out_dir / "factors.npz"
    path.write_bytes(path.read_bytes()[:100])
    assert not check_run(workload, inp, out_dir, 0).ok


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        shutil.copy(path, bench)
    proc = _run_bench(
        "--workload", "n8-full-descent", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
