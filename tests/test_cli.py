import dataclasses
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import blissdf
from blissdf import (
    ShiftParams,
    apply_symmetry_shift,
    effective_one_body,
    lambda_df,
    load_factor_set,
    load_integrals,
    total_cost,
    write_integrals,
)
from blissdf import cli
from blissdf.verify import LEVELS, run_verification

from conftest import DATA_DIR, random_hamiltonian

# The package's parent directory, for the CLI run as a subprocess.
SRC_DIR = os.path.dirname(os.path.dirname(cli.__file__))

FIXTURE = str(DATA_DIR / "tiny2.fcidump")


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, **fields):
    base = {"max_iters": 150, "learning_rate": 1e-2, "patience": 150}
    base.update(fields)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return str(path)


class TestFactorize:
    def test_full_rank_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = run_cli(
            ["factorize", "--input", FIXTURE, "--rank", "4", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "lambda_df=" in stdout

        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema_version"] == cli.SCHEMA_VERSION
        assert summary["n_orbitals"] == 2
        assert summary["rank"] == 4
        assert summary["err"] <= 1e-10
        assert summary["input"]["sha256"] == hashlib.sha256(
            (DATA_DIR / "tiny2.fcidump").read_bytes()
        ).hexdigest()
        assert summary["lambda_df"] == pytest.approx(
            summary["lambda_one_body"] + summary["lambda_two_body"], rel=1e-12
        )
        # tiny2's pair space (P = 3) holds 2 nonzero factors of R = 4.
        assert len(summary["per_factor"]) == 2

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["kind"] == "factorize"
        assert manifest["input_checksum"] == summary["input"]["sha256"]
        assert manifest["config"] is None

        ham = load_integrals(FIXTURE)
        fs, kappa, xi, _ = load_factor_set(out / "factors.npz")
        assert kappa is None and xi is None
        recon = np.einsum("rij,rkl->ijkl", fs.factors, fs.factors)
        assert np.max(np.abs(recon - ham.g)) < 1e-10
        breakdown = lambda_df(fs, effective_one_body(ham))
        assert summary["lambda_df"] == pytest.approx(
            breakdown.lambda_total, abs=1e-12
        )

    def test_truncation_errors_monotone(self, tmp_path, capsys):
        errs = []
        for rank in (1, 2, 3, 4):
            out = tmp_path / f"r{rank}"
            code, _, _ = run_cli(
                [
                    "factorize",
                    "--input",
                    FIXTURE,
                    "--rank",
                    str(rank),
                    "--out",
                    str(out),
                ],
                capsys,
            )
            assert code == 0
            errs.append(json.loads((out / "summary.json").read_text())["err"])
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert lo <= hi + 1e-12
        assert errs[-1] <= 1e-10

    def test_missing_input(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            [
                "factorize",
                "--input",
                str(tmp_path / "absent.fcidump"),
                "--rank",
                "1",
                "--out",
                str(tmp_path / "o"),
            ],
            capsys,
        )
        assert code == 1
        assert "absent.fcidump" in stderr

    def test_input_not_utf8_exits_1_naming_the_line(self, tmp_path, capsys):
        bad = tmp_path / "latin1.fcidump"
        bad.write_bytes(b"&FCI NORB=1,NELEC=1 /\n1.0 1 1 0 0 \xff\n")
        argv = ["factorize", "--input", str(bad), "--rank", "1", "--out", str(tmp_path / "o")]
        code, _, stderr = run_cli(argv, capsys)
        assert code == 1
        assert stderr == "error: line 2: not UTF-8: invalid start byte at byte 0xff\n"
        assert not (tmp_path / "o").exists()

    def test_indefinite_tensor_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "indefinite.fcidump"
        bad.write_text(
            " &FCI NORB=2,NELEC=2,MS2=0,\n &END\n-1.0 1 1 2 2\n"
        )
        code, _, stderr = run_cli(
            [
                "factorize",
                "--input",
                str(bad),
                "--rank",
                "1",
                "--out",
                str(tmp_path / "o"),
            ],
            capsys,
        )
        assert code == 2
        assert "error:" in stderr
        # The manifest is written before the factorization runs.
        assert [p.name for p in (tmp_path / "o").iterdir()] == ["manifest.json"]

    def test_prints_effective_rank(self, tmp_path, capsys):
        # tiny2 has N=2: R may be N^2 = 4, and its pair space (P = 3) holds
        # only 2 nonzero eigenvalues.
        out = tmp_path / "run"
        code, stdout, _ = run_cli(
            ["factorize", "--input", FIXTURE, "--rank", "4", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "R=4 (2 nonzero)" in stdout
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rank"] == 4
        assert len(summary["per_factor"]) == 2
        assert 0.0 not in summary["per_factor"]


class TestOptimize:
    def test_prints_effective_rank(self, tmp_path, capsys):
        out = tmp_path / "opt"
        code, stdout, _ = run_cli(
            [
                "optimize",
                "--input",
                FIXTURE,
                "--rank",
                "4",
                "--config",
                write_config(tmp_path, max_iters=20),
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        assert "R=4 (2 nonzero)" in stdout
        report = json.loads((out / "report.json").read_text())
        assert [run["rank"] for run in report["runs"]] == [4, 4]

    def test_end_to_end_report(self, tmp_path, capsys):
        out = tmp_path / "opt"
        cfg = write_config(tmp_path)
        code, stdout, _ = run_cli(
            [
                "optimize",
                "--input",
                FIXTURE,
                "--rank",
                "4",
                "--config",
                cfg,
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        assert "lambda=" in stdout and "iterations=" in stdout

        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == cli.SCHEMA_VERSION
        methods = [run["method"] for run in report["runs"]]
        assert methods == ["XDF", "optimized"]
        xdf, opt = report["runs"]
        assert opt["lambda"] <= xdf["lambda"]
        assert opt["err"] <= xdf["err"] + report["config"]["err_budget"]
        assert set(report["best"]) == {"kappa", "xi"}
        best_row = (out / "trace.jsonl").read_text().splitlines()[opt["best_iteration"]]
        assert json.loads(best_row)["lambda"] == opt["lambda"]

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["kind"] == "optimize"
        assert manifest["config"] == report["config"]

    def test_reruns_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code, _, _ = run_cli(
                [
                    "optimize",
                    "--input",
                    FIXTURE,
                    "--rank",
                    "3",
                    "--config",
                    cfg,
                    "--out",
                    str(out),
                ],
                capsys,
            )
            assert code == 0
            outputs.append(out)
        for name in ("report.json", "trace.jsonl", "factors.npz"):
            a = (outputs[0] / name).read_bytes()
            b = (outputs[1] / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs sched_setaffinity and at least 2 CPUs",
    )
    def test_outputs_do_not_depend_on_the_core_count(self, tmp_path):
        # N=20 at R=N^2: the eigh stack holds 211 matrices, four blocks, so
        # the run with all CPUs splits it over threads and the one-CPU run
        # does not. Both must write the same bytes. Left to the CPU count,
        # OpenBLAS would run its products on one thread in the first run
        # and on more in the second, and at this size that changes bits.
        n = 20
        inp = tmp_path / "n20.fcidump"
        write_integrals(inp, random_hamiltonian(n, np.random.default_rng(70), n_electrons=n))
        cfg = write_config(tmp_path, max_iters=10, rel_tol=0.0)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC_DIR, os.environ.get("PYTHONPATH", "")]))
        one_cpu = min(os.sched_getaffinity(0))
        outputs = []
        for name, cpus in (("one", {one_cpu}), ("all", os.sched_getaffinity(0))):
            out = tmp_path / name
            argv = ["optimize", "--input", str(inp), "--rank", str(n * n), "--config", cfg, "--out", str(out)]
            subprocess.run(
                [sys.executable, "-m", "blissdf.cli", *argv],
                env=env,
                check=True,
                capture_output=True,
                timeout=300,
                preexec_fn=lambda cpus=cpus: os.sched_setaffinity(0, cpus),
            )
            outputs.append(out)
        for name in ("report.json", "trace.jsonl", "factors.npz"):
            a = (outputs[0] / name).read_bytes()
            b = (outputs[1] / name).read_bytes()
            assert a == b, f"{name} differs between one CPU and all CPUs"

    def test_artifacts_recompute_to_reported_values(self, tmp_path, capsys):
        out = tmp_path / "opt"
        cfg = write_config(tmp_path)
        code, _, _ = run_cli(
            [
                "optimize",
                "--input",
                FIXTURE,
                "--rank",
                "4",
                "--config",
                cfg,
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        opt_run = report["runs"][1]

        ham = load_integrals(FIXTURE)
        fs, kappa, xi, stored = load_factor_set(out / "factors.npz")
        assert stored["input_sha256"] == report["input"]["sha256"]
        assert kappa == report["best"]["kappa"]
        assert np.array_equal(xi, np.array(report["best"]["xi"]))

        _, err, lam = total_cost(ham, (kappa, xi, fs), report["phases"][-1]["c_approx"])
        assert abs(err - opt_run["err"]) <= 1e-10
        assert abs(lam - opt_run["lambda"]) <= 1e-10

        shifted = apply_symmetry_shift(
            ham, ShiftParams(kappa, xi, ham.n_electrons)
        )
        breakdown = lambda_df(fs, effective_one_body(shifted))
        assert abs(breakdown.lambda_total - opt_run["lambda"]) <= 1e-10

    def test_initial_factorization_runs_once(self, tmp_path, capsys, monkeypatch):
        from blissdf import optimizer

        calls = []
        original = optimizer.initial_double_factorization

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(optimizer, "initial_double_factorization", counted)
        monkeypatch.setattr(cli, "initial_double_factorization", counted)
        code, _, _ = run_cli(
            [
                "optimize",
                "--input",
                FIXTURE,
                "--rank",
                "3",
                "--config",
                write_config(tmp_path, max_iters=20),
                "--out",
                str(tmp_path / "opt"),
            ],
            capsys,
        )
        assert code == 0
        assert len(calls) == 1

        code, _, _ = run_cli(
            [
                "factorize",
                "--input",
                FIXTURE,
                "--rank",
                "3",
                "--out",
                str(tmp_path / "df"),
            ],
            capsys,
        )
        assert code == 0
        xdf = json.loads((tmp_path / "opt" / "report.json").read_text())["runs"][0]
        summary = json.loads((tmp_path / "df" / "summary.json").read_text())
        assert xdf["rank"] == summary["rank"] == 3
        assert xdf["lambda"] == summary["lambda_df"]
        for key in ("err", "lambda_one_body", "lambda_two_body"):
            assert xdf[key] == summary[key], key

    def test_trace_lines_validate(self, tmp_path, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        out = tmp_path / "opt"
        cfg = write_config(tmp_path, max_iters=40)
        code, _, _ = run_cli(
            [
                "optimize",
                "--input",
                FIXTURE,
                "--rank",
                "2",
                "--config",
                cfg,
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        schema = cli.load_schema("trace.schema.json")
        lines = (out / "trace.jsonl").read_text().splitlines()
        report = json.loads((out / "report.json").read_text())
        assert len(lines) == report["runs"][1]["iterations"] + 1
        for i, line in enumerate(lines):
            entry = json.loads(line)
            jsonschema.validate(entry, schema)
            assert entry["iter"] == i

    def test_trace_phases_follow_the_report(self, tmp_path, capsys):
        # The default schedule at 40 iterations and patience 3: the soft
        # phase runs to its cap, row 20, then the stiff weight, none of whose
        # rows is feasible, at lr until its Total stall and at lr / 10 until
        # the next, which ends the run.
        out = tmp_path / "opt"
        cfg = write_config(tmp_path, max_iters=40, patience=3, rel_tol=1e-3)
        code, _, _ = run_cli(["optimize", "--input", FIXTURE, "--rank", "4", "--config", cfg, "--out", str(out)], capsys)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        firsts = [phase["first_iteration"] for phase in report["phases"]]
        assert firsts[:2] == [0, 21] and len(firsts) == 3
        assert [phase["learning_rate"] for phase in report["phases"]] == [1e-2, 1e-2, 1e-3]
        assert report["phases"][1]["c_approx"] == report["phases"][2]["c_approx"]
        assert report["runs"][1]["stop_reason"] == "converged"
        phases = [json.loads(line)["phase"] for line in (out / "trace.jsonl").read_text().splitlines()]
        stops = firsts[1:] + [report["runs"][1]["iterations"] + 1]
        assert phases == [index for index, (first, stop) in enumerate(zip(firsts, stops)) for _ in range(first, stop)]

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"learning_rat": 0.1}))
        code, _, stderr = run_cli(
            [
                "optimize",
                "--input",
                FIXTURE,
                "--rank",
                "2",
                "--config",
                str(bad),
                "--out",
                str(tmp_path / "o"),
            ],
            capsys,
        )
        assert code == 1
        assert "unknown config keys" in stderr

    def test_non_numeric_config_value_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"learning_rate": "0.1"}))
        code, _, stderr = run_cli(
            [
                "optimize",
                "--input",
                FIXTURE,
                "--rank",
                "2",
                "--config",
                str(bad),
                "--out",
                str(tmp_path / "o"),
            ],
            capsys,
        )
        assert code == 1
        assert stderr.startswith("error: learning_rate must be a number")
        assert "Traceback" not in stderr
        assert not (tmp_path / "o").exists()

    def test_nan_config_value_exits_1(self, tmp_path, capsys):
        # json.loads accepts the NaN token, and an integer past float64; no float64 holds either.
        for value in ("NaN", "1" + "0" * 400):
            bad = tmp_path / "bad.json"
            bad.write_text('{"err_budget": %s}' % value)
            code, _, stderr = run_cli(
                [
                    "optimize",
                    "--input",
                    FIXTURE,
                    "--rank",
                    "2",
                    "--config",
                    str(bad),
                    "--out",
                    str(tmp_path / "o"),
                ],
                capsys,
            )
            assert code == 1
            assert stderr.startswith(f"error: err_budget must be finite, got {value.lower()}\n")
            assert "Traceback" not in stderr
            assert not (tmp_path / "o").exists()

    def test_divergent_descent_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, learning_rate=1e160, c_approx=1.0)
        code, _, stderr = run_cli(
            [
                "optimize",
                "--input",
                FIXTURE,
                "--rank",
                "4",
                "--config",
                cfg,
                "--out",
                str(tmp_path / "o"),
            ],
            capsys,
        )
        assert code == 3
        assert "iteration" in stderr
        # The manifest is written before the descent runs.
        assert [p.name for p in (tmp_path / "o").iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("flags", [[], ["-W", "error::RuntimeWarning"]], ids=["default", "warnings-as-errors"])
    def test_divergent_descent_prints_one_error_line(self, tmp_path, flags):
        # As a process, where a warning is a printed line: the overflows on
        # the way to the non-finite cost print nothing, and a RuntimeWarning
        # made an error does not turn exit 3 into a traceback.
        cfg = write_config(tmp_path, learning_rate=1e160, c_approx=1.0)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC_DIR, os.environ.get("PYTHONPATH", "")]))
        argv = ["optimize", "--input", FIXTURE, "--rank", "4", "--config", cfg, "--out", str(tmp_path / "o")]
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "blissdf.cli", *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 3
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: cost is non-finite at iteration ")

    def test_config_not_utf8_exits_1_naming_the_file(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"max_iters": 3, "é": 1}'.encode("latin-1"))
        argv = ["optimize", "--input", FIXTURE, "--rank", "2", "--config", str(bad), "--out", str(tmp_path / "o")]
        code, _, stderr = run_cli(argv, capsys)
        assert code == 1
        assert stderr.startswith(f"error: {bad}: not valid JSON (")
        assert len(stderr.splitlines()) == 1
        assert not (tmp_path / "o").exists()


def _refuse(*args, **kwargs):
    raise AssertionError("compute started before --out was checked")


class TestRunSequence:
    """Config, input and --out are checked before any compute."""

    def test_failed_rerun_leaves_only_its_manifest(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["optimize", "--input", FIXTURE, "--rank", "4", "--out", str(out), "--config"]
        assert run_cli([*argv, write_config(tmp_path)], capsys)[0] == 0
        assert run_cli([*argv, write_config(tmp_path, learning_rate=1e160, c_approx=1.0)], capsys)[0] == 3
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert json.loads((out / "manifest.json").read_text())["config"]["learning_rate"] == 1e160

    def test_rerun_removes_only_the_outputs_of_earlier_runs(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        assert run_cli(["factorize", "--input", FIXTURE, "--rank", "4", "--out", str(out)], capsys)[0] == 0
        argv = ["optimize", "--input", FIXTURE, "--rank", "4", "--config", write_config(tmp_path), "--out", str(out)]
        assert run_cli(argv, capsys)[0] == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["factors.npz", "manifest.json", "notes.txt", "report.json", "trace.jsonl"]

    @pytest.fixture()
    def no_compute(self, monkeypatch):
        monkeypatch.setattr(cli, "optimize", _refuse)
        monkeypatch.setattr(cli, "initial_double_factorization", _refuse)

    @pytest.mark.parametrize("command", ["factorize", "optimize"])
    @pytest.mark.parametrize("under", [False, True])
    def test_out_blocked_by_a_file_exits_1(self, tmp_path, capsys, no_compute, command, under):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out = blocker / "run" if under else blocker
        code, _, stderr = run_cli(
            [command, "--input", FIXTURE, "--rank", "2", "--out", str(out)], capsys
        )
        assert code == 1
        assert stderr.startswith("error: ")
        assert len(stderr.splitlines()) == 1
        assert "Traceback" not in stderr
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command", ["factorize", "optimize"])
    def test_input_too_large_to_allocate_exits_1(self, tmp_path, capsys, command):
        huge = tmp_path / "huge.fcidump"
        huge.write_text(
            " &FCI NORB=3000,NELEC=2,MS2=0,\n &END\n"
            "1.0 1 1 1 1\n0.5 1 1 0 0\n0.0 0 0 0 0\n"
        )
        code, _, stderr = run_cli(
            [command, "--input", str(huge), "--rank", "2", "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 1
        assert stderr.startswith("error: ")
        assert "Traceback" not in stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, rank", [("factorize", "0"), ("optimize", "5")])
    def test_rank_out_of_range_exits_1_without_out(self, tmp_path, capsys, no_compute, command, rank):
        # tiny2 has N = 2, so R must lie in [1, 4]; the rule needs N from the
        # loaded input but is checked before --out is created.
        out = tmp_path / "run"
        code, _, stderr = run_cli([command, "--input", FIXTURE, "--rank", rank, "--out", str(out)], capsys)
        assert code == 1
        assert stderr == f"error: rank must be in [1, 4], got {rank}\n"
        assert not out.exists()


class TestVerify:
    def test_fast_level_passes(self, capsys):
        code, stdout, _ = run_cli(["verify", "--level", "fast"], capsys)
        assert code == 0
        assert "FAIL" not in stdout
        assert stdout.count("PASS") >= 5
        assert "all" in stdout and "checks passed" in stdout

    def test_shipped_checks_are_pinned(self):
        # Adding or dropping a shipped self-check is a deliberate edit here.
        fast = [
            "canonical anticommutation",
            "number operator diagonal",
            "rotated-basis operator identities",
            "one-body rotation identity",
            "BLISS invariance",
            "factorization exactness",
        ]
        full = fast + ["gradient finite-difference agreement", "closed-form kappa", "penalty schedule"]
        for level, names in (("fast", fast), ("full", full)):
            assert [result.name for result in run_verification(level)] == names

    def test_unknown_level_is_refused(self):
        with pytest.raises(ValueError, match=re.escape(f"level must be one of {LEVELS}, got 'medium'")):
            run_verification("medium")

    def test_broken_invariant_detected(self, capsys, monkeypatch):
        # Corrupt the shift inside the check suite and make sure the dense
        # oracle catches it, names the failing check, and exits 4. The
        # corruption perturbs a one-body coefficient, which moves the
        # sector spectrum; merely changing kappa or xi would not, because
        # the invariance holds for every shift.
        import blissdf.verify as verify_mod
        from blissdf import Hamiltonian

        true_shift = apply_symmetry_shift

        def corrupted(ham, shift):
            out = true_shift(ham, shift)
            h_bad = np.array(out.h)
            h_bad[0, 0] += 0.3
            return Hamiltonian(
                h=h_bad,
                g=out.g,
                core_constant=out.core_constant,
                n_electrons=out.n_electrons,
            )

        monkeypatch.setattr(verify_mod, "apply_symmetry_shift", corrupted)
        code, stdout, stderr = run_cli(["verify", "--level", "fast"], capsys)
        assert code == 4
        assert "FAIL" in stdout
        assert "BLISS invariance" in stderr

    def test_offset_total_cost_fails_the_closed_form_check(self, capsys, monkeypatch):
        # A total_cost whose lambda is off by a constant moves the grid
        # minimum away from the optimizer's row 0, which the full level catches.
        import blissdf.verify as verify_mod

        true_cost = verify_mod.total_cost

        def offset(ham, params, c_approx):
            total, err, lam = true_cost(ham, params, c_approx)
            return total + 1e-3, err, lam + 1e-3

        monkeypatch.setattr(verify_mod, "total_cost", offset)
        code, stdout, stderr = run_cli(["verify", "--level", "full"], capsys)
        assert code == 4
        assert "FAIL  closed-form kappa" in stdout
        assert stderr.strip() == "verification failed: closed-form kappa"

    def test_perturbed_best_factors_fail_the_penalty_schedule_check(self, capsys, monkeypatch):
        # Best factors 1% off their run: Err recomputed from the outputs leaves
        # the budget, which only the penalty-schedule check reads.
        import dataclasses

        import blissdf.verify as verify_mod
        from blissdf import FactorSet

        true_optimize = verify_mod.optimize

        def perturbed(ham, rank, config):
            report = true_optimize(ham, rank, config)
            kappa, xi, factor_set = report.best_params
            scaled = FactorSet(1.01 * factor_set.packed, factor_set.rank)
            return dataclasses.replace(report, best_params=(kappa, xi, scaled))

        monkeypatch.setattr(verify_mod, "optimize", perturbed)
        code, stdout, stderr = run_cli(["verify", "--level", "full"], capsys)
        assert code == 4
        assert "FAIL  penalty schedule" in stdout
        assert stderr.strip() == "verification failed: penalty schedule"

    def test_shifted_one_body_error_fails_the_penalty_schedule_check(self, capsys, monkeypatch):
        # A shift that moves one one-body coefficient leaves Err and lambda
        # alone; only the rebuilt Hamiltonian's sector spectrum shows it.
        import blissdf.verify as verify_mod
        from blissdf import Hamiltonian

        true_shift = apply_symmetry_shift

        def corrupted(ham, shift):
            out = true_shift(ham, shift)
            h_bad = np.array(out.h)
            h_bad[0, 0] += 0.3
            return Hamiltonian(h=h_bad, g=out.g, core_constant=out.core_constant, n_electrons=out.n_electrons)

        monkeypatch.setattr(verify_mod, "apply_symmetry_shift", corrupted)
        code, stdout, _ = run_cli(["verify", "--level", "full"], capsys)
        assert code == 4
        assert "FAIL  penalty schedule" in stdout

    def test_truncated_schedule_fails_the_penalty_schedule_check(self, capsys, monkeypatch):
        # A default run cut to one iteration ends feasible, but above the
        # lambda that one explicit weight reaches in the full budget.
        import dataclasses

        import blissdf.verify as verify_mod

        true_optimize = verify_mod.optimize

        def truncated(ham, rank, config):
            if config.c_approx is None:
                config = dataclasses.replace(config, max_iters=1)
            return true_optimize(ham, rank, config)

        monkeypatch.setattr(verify_mod, "optimize", truncated)
        code, stdout, stderr = run_cli(["verify", "--level", "full"], capsys)
        assert code == 4
        assert "FAIL  penalty schedule" in stdout
        assert stderr.strip() == "verification failed: penalty schedule"


class TestReport:
    @pytest.fixture()
    def report_path(self, tmp_path, capsys):
        out = tmp_path / "opt"
        cfg = write_config(tmp_path, max_iters=30)
        code, _, _ = run_cli(
            [
                "optimize",
                "--input",
                FIXTURE,
                "--rank",
                "2",
                "--config",
                cfg,
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        capsys.readouterr()
        return out / "report.json"

    def test_renders_table(self, report_path, capsys):
        code, stdout, _ = run_cli(["report", "--input", str(report_path)], capsys)
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0].split() == ["method", "N", "R", "lambda", "error"]
        assert lines[2].startswith("XDF")
        assert lines[3].startswith("optimized")

    def test_prints_the_optimized_run_summary(self, report_path, capsys):
        code, stdout, _ = run_cli(["report", "--input", str(report_path)], capsys)
        assert code == 0
        run = json.loads(report_path.read_text())["runs"][1]
        assert stdout.splitlines()[4] == (
            f"optimized: {run['iterations']} iterations, stop_reason {run['stop_reason']}, "
            f"best_iteration {run['best_iteration']}"
        )

    def test_prints_the_phases(self, tmp_path, capsys):
        # One line per entered phase, from report.json's phases. This default
        # run finds its best row at the stiff weight's learning rate, in the
        # middle one of its three phases.
        out = tmp_path / "opt"
        assert run_cli(["optimize", "--input", FIXTURE, "--rank", "4", "--out", str(out)], capsys)[0] == 0
        doc = json.loads((out / "report.json").read_text())
        code, stdout, _ = run_cli(["report", "--input", str(out / "report.json")], capsys)
        assert code == 0
        lines = stdout.splitlines()[5:]
        firsts = [phase["first_iteration"] for phase in doc["phases"]]
        assert len(lines) == len(firsts) == 3
        assert firsts[1] <= doc["runs"][1]["best_iteration"] < firsts[2]
        for index, (line, phase) in enumerate(zip(lines, doc["phases"])):
            assert line == (
                f"phase {index}: c_approx {phase['c_approx']:.6g}, learning_rate {phase['learning_rate']:.6g}, "
                f"first_iteration {phase['first_iteration']}" + (", holds best_iteration" if index == 1 else "")
            )

    def test_empty_runs_prints_header_only(self, report_path, tmp_path, capsys):
        doc = json.loads(report_path.read_text())
        doc["runs"] = []
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(doc))
        code, stdout, _ = run_cli(["report", "--input", str(empty)], capsys)
        assert code == 0
        assert len(stdout.splitlines()) == 2

    def test_newer_schema_rejected(self, report_path, tmp_path, capsys):
        doc = json.loads(report_path.read_text())
        doc["schema_version"] = cli.SCHEMA_VERSION + 1
        newer = tmp_path / "newer.json"
        newer.write_text(json.dumps(doc))
        code, _, stderr = run_cli(["report", "--input", str(newer)], capsys)
        assert code == 1
        assert "version" in stderr

    def test_invalid_json_rejected(self, tmp_path, capsys):
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{][")
        code, _, stderr = run_cli(["report", "--input", str(garbled)], capsys)
        assert code == 1
        assert "JSON" in stderr

    def test_schema_mismatch_rejected(self, tmp_path, capsys):
        doc = {"schema_version": cli.SCHEMA_VERSION, "runs": "nope"}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, stderr = run_cli(["report", "--input", str(bad)], capsys)
        assert code == 1
        # The message is the error jsonschema.validate picks (best_match)
        # among the document's several schema errors.
        with pytest.raises(jsonschema.ValidationError) as picked:
            jsonschema.validate(doc, cli.load_schema("report.schema.json"))
        assert stderr == f"error: {bad}: schema mismatch: {picked.value.message}\n"

    @pytest.mark.parametrize("payload", ["[]", '"x"'])
    def test_non_object_json_rejected(self, tmp_path, capsys, payload):
        odd = tmp_path / "odd.json"
        odd.write_text(payload)
        code, _, stderr = run_cli(["report", "--input", str(odd)], capsys)
        assert code == 1
        assert stderr.startswith(f"error: {odd}: ")
        assert "Traceback" not in stderr

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"{][", "not valid JSON ("),
            ('{"title": "é"}'.encode("latin-1"), "not valid JSON ('utf-8' codec can't decode byte 0xe9"),
            (b"[]", "expected a JSON object, got list"),
            (b'{"schema_version": 1}', "report schema version 1 is not supported"),
            (json.dumps({"schema_version": cli.SCHEMA_VERSION}).encode(), "schema mismatch: "),
        ],
        ids=["json", "utf-8", "object", "version", "schema"],
    )
    def test_each_error_is_one_error_line(self, tmp_path, capsys, content, message):
        path = tmp_path / "in.json"
        path.write_bytes(content)
        code, stdout, stderr = run_cli(["report", "--input", str(path)], capsys)
        assert (code, stdout) == (1, "")
        assert stderr.startswith(f"error: {path}: {message}")
        assert len(stderr.splitlines()) == 1


SCHEMA_NAMES = sorted(path.name for path in (Path(cli.__file__).parent / "schemas").glob("*.json"))


@pytest.mark.parametrize("name", SCHEMA_NAMES)
def test_shipped_schema_is_valid(name):
    # The CLI builds each schema's validator without checking the schema
    # itself against its meta-schema, so every shipped schema is checked here.
    schema = cli.load_schema(name)
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_public_api_is_pinned_to_the_schema_version():
    # blissdf.__all__, the optimizer's entry points, the FactorSet
    # constructor and write_integrals change only with a schema_version bump:
    # change this pin and SCHEMA_VERSION together.
    assert cli.SCHEMA_VERSION == 9
    assert sorted(blissdf.__all__) == [
        "ConfigError",
        "FactorSet",
        "FcidumpError",
        "Hamiltonian",
        "IndefiniteTensorError",
        "LambdaBreakdown",
        "NonFiniteCostError",
        "OptimizationConfig",
        "OptimizationReport",
        "ShiftParams",
        "__version__",
        "apply_symmetry_shift",
        "effective_one_body",
        "frobenius_error",
        "gradient",
        "initial_double_factorization",
        "lambda_df",
        "load_factor_set",
        "load_integrals",
        "nuclear_norm",
        "optimize",
        "reconstruct_two_body",
        "save_factor_set",
        "symmetrize_one_body",
        "total_cost",
        "write_integrals",
    ]
    entry_points = ("optimize", "total_cost", "gradient", "FactorSet", "write_integrals")
    signatures = {name: str(inspect.signature(getattr(blissdf, name))) for name in entry_points}
    assert signatures == {
        "optimize": "(ham: 'Hamiltonian', rank: 'int', config: 'OptimizationConfig') -> 'OptimizationReport'",
        "total_cost": "(ham: 'Hamiltonian', params, c_approx: 'float') -> 'tuple[float, float, float]'",
        "gradient": "(ham: 'Hamiltonian', params, c_approx: 'float')",
        "FactorSet": "(packed: 'np.ndarray', rank: 'int')",
        "write_integrals": "(path: 'str | Path', ham: 'Hamiltonian') -> 'None'",
    }
    # The config keys are the manifest's and report.json's config block.
    assert [field.name for field in dataclasses.fields(blissdf.OptimizationConfig)] == [
        "c_approx",
        "max_iters",
        "learning_rate",
        "rel_tol",
        "patience",
        "err_budget",
    ]


def test_trace_lines_equal_json_dumps(tmp_path):
    values = [5e-324, 1e-300, 1e16, 2.0, -0.0, 0.1 + 0.2, 1.7976931348623157e308]
    rows = np.array([(-value, value, value / 7) for value in values])  # err, lambda >= 0
    cli._write_trace(tmp_path / "trace.jsonl", rows, [0, 3])
    lines = (tmp_path / "trace.jsonl").read_text().splitlines(keepends=True)
    assert lines == [
        json.dumps({"iter": i, "total": total, "err": err, "lambda": lam, "phase": int(i >= 3)}, sort_keys=True)
        + "\n"
        for i, (total, err, lam) in enumerate(rows.tolist())
    ]


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["factorize", "--rank", "2", "--out", "x"])
        assert exc_info.value.code == 1

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["fatcorize"])
        assert exc_info.value.code == 1

    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main([])
        assert exc_info.value.code == 1
