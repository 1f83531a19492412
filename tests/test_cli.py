import hashlib
import json

import numpy as np
import pytest

from blissdf import (
    ShiftParams,
    apply_symmetry_shift,
    effective_one_body,
    lambda_df,
    load_factor_set,
    load_integrals,
    total_cost,
)
from blissdf import cli

from conftest import DATA_DIR

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
        assert summary["schema_version"] == 1
        assert summary["n_orbitals"] == 2
        assert summary["rank"] == 4
        assert summary["err"] <= 1e-10
        assert summary["input"]["sha256"] == hashlib.sha256(
            (DATA_DIR / "tiny2.fcidump").read_bytes()
        ).hexdigest()
        assert summary["lambda_df"] == pytest.approx(
            summary["lambda_one_body"] + summary["lambda_two_body"], rel=1e-12
        )
        assert len(summary["per_factor"]) == 4

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
        assert summary["per_factor"][2:] == [0.0, 0.0]


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
        assert report["rank"] == report["runs"][1]["rank"] == 4

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
        assert report["schema_version"] == 1
        methods = [run["method"] for run in report["runs"]]
        assert methods == ["XDF", "optimized"]
        xdf, opt = report["runs"]
        assert opt["lambda"] <= xdf["lambda"]
        assert opt["err"] <= xdf["err"] + report["config"]["err_budget"]
        assert report["best"]["lambda"] == opt["lambda"]

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

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        out = tmp_path / "seeded"
        cfg = write_config(tmp_path, seed=1)
        code, _, _ = run_cli(
            [
                "optimize",
                "--input",
                FIXTURE,
                "--rank",
                "2",
                "--config",
                cfg,
                "--seed",
                "123",
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 123

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

        _, err, lam = total_cost(ham, (kappa, xi, fs), report["c_approx_used"])
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
        # json.loads accepts the NaN token; no iterate could be feasible.
        bad = tmp_path / "bad.json"
        bad.write_text('{"err_budget": NaN}')
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
        assert stderr.startswith("error: err_budget must be finite, got nan")
        assert "Traceback" not in stderr
        assert not (tmp_path / "o").exists()

    def test_divergent_descent_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, learning_rate=1e160, c_approx=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
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


class TestVerify:
    def test_fast_level_passes(self, capsys):
        code, stdout, _ = run_cli(["verify", "--level", "fast"], capsys)
        assert code == 0
        assert "FAIL" not in stdout
        assert stdout.count("PASS") >= 5
        assert "all" in stdout and "checks passed" in stdout

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
        doc["schema_version"] = 2
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
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "runs": "nope"}))
        code, _, stderr = run_cli(["report", "--input", str(bad)], capsys)
        assert code == 1
        assert "schema" in stderr


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
