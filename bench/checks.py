"""Correctness gate applied to every CLI invocation the benchmark makes.

An invocation passes when it exits with code 0 and its outputs are right:
every JSON output (each trace.jsonl line included) validates against the
schemas shipped with the package, the optimized lambda does not exceed the
XDF lambda, the residual stays within the error budget, a rel_tol=0 run does
exactly max_iters iterations, and factors.npz round-trips through
load_factor_set and agrees with the reported lambda. Byte-identity across
repeats is checked by the caller from ``Outcome.hashes``.
"""

from __future__ import annotations

import hashlib
import json
import math
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

from blissdf import load_factor_set, nuclear_norm
from blissdf.cli import load_schema

# Outputs that must be byte-identical across repeats of one command.
DETERMINISTIC_FILES = {
    "optimize": ("report.json", "trace.jsonl", "factors.npz"),
    "factorize": ("summary.json", "factors.npz"),
}

# The per-factor norms are recomputed here, possibly by a different code path
# than the CLI's; they must agree to well within round-off of a 1e-16 sum.
LAMBDA_RTOL = 1e-9


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    lambda_ratio: float | None = None
    iterations: int | None = None
    trace_lines: int = 0
    npz_bytes: int = 0
    factors_sha256: str | None = None  # of the loaded float64 factor array

    @property
    def ok(self) -> bool:
        return not self.problems

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


def _validated(path: Path, schema_name: str) -> dict:
    doc = json.loads(path.read_text())
    jsonschema.validate(doc, load_schema(schema_name))
    return doc


def _check_factors(outcome: Outcome, path: Path, workload, inp, two_body: float):
    """Round-trip factors.npz and compare its lambda to the reported one."""
    factor_set, kappa, xi, manifest = load_factor_set(path)
    outcome.npz_bytes = path.stat().st_size
    outcome.factors_sha256 = hashlib.sha256(factor_set.factors.tobytes()).hexdigest()
    shape = (workload.rank, workload.n, workload.n)
    outcome.expect(
        factor_set.factors.shape == shape,
        f"factors.npz holds shape {factor_set.factors.shape}, expected {shape}",
    )
    outcome.expect(
        manifest.get("input_sha256") == inp.sha256,
        "factors.npz manifest names another input",
    )
    recomputed = 0.5 * sum(nuclear_norm(a) ** 2 for a in factor_set)
    outcome.expect(
        math.isclose(recomputed, two_body, rel_tol=LAMBDA_RTOL),
        f"two-body lambda from factors.npz {recomputed!r} != reported {two_body!r}",
    )
    return kappa, xi


def _check_optimize(outcome: Outcome, out_dir: Path, workload, inp) -> None:
    manifest = _validated(out_dir / "manifest.json", "manifest.schema.json")
    report = _validated(out_dir / "report.json", "report.schema.json")
    outcome.expect(manifest["input_checksum"] == inp.sha256, "manifest input sha256")
    outcome.expect(report["input"]["sha256"] == inp.sha256, "report input sha256")
    config = report["config"]
    for key, value in (workload.config or {}).items():
        outcome.expect(config[key] == value, f"config {key}={config[key]!r}, asked {value!r}")

    runs = {run["method"]: run for run in report["runs"]}
    xdf, opt = runs["XDF"], runs["optimized"]
    outcome.expect(
        opt["lambda"] <= xdf["lambda"],
        f"optimized lambda {opt['lambda']!r} > XDF lambda {xdf['lambda']!r}",
    )
    outcome.expect(
        opt["err"] <= xdf["err"] + config["err_budget"],
        f"err_final {opt['err']!r} exceeds initial err + err_budget",
    )
    outcome.iterations = opt["iterations"]
    if config["rel_tol"] == 0:
        outcome.expect(
            opt["iterations"] == config["max_iters"],
            f"rel_tol=0 run did {opt['iterations']} iterations, not max_iters",
        )

    validator = jsonschema.Draft7Validator(load_schema("trace.schema.json"))
    best_row = None
    with open(out_dir / "trace.jsonl") as handle:
        for index, text in enumerate(handle):
            row = json.loads(text)
            error = jsonschema.exceptions.best_match(validator.iter_errors(row))
            if error is not None:
                outcome.problems.append(f"trace.jsonl line {index}: {error.message}")
                break
            outcome.expect(row["iter"] == index, f"trace.jsonl line {index}: iter")
            if index == opt["best_iteration"]:
                best_row = row
            outcome.trace_lines = index + 1
    outcome.expect(
        outcome.trace_lines == opt["iterations"] + 1,
        f"trace.jsonl has {outcome.trace_lines} lines for {opt['iterations']} iterations",
    )
    outcome.expect(
        best_row is not None
        and math.isclose(best_row["lambda"], opt["lambda"], rel_tol=LAMBDA_RTOL),
        "trace row at best_iteration disagrees with the reported lambda",
    )

    kappa, xi = _check_factors(
        outcome, out_dir / "factors.npz", workload, inp, opt["lambda_two_body"]
    )
    outcome.expect(kappa == report["best"]["kappa"], "factors.npz kappa != report")
    outcome.expect(
        xi is not None and np.array_equal(xi, np.array(report["best"]["xi"])),
        "factors.npz xi != report",
    )
    outcome.lambda_ratio = opt["lambda"] / xdf["lambda"]


def _check_factorize(outcome: Outcome, out_dir: Path, workload, inp) -> None:
    manifest = _validated(out_dir / "manifest.json", "manifest.schema.json")
    summary = _validated(out_dir / "summary.json", "summary.schema.json")
    outcome.expect(manifest["input_checksum"] == inp.sha256, "manifest input sha256")
    outcome.expect(summary["input"]["sha256"] == inp.sha256, "summary input sha256")
    outcome.expect(summary["n_orbitals"] == workload.n, "summary n_orbitals")
    outcome.expect(summary["rank"] == workload.rank, "summary rank")
    outcome.expect(
        math.isclose(
            summary["lambda_df"],
            summary["lambda_one_body"] + summary["lambda_two_body"],
            rel_tol=1e-12,
        ),
        "lambda_df is not the sum of its parts",
    )
    if workload.rank >= workload.reshape_rank:
        # At full rank the factorization of a PSD tensor is exact.
        outcome.expect(
            summary["err"] <= 1e-10 * inp.g_norm2,
            f"full-rank err {summary['err']!r} is not round-off",
        )
    kappa, _ = _check_factors(
        outcome, out_dir / "factors.npz", workload, inp, summary["lambda_two_body"]
    )
    outcome.expect(kappa is None, "factorize archive carries a shift")
    # The output is the XDF point itself.
    outcome.lambda_ratio = 1.0


def check_run(workload, inp, out_dir: Path, exit_code: int) -> Outcome:
    """Gate one CLI invocation's exit code and output directory."""
    outcome = Outcome()
    if exit_code != 0:
        outcome.problems.append(f"exit code {exit_code}")
        return outcome
    check = _check_optimize if workload.command == "optimize" else _check_factorize
    try:
        check(outcome, out_dir, workload, inp)
        for name in DETERMINISTIC_FILES[workload.command]:
            digest = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            outcome.hashes[name] = digest
    except (
        OSError,
        KeyError,
        TypeError,
        ValueError,
        zipfile.BadZipFile,
        jsonschema.ValidationError,
    ) as exc:
        # A ValidationError's str() quotes the whole document; keep the gist.
        outcome.problems.append(f"{type(exc).__name__}: {getattr(exc, 'message', exc)}")
    return outcome
