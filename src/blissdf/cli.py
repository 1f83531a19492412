"""Command line front end for factorization, optimization, and verification.

Subcommands:
    factorize  Eigendecomposition-based double factorization of an FCIDUMP
               file; writes factors.npz, summary.json, manifest.json.
               R may go up to N^2; at most N(N+1)/2 factors are nonzero,
               and stdout reports the count, e.g. "R=1024 (528 nonzero)".
    optimize   Joint symmetry-shift + factorization descent; writes
               report.json, trace.jsonl, factors.npz, manifest.json.
    verify     Self-check suites over the dense fermionic oracle.
    report     Render a report.json as a table (method, N, R, lambda, error),
               then the optimized run's iterations, stop reason and best
               iteration, and its phases (c_approx, learning rate, first
               iteration), marking the one that holds the best iteration.

factorize and optimize parse the config, load the input and check --rank
before they create --out, so a bad input, config or rank (exit 1) leaves no
--out. A run that fails later (exit 2 or 3) leaves only manifest.json.

Exit codes: 0 success, 1 input problem (parse or config errors, missing
files, input that is not UTF-8 or not JSON, schema mismatch, an unusable
--out, an input too large to allocate), 2 data problem (two-body tensor not
factorizable), 3 numeric failure (non-finite cost), 4 verification failure.
Past argument parsing, every exit 1, 2 or 3 prints one stderr line, "error: ...".

All JSON outputs and factors.npz are deterministic for a fixed input and
config, whatever the core count or BLAS environment: each kernel they call
pins numpy's OpenBLAS to one thread itself and splits its eigh stacks into
fixed blocks over the available CPUs (see blissdf._parallel). Where no known
OpenBLAS symbol is found they run on one thread and their bits follow the BLAS
thread count. Wall-clock timestamps appear only in manifest.json.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import platform
import sys
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import jsonschema

from blissdf import __version__
from blissdf.factorization import (
    IndefiniteTensorError,
    frobenius_error,
    initial_double_factorization,
    lambda_df,
    save_factor_set,
)
from blissdf.fcidump import INTEGRAL_CONVENTION, load_integrals
from blissdf.hamiltonian import Hamiltonian, _as_int, effective_one_body
from blissdf.optimizer import NonFiniteCostError, OptimizationConfig, optimize
from blissdf.verify import LEVELS, run_verification

SCHEMA_VERSION = 9

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_VERIFICATION = 4


def load_schema(name: str) -> dict:
    """Load one of the shipped draft-07 schema documents by file name."""
    text = resources.files("blissdf").joinpath("schemas", name).read_text()
    return json.loads(text)


@functools.cache
def _validator(name: str):
    """The validator of shipped schema ``name``; the tests check each schema itself."""
    schema = load_schema(name)
    return jsonschema.validators.validator_for(schema)(schema)


def file_checksum(path: str | Path) -> str:
    """Hex sha256 of a file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _start_run(args, config: OptimizationConfig | None = None) -> tuple[Hamiltonian, dict]:
    """Load --input, check --rank, create --out, clear it of earlier outputs and write manifest.json there.

    Runs before any compute, so an unreadable input, a bad rank or an
    unusable --out fails in seconds. Returns the Hamiltonian and the fields
    summary.json and report.json share.
    """
    ham = load_integrals(args.input)
    _as_int("rank", args.rank, 1, ham.n_orbitals**2)
    checksum = file_checksum(args.input)
    args.out.mkdir(parents=True, exist_ok=True)
    for name in ("summary.json", "report.json", "trace.jsonl", "factors.npz"):  # an earlier run's outputs
        (args.out / name).unlink(missing_ok=True)
    manifest = {
        "kind": args.command,
        "input_checksum": checksum,
        "config": config.to_dict() if config is not None else None,
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "platform": f"{platform.platform()} python-{platform.python_version()}",
    }
    _write_outputs(args, "manifest.json", manifest)
    block = {
        "path": str(args.input),
        "sha256": checksum,
        "n_orbitals": ham.n_orbitals,
        "n_electrons": ham.n_electrons,
        "integral_convention": INTEGRAL_CONVENTION,
    }
    return ham, {"manifest": "manifest.json", "input": block}


def _write_outputs(args, name: str, doc: dict, factor_set=None, **shift) -> None:
    """Write ``doc`` to --out/``name``, checked against that file's schema.

    With ``factor_set``, factors.npz (with ``shift``'s kappa and xi) is
    written first, tagged with the input checksum from ``doc["input"]``.
    """
    if factor_set is not None:
        provenance = {"input_sha256": doc["input"]["sha256"], "tool_version": __version__}
        save_factor_set(args.out / "factors.npz", factor_set, manifest=provenance, **shift)
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    _validator(name.replace(".json", ".schema.json")).validate(doc)
    (args.out / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _run_record(n_orbitals: int, rank: int, err: float, breakdown) -> dict:
    """The keys summary.json and both runs rows of report.json share, from a LambdaBreakdown."""
    return dict(
        n_orbitals=n_orbitals, rank=rank, err=err,
        lambda_one_body=breakdown.one_body_part, lambda_two_body=breakdown.two_body_part,
    )


def _phase_of(row: int, first_iterations) -> int:
    """The phase of trace row ``row``: of those starting at ascending ``first_iterations``, the last at or before it."""
    return sum(first <= row for first in first_iterations) - 1


def _write_trace(path: Path, total_trace, first_iterations) -> None:
    """Write json.dumps(row, sort_keys=True) per (total, err, lambda) row: json prints floats by repr.

    Each line also carries its phase (_phase_of) among ``first_iterations``,
    each phase's first row.
    """
    rows = total_trace.tolist()
    line = '{"err": %r, "iter": %d, "lambda": %r, "phase": %d, "total": %r}\n'
    total, err, lam = rows[0]
    _validator("trace.schema.json").validate(json.loads(line % (err, 0, lam, 0, total)))
    with open(path, "w") as handle:
        handle.writelines(
            line % (err, i, lam, _phase_of(i, first_iterations), total) for i, (total, err, lam) in enumerate(rows)
        )


def cmd_factorize(args) -> int:
    ham, header = _start_run(args)
    factor_set = initial_double_factorization(ham.g_pairs, args.rank)
    err = frobenius_error(ham.g_pairs, factor_set)
    breakdown = lambda_df(factor_set, effective_one_body(ham))
    summary = {
        **header,
        **_run_record(ham.n_orbitals, factor_set.rank, err, breakdown),
        "lambda_df": breakdown.lambda_total,
        "per_factor": breakdown.per_factor.tolist(),
    }
    _write_outputs(args, "summary.json", summary, factor_set)

    print(
        f"N={ham.n_orbitals} R={factor_set.rank} "
        f"({factor_set.effective_rank} nonzero) "
        f"lambda_df={breakdown.lambda_total:.12g} err={err:.6e}"
    )
    print(f"wrote {args.out / 'summary.json'} and {args.out / 'factors.npz'}")
    return EXIT_OK


def cmd_optimize(args) -> int:
    config = OptimizationConfig()
    if args.config is not None:
        config = OptimizationConfig.from_json(args.config)
    ham, header = _start_run(args, config)

    report = optimize(ham, args.rank, config)
    best_kappa, best_xi, best_factor_set = report.best_params

    _write_trace(args.out / "trace.jsonl", report.total_trace, [first for _, _, first in report.phases])

    report_doc = {
        **header,
        "config": config.to_dict(),
        "phases": [
            {"c_approx": c_approx, "learning_rate": learning_rate, "first_iteration": first}
            for c_approx, learning_rate, first in report.phases
        ],
        "runs": [
            {
                "method": "XDF",
                **_run_record(ham.n_orbitals, args.rank, report.initial_err, report.initial_breakdown),
                "lambda": report.initial_breakdown.lambda_total,
            },
            {
                "method": "optimized",
                **_run_record(ham.n_orbitals, best_factor_set.rank, report.err_final, report.lambda_breakdown),
                "lambda": report.lambda_breakdown.lambda_total,
                "iterations": report.iterations_run,
                "stop_reason": report.stop_reason,
                "best_iteration": report.best_iteration,
            },
        ],
        "best": {
            "kappa": best_kappa,
            "xi": [[float(x) for x in row] for row in best_xi],
        },
    }
    _write_outputs(args, "report.json", report_doc, best_factor_set, kappa=best_kappa, xi=best_xi)

    print(
        f"R={best_factor_set.rank} ({best_factor_set.effective_rank} nonzero) "
        f"lambda={report.lambda_breakdown.lambda_total:.12g} "
        f"err={report.err_final:.6e} iterations={report.iterations_run} "
        f"({report.stop_reason})"
    )
    print(f"wrote {args.out / 'report.json'}, trace.jsonl, factors.npz")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_verification(args.level)
    failed = [r for r in results if not r.passed]
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(
            f"{status}  {result.name}: max deviation {result.max_deviation:.3e} "
            f"(tolerance {result.tolerance:.1e})"
        )
    if failed:
        names = ", ".join(r.name for r in failed)
        print(f"verification failed: {names}", file=sys.stderr)
        return EXIT_VERIFICATION
    print(f"all {len(results)} checks passed ({args.level} level)")
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        data = json.loads(Path(args.input).read_bytes())
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise ValueError(f"{args.input}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{args.input}: expected a JSON object, got {type(data).__name__}")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{args.input}: report schema version {version!r} is not "
            f"supported (this tool reads version {SCHEMA_VERSION})"
        )
    # The error jsonschema.validate would raise, of the several a document can have.
    error = jsonschema.exceptions.best_match(_validator("report.schema.json").iter_errors(data))
    if error is not None:
        raise ValueError(f"{args.input}: schema mismatch: {error.message}")

    header = f"{'method':<12} {'N':>4} {'R':>5} {'lambda':>18} {'error':>12}"
    print(header)
    print("-" * len(header))
    for run in data["runs"]:
        print(
            f"{run['method']:<12} {run['n_orbitals']:>4} {run['rank']:>5} "
            f"{run['lambda']:>18.10g} {run['err']:>12.3e}"
        )
    for run in data["runs"]:
        if "iterations" in run:
            print(
                f"{run['method']}: {run['iterations']} iterations, stop_reason {run['stop_reason']}, "
                f"best_iteration {run['best_iteration']}"
            )
            best = _phase_of(run["best_iteration"], [phase["first_iteration"] for phase in data["phases"]])
            for index, phase in enumerate(data["phases"]):
                print(
                    f"phase {index}: c_approx {phase['c_approx']:.6g}, learning_rate {phase['learning_rate']:.6g}, "
                    f"first_iteration {phase['first_iteration']}" + (", holds best_iteration" if index == best else "")
                )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blissdf",
        description=(
            "Minimize the block-encoding scaling constant of an "
            "electronic-structure Hamiltonian via a symmetry shift and "
            "double factorization."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fact = sub.add_parser(
        "factorize", help="double-factorize the two-body tensor of an FCIDUMP file"
    )
    p_fact.add_argument("--input", required=True, help="FCIDUMP file")
    p_fact.add_argument("--rank", required=True, type=int, help="number of factors R")
    p_fact.add_argument("--out", required=True, type=Path, help="output directory")
    p_fact.set_defaults(func=cmd_factorize)

    p_opt = sub.add_parser(
        "optimize", help="jointly optimize the symmetry shift and the factors"
    )
    p_opt.add_argument("--input", required=True, help="FCIDUMP file")
    p_opt.add_argument("--rank", required=True, type=int, help="number of factors R")
    p_opt.add_argument("--config", help="optimization config JSON (defaults when omitted)")
    p_opt.add_argument("--out", required=True, type=Path, help="output directory")
    p_opt.set_defaults(func=cmd_optimize)

    p_ver = sub.add_parser("verify", help="run the dense-oracle self checks")
    p_ver.add_argument("--level", choices=LEVELS, default="fast", help="check depth")
    p_ver.set_defaults(func=cmd_verify)

    p_rep = sub.add_parser("report", help="render a report.json as a table")
    p_rep.add_argument("--input", required=True, help="report JSON file")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return EXIT_INPUT
    # FcidumpError, ConfigError and IndefiniteTensorError are ValueErrors; an
    # unusable --out is an OSError, and an input too large to hold in memory
    # a MemoryError.
    except (NonFiniteCostError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NonFiniteCostError):
            return EXIT_NUMERIC
        return EXIT_DATA if isinstance(exc, IndefiniteTensorError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
