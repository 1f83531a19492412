"""Work the benchmark runs in fresh child processes.

    python3 bench/child.py setup --input F --rank R
        Times ``import blissdf`` + ``load_integrals`` +
        ``initial_double_factorization`` and prints one JSON line with the
        time and a sha256 of the factor array.

    python3 bench/child.py cli --result P [--trace] -- ARGV...
        Times ``import blissdf.cli`` + ``blissdf.cli.main(ARGV)`` and writes
        the times to P as JSON. With --trace it first wraps the layer entry
        points listed in WRAPPED, keeps the spans in memory, and after main()
        returns probes the public kernels at the workload's shape.

The parent sets PYTHONPATH so ``blissdf`` comes from the checkout's src/.
Only the standard library is imported before the timed region starts.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import statistics
import sys
from time import perf_counter

# (module, attribute, span name): the names blissdf.cli and blissdf.optimizer
# call into each layer. Wrapping the attribute in the calling module catches
# exactly the calls that module makes.
WRAPPED = (
    ("blissdf.cli", "cmd_factorize", "cli.cmd"),
    ("blissdf.cli", "cmd_optimize", "cli.cmd"),
    ("blissdf.cli", "load_integrals", "fcidump.load_integrals"),
    ("blissdf.cli", "initial_double_factorization", "factorization.initial_df"),
    ("blissdf.cli", "lambda_df", "factorization.lambda_df"),
    ("blissdf.cli", "save_factor_set", "factorization.save_factor_set"),
    ("blissdf.cli", "frobenius_error", "hamiltonian.frobenius_error"),
    ("blissdf.cli", "effective_one_body", "hamiltonian.effective_one_body"),
    ("blissdf.cli", "optimize", "optimizer.optimize"),
    ("blissdf.optimizer", "initial_double_factorization", "factorization.initial_df"),
    ("blissdf.optimizer", "lambda_df", "factorization.lambda_df"),
    ("blissdf.optimizer", "total_cost", "optimizer.total_cost"),
)

# Probes stop after this much time or this many repeats, whichever is first,
# and report the median repeat.
PROBE_BUDGET_S = 0.5
PROBE_MAX_REPEATS = 25


class Tracer:
    """Records one span (name, start, end, parent index) per wrapped call."""

    def __init__(self):
        self.spans: list[list] = []
        self.wrapped: set[str] = set()
        self.first_result: dict[str, object] = {}
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name: str) -> None:
        func = getattr(module, attr, None)
        if func is None:
            return
        self.wrapped.add(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            self.first_result.setdefault(name, result)
            return result

        setattr(module, attr, traced)


def _median_ms(func) -> float:
    times = []
    while True:
        start = perf_counter()
        func()
        times.append(perf_counter() - start)
        if sum(times) >= PROBE_BUDGET_S or len(times) >= PROBE_MAX_REPEATS:
            return statistics.median(times) * 1e3


def probe_kernels(ham, factor_set) -> dict:
    """Median time in ms of each public kernel at the workload's (N, R).

    A kernel whose name no longer exists in blissdf is reported as None.
    """
    import numpy as np

    import blissdf

    n = ham.n_orbitals
    rng = np.random.default_rng(0)
    xi = rng.standard_normal((n, n))
    xi = 0.5 * (xi + xi.T)
    params = (0.0, np.zeros((n, n)), factor_set)

    def kernel(name):
        return getattr(blissdf, name, None)

    probes = {
        "nuclear_norm_loop_ms": ("nuclear_norm", lambda f: [f(a) for a in factor_set]),
        "shift_build_ms": (
            "apply_symmetry_shift",
            lambda f: f(ham, blissdf.ShiftParams(0.1, xi, ham.n_electrons)),
        ),
        "reconstruct_ms": ("reconstruct_two_body", lambda f: f(factor_set)),
        "residual_ms": ("frobenius_error", lambda f: f(ham.g, factor_set)),
        "total_cost_ms": ("total_cost", lambda f: f(ham, params, 1.0)),
        "gradient_ms": ("gradient", lambda f: f(ham, params, 1.0)),
    }
    out = {}
    for metric, (name, call) in probes.items():
        func = kernel(name)
        out[metric] = None if func is None else _median_ms(lambda: call(func))
    return out


def cmd_setup(args) -> int:
    start = perf_counter()
    import blissdf

    ham = blissdf.load_integrals(args.input)
    factor_set = blissdf.initial_double_factorization(ham.g, args.rank)
    setup_s = perf_counter() - start
    digest = hashlib.sha256(factor_set.factors.tobytes()).hexdigest()
    print(json.dumps({"setup_s": setup_s, "factors_sha256": digest}))
    return 0


def cmd_cli(args) -> int:
    start = perf_counter()
    cli = importlib.import_module("blissdf.cli")
    import_s = perf_counter() - start
    tracer = Tracer()
    if args.trace:
        for module_name, attr, name in WRAPPED:
            tracer.wrap(importlib.import_module(module_name), attr, name)
    main_start = perf_counter()
    rc = cli.main(args.argv)
    main_s = perf_counter() - main_start

    result = {"rc": rc, "import_s": import_s, "main_s": main_s}
    if args.trace:
        report = tracer.first_result.get("optimizer.optimize")
        ham = tracer.first_result.get("fcidump.load_integrals")
        factor_set = tracer.first_result.get("factorization.initial_df")
        result.update(
            spans=tracer.spans,
            wrapped=sorted(tracer.wrapped),
            evaluations=None if report is None else len(report.total_trace),
            probes=(
                None
                if rc != 0 or ham is None or factor_set is None
                else probe_kernels(ham, factor_set)
            ),
        )
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--input", required=True)
    p_setup.add_argument("--rank", required=True, type=int)
    p_setup.set_defaults(func=cmd_setup)
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("--result", required=True)
    p_cli.add_argument("--trace", action="store_true")
    p_cli.add_argument("argv", nargs=argparse.REMAINDER)
    p_cli.set_defaults(func=cmd_cli)
    args = parser.parse_args(argv)
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
