"""Benchmark of the blissdf CLI: end-to-end metrics and a traced per-layer run.

Run from the root of a checkout:

    python3 bench/run.py --workload n8-full-descent --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (see bench/README.md). ``--smoke`` runs the same paths at N=4 in
seconds. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full record, with
the environment block and every sample, goes to
``bench/out/results/BENCH_<workload>-seed<seed>-trace<t>.json``.

The program under test is built from the checkout's own ``src/``; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="N=4 versions of the workloads")
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "blissdf" / "__init__.py").is_file():
        print(f"error: {src / 'blissdf'} not found; run from a repository checkout", file=sys.stderr)
        return 2
    # The benchmark's own modules import blissdf, so they load after this.
    sys.path.insert(0, str(src))
    from harness import run_benchmark
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.smoke:
        workload = workload.smoke()
        label += "-smoke"
    result, record, path = run_benchmark(workload, args.seed, args.seconds, bool(args.trace), label)

    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{workload.name}: N={workload.n} R={workload.rank} seed={args.seed} -> {path}")
    print(f"  fail_ratio = {record['fail_ratio']:g} ({result['failed']}/{result['attempted']})")
    for name, metric in result["metrics"].items():
        value = "absent" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"  {name} = {value} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
