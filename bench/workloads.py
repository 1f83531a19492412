"""Benchmark workloads and the deterministic FCIDUMP generator.

Each workload fixes a CLI subcommand, an orbital count N, a factor count R
and (for ``optimize``) a config. Inputs are random Hamiltonians whose
two-body reshape is positive semidefinite, drawn with the same construction
as ``tests/conftest.py::random_psd_two_body`` from ``numpy.random.default_rng
(seed)``. Generated files are cached by (N, seed) under ``bench/out/inputs``
together with their sha256, so a repeated seed skips generation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from blissdf import Hamiltonian, write_integrals
from blissdf.hamiltonian import symmetrize_one_body

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
INPUT_DIR = OUT_DIR / "inputs"

# N=54 inputs are 34 MB each; keep only the most recent few per N.
CACHE_KEEP_PER_N = 3


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "optimize" or "factorize"
    n: int
    rank: int
    config: dict | None  # optimize config JSON; None runs the CLI defaults
    min_repeats: int  # CLI invocations per untraced run, at least
    why: str

    @property
    def reshape_rank(self) -> int:
        """Rank of the symmetric N^2 x N^2 reshape, N(N+1)/2."""
        return self.n * (self.n + 1) // 2

    @property
    def max_iters(self) -> int | None:
        if self.command != "optimize":
            return None
        return (self.config or {}).get("max_iters", 10000)

    def smoke(self) -> "Workload":
        """The same CLI path at N=4, small enough to finish in seconds."""
        n = 4
        rank = 2 * n if self.rank == 2 * self.n else n * n
        config = self.config
        if self.command == "optimize":
            config = dict(config or {})
            config["max_iters"] = min(config.get("max_iters", 300), 300)
        return Workload(self.name, self.command, n, rank, config, 2, self.why)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "n8-full-descent",
            "optimize",
            8,
            16,
            None,
            2,
            "N=8 R=2N default config: 10000 tiny iterations, so per-iteration "
            "fixed costs (eigh calls, Adam, trace lines) dominate",
        ),
        Workload(
            "n32-kernel-descent",
            "optimize",
            32,
            1024,
            {"max_iters": 20, "rel_tol": 0.0},
            2,
            "N=32 R=N^2, 20 iterations: the objective and gradient kernels "
            "dominate, with 496 of 1024 factors null-space padding",
        ),
        Workload(
            "n54-factorize",
            "factorize",
            54,
            2916,
            None,
            1,
            "N=54 R=N^2 factorize on a 34 MB FCIDUMP: parser and initial "
            "eigh dominate and the optimizer is bypassed",
        ),
    )
}


@dataclass(frozen=True)
class GeneratedInput:
    path: Path
    n: int
    seed: int
    sha256: str
    records: int  # data lines in the FCIDUMP
    g_norm2: float  # squared Frobenius norm of the two-body tensor


def random_psd_two_body(n: int, rng: np.random.Generator) -> np.ndarray:
    """sum_a w_a S_a (x) S_a over N^2 random symmetric S_a, as one gemm.

    Draws in the same order as the loop in tests/conftest.py (one normal
    N x N matrix, then one uniform weight, per term) so a seed gives the
    same terms; only the summation order differs.
    """
    terms = np.empty((n * n, n * n))
    weights = np.empty(n * n)
    for a in range(n * n):
        terms[a] = symmetrize_one_body(rng.standard_normal((n, n))).ravel()
        weights[a] = rng.uniform(0.1, 1.0)
    return (terms.T @ (weights[:, None] * terms)).reshape(n, n, n, n)


def random_hamiltonian(n: int, seed: int) -> Hamiltonian:
    """Half-filled random Hamiltonian with a PSD two-body reshape."""
    rng = np.random.default_rng(seed)
    return Hamiltonian(
        h=symmetrize_one_body(rng.standard_normal((n, n))),
        g=random_psd_two_body(n, rng),
        core_constant=float(rng.standard_normal()),
        n_electrons=n,
    )


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _prune_cache(n: int) -> None:
    cached = sorted(
        INPUT_DIR.glob(f"n{n}-seed*.fcidump"), key=lambda p: p.stat().st_mtime
    )
    for old in cached[:-CACHE_KEEP_PER_N]:
        old.unlink()
        old.with_suffix(".json").unlink(missing_ok=True)


def ensure_input(n: int, seed: int) -> GeneratedInput:
    """Return the FCIDUMP for (N, seed), generating and caching it if needed.

    A cached file is reused only when its sha256 still matches the one
    recorded when it was written.
    """
    INPUT_DIR.mkdir(parents=True, exist_ok=True)
    path = INPUT_DIR / f"n{n}-seed{seed}.fcidump"
    meta_path = path.with_suffix(".json")
    if path.is_file() and meta_path.is_file():
        meta = json.loads(meta_path.read_text())
        if meta["sha256"] == _sha256(path):
            path.touch()
            return GeneratedInput(path=path, **meta)

    ham = random_hamiltonian(n, seed)
    write_integrals(path, ham)
    with open(path, "rb") as handle:
        records = sum(1 for _ in handle) - 2  # two header lines
    meta = {
        "n": n,
        "seed": seed,
        "sha256": _sha256(path),
        "records": records,
        "g_norm2": float(np.vdot(ham.g, ham.g)),
    }
    meta_path.write_text(json.dumps(meta, sort_keys=True) + "\n")
    _prune_cache(n)
    return GeneratedInput(path=path, **meta)
