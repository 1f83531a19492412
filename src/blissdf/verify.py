"""Self-verification suites run by the command line front end.

Each check builds small random instances with fixed seeds, compares two
independently computed quantities, and reports the worst deviation against
its tolerance. The fast level keeps orbital counts at N <= 2 and finishes in
seconds; the full level extends to N = 3 and adds finite-difference gradient
checks.

The operator-algebra checks multiply real ladder matrices on the full
4^N-dimensional Fock space. The Hamiltonian checks (BLISS invariance and
factorization exactness) compare the real sector blocks of fermi_oracle,
which together make up the whole Hamiltonian because it conserves particle
number.

The checks call the library through module-level names on purpose: the test
suite substitutes a corrupted implementation here (for example a sign flip
in the symmetry shift) and asserts that the affected check catches it. The
random instances come from random_hamiltonian, which the tests share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from blissdf.factorization import eigen_rank1, initial_double_factorization
from blissdf.fermi_oracle import (
    b_operator,
    ladder_operator,
    sector_eigenvalues,
    sector_hamiltonian,
    sector_states,
    verify_one_body_identity,
)
from blissdf.hamiltonian import (
    Hamiltonian,
    ShiftParams,
    apply_symmetry_shift,
    frobenius_error,
    reconstruct_two_body,
    symmetrize_one_body,
)
from blissdf.optimizer import gradient, total_cost

LEVELS = ("fast", "full")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def random_psd_two_body(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random two-body tensor whose N^2 x N^2 reshape is positive semidefinite."""
    g = np.zeros((n, n, n, n))
    for _ in range(n * n):
        s = symmetrize_one_body(rng.standard_normal((n, n)))
        g += rng.uniform(0.1, 1.0) * np.einsum("ij,kl->ijkl", s, s)
    return g


def random_hamiltonian(n: int, rng: np.random.Generator, n_electrons: int | None = None) -> Hamiltonian:
    """Random Hamiltonian with a PSD two-body reshape; a missing n_electrons is drawn first."""
    if n_electrons is None:
        n_electrons = int(rng.integers(1, 2 * n + 1))
    return Hamiltonian(
        h=symmetrize_one_body(rng.standard_normal((n, n))),
        g=random_psd_two_body(n, rng),
        core_constant=float(rng.standard_normal()),
        n_electrons=n_electrons,
    )


def _check_anticommutators(sizes) -> CheckResult:
    """{a_p, a+_q} = delta_pq and {a_p, a_q} = 0 over all spin-orbital pairs."""
    worst = 0.0
    for n in sizes:
        dim = 4**n
        modes = [(j, sigma) for sigma in (0, 1) for j in range(n)]
        ops = {m: ladder_operator(m[0], m[1], False, n) for m in modes}
        for p in modes:
            for q in modes:
                a_p, a_q = ops[p], ops[q]
                acar = a_p @ a_q.T + a_q.T @ a_p
                expected = np.eye(dim) if p == q else 0.0
                worst = max(worst, float(np.max(np.abs(acar - expected))))
                aa = a_p @ a_q + a_q @ a_p
                worst = max(worst, float(np.max(np.abs(aa))))
    return CheckResult("canonical anticommutation", worst, 1e-12)


def _check_number_operator(sizes) -> CheckResult:
    """sum_i E_ii from ladder products equals the electron count of each sector's states."""
    worst = 0.0
    for n in sizes:
        counts = np.zeros(4**n)
        for n_e in range(2 * n + 1):
            counts[sector_states(n, n_e)] = n_e
        from_ladders = sum(
            ladder_operator(i, sigma, True, n) @ ladder_operator(i, sigma, False, n)
            for i in range(n)
            for sigma in (0, 1)
        )
        worst = max(worst, float(np.max(np.abs(from_ladders - np.diag(counts)))))
    return CheckResult("number operator diagonal", worst, 1e-12)


def _check_b_identities(sizes) -> CheckResult:
    """B^2 = 0, {B, B+} = I, and unitarity of 2 B+ B - I for random u."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in sizes:
        dim = 4**n
        for _ in range(3):
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            for sigma in (0, 1):
                b = b_operator(u, sigma, n)
                worst = max(worst, float(np.max(np.abs(b @ b))))
                acar = b @ b.T + b.T @ b
                worst = max(worst, float(np.max(np.abs(acar - np.eye(dim)))))
                v = 2.0 * b.T @ b - np.eye(dim)
                worst = max(worst, float(np.max(np.abs(v @ v.T - np.eye(dim)))))
    return CheckResult("rotated-basis operator identities", worst, 1e-10)


def _check_one_body_rotation(sizes) -> CheckResult:
    """One(A) equals its eigenbasis form sum lambda_t B+ B."""
    rng = np.random.default_rng(12)
    worst = 0.0
    for n in sizes:
        for _ in range(3):
            a = symmetrize_one_body(rng.standard_normal((n, n)))
            worst = max(worst, verify_one_body_identity(a))
    return CheckResult("one-body rotation identity", worst, 1e-9)


def _check_trace_identity(sizes) -> CheckResult:
    """Eigenvalue sum of the rank-1 decomposition equals the trace."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for n in sizes:
        for _ in range(5):
            a = symmetrize_one_body(rng.standard_normal((n, n)))
            decomp = eigen_rank1(a)
            worst = max(worst, abs(float(decomp.eigenvalues.sum()) - float(np.trace(a))))
            recon_dev = float(np.max(np.abs(decomp.reconstruct() - a)))
            worst = max(worst, recon_dev)
    return CheckResult("trace and reconstruction identity", worst, 1e-10)


def _check_bliss_invariance(sizes) -> CheckResult:
    """Sector spectra are unchanged by the symmetry shift."""
    rng = np.random.default_rng(14)
    worst = 0.0
    for n in sizes:
        for _ in range(3):
            ham = random_hamiltonian(n, rng)
            shift = ShiftParams(
                kappa=float(rng.standard_normal()),
                xi=symmetrize_one_body(rng.standard_normal((n, n))),
                n_e=ham.n_electrons,
            )
            shifted = apply_symmetry_shift(ham, shift)
            spec_a = sector_eigenvalues(ham, ham.n_electrons)
            spec_b = sector_eigenvalues(shifted, ham.n_electrons)
            worst = max(worst, float(np.max(np.abs(spec_a - spec_b))))
    return CheckResult("BLISS invariance", worst, 1e-9)


def _check_factorization_exactness(sizes) -> CheckResult:
    """Full-rank factorization reproduces the two-body tensor and every sector block."""
    rng = np.random.default_rng(15)
    worst = 0.0
    for n in sizes:
        ham = random_hamiltonian(n, rng)
        factor_set = initial_double_factorization(ham.g, n * n)
        worst = max(worst, frobenius_error(ham.g, factor_set))
        rebuilt = Hamiltonian(
            h=ham.h,
            g=reconstruct_two_body(factor_set),
            core_constant=ham.core_constant,
            n_electrons=ham.n_electrons,
        )
        for n_e in range(2 * n + 1):
            dev = np.max(np.abs(sector_hamiltonian(ham, n_e) - sector_hamiltonian(rebuilt, n_e)))
            worst = max(worst, float(dev))
    return CheckResult("factorization exactness", worst, 1e-9)


def _check_gradient() -> CheckResult:
    """Analytic gradient against central finite differences."""
    rng = np.random.default_rng(16)
    worst = 0.0
    for n, rank in ((3, 2), (4, 3)):
        ham = random_hamiltonian(n, rng)
        kappa = float(rng.standard_normal())
        xi = symmetrize_one_body(0.3 * rng.standard_normal((n, n)))
        factors = 0.5 * rng.standard_normal((rank, n, n))
        factors = 0.5 * (factors + factors.transpose(0, 2, 1))
        c_approx = 50.0
        grad_kappa, grad_xi, grad_factors = gradient(ham, (kappa, xi, factors), c_approx)
        analytic = np.concatenate([[grad_kappa], grad_xi.ravel(), grad_factors.ravel()])
        point = np.concatenate([[kappa], xi.ravel(), factors.ravel()])
        step = 1e-5

        def cost_at(vec):
            x, f = vec[1 : 1 + n * n].reshape(n, n), vec[1 + n * n :].reshape(rank, n, n)
            return total_cost(ham, (vec[0], x, f), c_approx)[0]

        numeric = np.empty_like(point)
        for idx in range(point.size):
            bump = np.zeros_like(point)
            bump[idx] = step
            numeric[idx] = (cost_at(point + bump) - cost_at(point - bump)) / (2.0 * step)

        mask = np.abs(analytic) > 1e-6
        if np.any(mask):
            rel = np.abs(analytic[mask] - numeric[mask]) / np.abs(analytic[mask])
            worst = max(worst, float(rel.max()))
    return CheckResult("gradient finite-difference agreement", worst, 1e-5)


def run_verification(level: str) -> list[CheckResult]:
    """Run the oracle suites; 'fast' covers N <= 2, 'full' adds N = 3 and gradients."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    sizes = (1, 2) if level == "fast" else (1, 2, 3)
    results = [
        _check_anticommutators(sizes),
        _check_number_operator(sizes),
        _check_b_identities(sizes),
        _check_one_body_rotation(sizes),
        _check_trace_identity(sizes),
        _check_bliss_invariance(sizes[1:]),
        _check_factorization_exactness(sizes[1:]),
    ]
    if level == "full":
        results.append(_check_gradient())
    return results
