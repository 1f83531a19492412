"""Self-verification suites run by the command line front end.

Each check builds small random instances with fixed seeds, compares two
independently computed quantities, and reports the worst deviation against
its tolerance. The fast level keeps orbital counts at N <= 2 and finishes in
seconds; the full level extends to N = 3 and adds finite-difference gradient
checks, a check of the optimizer's closed-form kappa against a kappa grid and
one of the default penalty schedule against a single explicit weight.

The operator-algebra checks multiply real ladder matrices on the full
4^N-dimensional Fock space. The Hamiltonian checks (BLISS invariance and
factorization exactness) compare the real sector blocks of fermi_oracle,
which together make up the whole Hamiltonian because it conserves particle
number.

The checks call the library through module-level names on purpose: the test
suite substitutes a corrupted implementation here (for example a sign flip
in the symmetry shift) and asserts that the affected check catches it. The
random instances come from random_hamiltonian, which the tests share, and
the molecule-shaped ones from chain_hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from blissdf.factorization import FactorSet, frobenius_error, initial_double_factorization
from blissdf.fcidump import _excitation_order
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
    effective_one_body,
    pair_space,
    symmetrize_one_body,
)
from blissdf.optimizer import OptimizationConfig, gradient, optimize, total_cost

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


def chain_hamiltonian(n: int, seed: int) -> Hamiltonian:
    """Molecule-shaped Hamiltonian of a 1D chain: N/2 sites, an s- and a p-like orbital on each.

    The sites sit on a line 1.8 apart, each moved by up to a quarter spacing
    at random. Each carries one unit of nuclear charge and two Gaussians,
    exp(-r^2) and r exp(-0.6 r^2), Loewdin-orthonormalized on a 600-point
    grid. Every interaction uses the soft-Coulomb kernel 1/sqrt(r^2 + 1).
    From the chemists' integrals (ij|kl), g = (ij|kl) / 2 and
    h = T + V_nuc - 1/2 sum_k (ik|kj), at half filling (n_e = N).

    The pair block of (ij|kl) has rank M of order N (a Cholesky rank, as for
    real integrals): its eigenpairs above 1e-10 of the largest eigenvalue
    make the roots L, rounded to multiples of 2^-20, and (ij|kl) = L L^T. T + V_nuc is
    rounded to multiples of 2^-40. Every later sum is then exact: the tensor
    is positive semidefinite and 8-fold symmetric bit for bit, and the FCIDUMP
    round trip (write_integrals, load_integrals) gives back the same bits.
    Deterministic from ``seed``; N must be even.
    """
    if n < 2 or n % 2:
        raise ValueError(f"chain_hamiltonian needs an even N >= 2, got {n}")
    rng = np.random.default_rng(seed)
    sites = 1.8 * (np.arange(n // 2) + rng.uniform(-0.25, 0.25, n // 2))
    x = np.linspace(sites[0] - 4.0, sites[-1] + 4.0, 600)
    dx = x[1] - x[0]
    r = x[:, None] - sites
    basis = np.empty((len(x), n))
    basis[:, 0::2], basis[:, 1::2] = np.exp(-(r**2)), r * np.exp(-0.6 * r**2)
    overlap_vals, overlap_vecs = np.linalg.eigh(basis.T @ basis * dx)
    orbitals = basis @ (overlap_vecs / np.sqrt(overlap_vals)) @ overlap_vecs.T

    def soft_coulomb(d):
        return 1.0 / np.sqrt(d**2 + 1.0)

    rows, cols = np.divmod(pair_space(n).upper, n)
    densities = orbitals[:, rows] * orbitals[:, cols] * dx  # the P pair densities
    eri = densities.T @ soft_coulomb(x[:, None] - x) @ densities
    eri_vals, eri_vecs = np.linalg.eigh(symmetrize_one_body(eri))
    keep = eri_vals > 1e-10 * eri_vals[-1]
    roots = np.round(eri_vecs[:, keep] * np.sqrt(eri_vals[keep]) * 2.0**20) * 2.0**-20
    eri = roots @ roots.T  # exact: every product and partial sum is a multiple of 2^-40

    slopes = np.gradient(orbitals, dx, axis=0)
    nuclear = soft_coulomb(r).sum(axis=1)  # minus V_nuc on the grid
    one_body = 0.5 * slopes.T @ slopes * dx - orbitals.T @ (nuclear[:, None] * orbitals) * dx
    one_body = np.round(symmetrize_one_body(one_body) * 2.0**40) * 2.0**-40  # the symmetric part, rounded
    h = _excitation_order(one_body, eri)  # halves eri in place
    return Hamiltonian(
        h=h,
        g=eri,
        core_constant=float(np.triu(soft_coulomb(sites[:, None] - sites), 1).sum()),
        n_electrons=n,
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
        factor_set = initial_double_factorization(ham.g_pairs, n * n)
        worst = max(worst, frobenius_error(ham.g_pairs, factor_set))
        rebuilt = Hamiltonian(
            h=ham.h,
            g=factor_set.packed.T @ factor_set.packed,  # the pair block of sum_r A_r (x) A_r
            core_constant=ham.core_constant,
            n_electrons=ham.n_electrons,
        )
        for n_e in range(2 * n + 1):
            dev = np.max(np.abs(sector_hamiltonian(ham, n_e) - sector_hamiltonian(rebuilt, n_e)))
            worst = max(worst, float(dev))
    return CheckResult("factorization exactness", worst, 1e-9)


def _check_gradient() -> CheckResult:
    """Analytic gradient against central finite differences, over kappa, xi's entries and the packed factors."""
    rng = np.random.default_rng(16)
    worst = 0.0
    for n, rank in ((3, 2), (4, 3)):
        ham, space = random_hamiltonian(n, rng), pair_space(n)
        kappa = float(rng.standard_normal())
        xi = symmetrize_one_body(0.3 * rng.standard_normal((n, n)))
        packed = space.pack(0.5 * rng.standard_normal((rank, n, n)))
        c_approx = 50.0
        grad_kappa, grad_xi, grad_factors = gradient(ham, (kappa, xi, FactorSet(packed, rank)), c_approx)
        # Packed entry p sets both mirrored entries of its factor: c_p times the per-entry gradient.
        analytic = np.concatenate([[grad_kappa], grad_xi.ravel(), (grad_factors * space.mult).ravel()])
        point = np.concatenate([[kappa], xi.ravel(), packed.ravel()])
        step = 1e-5

        def cost_at(vec):
            x, f = vec[1 : 1 + n * n].reshape(n, n), vec[1 + n * n :].reshape(rank, -1)
            return total_cost(ham, (vec[0], x, FactorSet(f, rank)), c_approx)[0]

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


def _check_closed_form_kappa() -> CheckResult:
    """The optimizer's row-0 lambda against the minimum of total_cost over a dense kappa grid.

    Row 0 holds the initial factors and xi = 0 at the closed-form kappa, so
    its lambda must be the smallest that total_cost reaches at any explicit
    kappa. The grid spans +-(||h'||_F + 1), which holds every eigenvalue of
    h' and so the minimizer; it is refined twice around its best point, down
    to steps of 1e-6 of that half-width.
    """
    rng = np.random.default_rng(17)
    worst = 0.0
    for n in (2, 3):
        ham = random_hamiltonian(n, rng)
        factors, xi = initial_double_factorization(ham.g_pairs, n * n), np.zeros((n, n))
        row0 = float(optimize(ham, n * n, OptimizationConfig(max_iters=1)).total_trace[0, 2])
        center, half = 0.0, float(np.linalg.norm(effective_one_body(ham))) + 1.0
        for _ in range(3):
            grid = np.linspace(center - half, center + half, 201)
            lambdas = [total_cost(ham, (kappa, xi, factors), 1.0)[2] for kappa in grid]
            best = int(np.argmin(lambdas))
            center, half = float(grid[best]), half / 100.0
        worst = max(worst, abs(row0 - lambdas[best]) / lambdas[best])
    return CheckResult("closed-form kappa", worst, 1e-6)


def _check_penalty_schedule() -> CheckResult:
    """The default penalty schedule on chain N=4, R=16 against one explicit weight, through the sector oracle.

    The default run (2000 iterations) must end at a feasible point, with Err
    recomputed from its shift and factors within err_budget of the initial
    Err, and at a lambda no larger than that of a single-phase run at the
    schedule's automatic weight with the same budget. Rebuilt from its shifted
    one-body part and its factors, the Hamiltonian must keep the input's
    n_e-sector spectrum up to the residual's reach: with D the two-body
    residual, the two-body operator of D moves no eigenvalue by more than
    n_e^2 ||D||_* <= n_e^2 N sqrt(Err). A failed condition reads as an
    infinite deviation.
    """
    ham, rank = chain_hamiltonian(4, 1), 16
    config = OptimizationConfig(max_iters=2000)
    report = optimize(ham, rank, config)
    single = optimize(ham, rank, replace(config, c_approx=report.c_approx_used))
    kappa, xi, factor_set = report.best_params
    shifted = apply_symmetry_shift(ham, ShiftParams(kappa=kappa, xi=xi, n_e=ham.n_electrons))
    budget = report.initial_err + config.err_budget
    rebuilt = Hamiltonian(
        h=shifted.h,
        g=factor_set.packed.T @ factor_set.packed,
        core_constant=shifted.core_constant,
        n_electrons=ham.n_electrons,
    )
    reference = sector_eigenvalues(ham, ham.n_electrons)
    worst = float(np.max(np.abs(sector_eigenvalues(rebuilt, ham.n_electrons) - reference)))
    feasible = frobenius_error(shifted.g_pairs, factor_set) <= budget
    if not (feasible and report.lambda_breakdown.lambda_total <= single.lambda_breakdown.lambda_total):
        worst = float("inf")
    tolerance = ham.n_electrons**2 * ham.n_orbitals * float(np.sqrt(budget))
    return CheckResult("penalty schedule", worst, tolerance)


def run_verification(level: str) -> list[CheckResult]:
    """Run the oracle suites; 'fast' covers N <= 2, 'full' adds N = 3, gradients, kappa and the schedule."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    sizes = (1, 2) if level == "fast" else (1, 2, 3)
    results = [
        _check_anticommutators(sizes),
        _check_number_operator(sizes),
        _check_b_identities(sizes),
        _check_one_body_rotation(sizes),
        _check_bliss_invariance(sizes[1:]),
        _check_factorization_exactness(sizes[1:]),
    ]
    if level == "full":
        results += [_check_gradient(), _check_closed_form_kappa(), _check_penalty_schedule()]
    return results
