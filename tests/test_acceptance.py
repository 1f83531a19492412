"""Acceptance suite: one test per top-level guarantee.

Each test prints a single PASS line with the measured figure of merit after
its assertions clear, so a verbose run reads as a checklist. The two
large-molecule reproductions at the bottom need externally supplied integral
files and are skipped unless the corresponding environment variables point
at them; the N=54 chain run before them takes minutes and runs only with
BLISSDF_SLOW_CHAIN set.
"""

import os
import time

import numpy as np
import pytest

from blissdf import (
    FactorSet,
    Hamiltonian,
    OptimizationConfig,
    ShiftParams,
    apply_symmetry_shift,
    eigen_rank1,
    effective_one_body,
    frobenius_error,
    gradient,
    initial_double_factorization,
    lambda_df,
    load_factor_set,
    load_integrals,
    nuclear_norm,
    optimize,
    reconstruct_two_body,
    save_factor_set,
    total_cost,
)
from blissdf.fermi_oracle import MAX_ORBITALS, sector_eigenvalues, sector_hamiltonian
from blissdf.hamiltonian import pair_space, symmetrize_one_body
from blissdf.verify import chain_hamiltonian, run_verification

from conftest import random_hamiltonian, random_psd_two_body

ORACLE_IDENTITY_CHECKS = (
    "canonical anticommutation",
    "number operator diagonal",
    "rotated-basis operator identities",
    "one-body rotation identity",
    "trace and reconstruction identity",
)


def test_oracle_identity_suite():
    # Operator-algebra identities at N in {1, 2, 3}: anticommutators,
    # B^2 = 0, {B, B+} = I, unitarity of 2 B+ B - I, the rotated-basis
    # form of One(A), and the eigenvalue-sum trace identity.
    start = time.monotonic()
    results = {r.name: r for r in run_verification("full")}
    worst = 0.0
    for name in ORACLE_IDENTITY_CHECKS:
        result = results[name]
        assert result.passed, f"{name}: {result.max_deviation:.3e}"
        assert result.max_deviation <= 1e-9, name
        worst = max(worst, result.max_deviation)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(
        f"PASS oracle identity suite: max deviation {worst:.3e} <= 1e-9 "
        f"in {elapsed:.1f}s"
    )


def test_symmetry_shift_sector_invariance():
    # 50 random (H, kappa, xi, n_e) draws at N in {2, 3}: the shifted
    # Hamiltonian must match the original on the n_e sector to 1e-9 while
    # the full Fock-space spectrum, the union of all 2N + 1 sector spectra,
    # moves in at least 45 of the 50 cases.
    start = time.monotonic()
    rng = np.random.default_rng(100)
    worst_sector = 0.0
    full_space_moved = 0
    for case in range(50):
        n = 2 if case % 2 == 0 else 3
        n_e = int(rng.integers(1, 2 * n))
        ham = random_hamiltonian(n, rng, n_electrons=n_e)
        shift = ShiftParams(
            kappa=float(rng.standard_normal()),
            xi=symmetrize_one_body(rng.standard_normal((n, n))),
            n_e=n_e,
        )
        shifted = apply_symmetry_shift(ham, shift)

        spectra = [sector_eigenvalues(ham, k) for k in range(2 * n + 1)]
        spectra_shifted = [sector_eigenvalues(shifted, k) for k in range(2 * n + 1)]
        worst_sector = max(
            worst_sector, float(np.max(np.abs(spectra[n_e] - spectra_shifted[n_e])))
        )

        full = np.sort(np.concatenate(spectra))
        full_shifted = np.sort(np.concatenate(spectra_shifted))
        if float(np.max(np.abs(full - full_shifted))) > 1e-6:
            full_space_moved += 1

    elapsed = time.monotonic() - start
    assert worst_sector <= 1e-9
    assert full_space_moved >= 45
    assert elapsed < 300.0
    print(
        f"PASS sector invariance: 50/50 sectors within {worst_sector:.3e}, "
        f"full spectrum moved in {full_space_moved}/50, {elapsed:.1f}s"
    )


def test_sector_oracle_at_orbital_cap():
    # At N = MAX_ORBITALS = 6, half filling (924 states): the symmetry shift
    # leaves the sector spectrum unchanged, and the full-rank factorization
    # reproduces the sector block, both to 1e-9, within 10 s.
    start = time.monotonic()
    rng = np.random.default_rng(106)
    n = MAX_ORBITALS
    ham = random_hamiltonian(n, rng, n_electrons=n)
    shift = ShiftParams(
        kappa=float(rng.standard_normal()),
        xi=symmetrize_one_body(rng.standard_normal((n, n))),
        n_e=n,
    )
    block = sector_hamiltonian(ham, n)
    spectrum = np.linalg.eigvalsh(block)
    shifted = sector_eigenvalues(apply_symmetry_shift(ham, shift), n)
    invariance = float(np.max(np.abs(spectrum - shifted)))

    factor_set = initial_double_factorization(ham.g, n * n)
    rebuilt = Hamiltonian(
        h=ham.h,
        g=reconstruct_two_body(factor_set),
        core_constant=ham.core_constant,
        n_electrons=n,
    )
    exactness = float(np.max(np.abs(block - sector_hamiltonian(rebuilt, n))))

    elapsed = time.monotonic() - start
    assert block.shape == (924, 924)
    assert invariance <= 1e-9
    assert exactness <= 1e-9
    assert elapsed < 10.0
    print(
        f"PASS N={n} sector oracle: shift invariance {invariance:.3e}, "
        f"factorization exactness {exactness:.3e} <= 1e-9 in {elapsed:.1f}s"
    )


def test_factorization_exactness_and_monotonicity():
    # Full-rank factorization reproduces random PSD-reshaped tensors at
    # N in {4, 6} to 1e-10, and the residual never increases with rank.
    rng = np.random.default_rng(101)
    for n in (4, 6):
        g = random_psd_two_body(n, rng)
        errors = []
        for rank in range(1, n * n + 1):
            factor_set = initial_double_factorization(g, rank)
            errors.append(frobenius_error(g, factor_set))
        assert errors[-1] <= 1e-10, f"N={n} full-rank residual {errors[-1]:.3e}"
        for lo, hi in zip(errors[1:], errors[:-1]):
            assert lo <= hi + 1e-12, f"N={n} residual increased with rank"
    print("PASS factorization exactness: full-rank Err <= 1e-10 at N=4 and N=6, monotone in R")


def test_nuclear_norm_lower_bound():
    # For 100 random symmetric matrices and 100 random valid rank-1
    # decompositions each, the weight one-norm never beats the nuclear
    # norm, and the eigendecomposition attains it.
    rng = np.random.default_rng(102)
    n = 4
    basis_size = 12
    for matrix_index in range(100):
        a = symmetrize_one_body(rng.standard_normal((n, n)))
        bound = nuclear_norm(a)

        attained = float(np.abs(eigen_rank1(a).eigenvalues).sum())
        assert abs(attained - bound) <= 1e-10

        for _ in range(100):
            for attempt in range(5):
                vecs = rng.standard_normal((basis_size, n))
                vecs /= np.linalg.norm(vecs, axis=1)[:, None]
                basis = np.stack(
                    [np.outer(u, u).ravel() for u in vecs], axis=1
                )
                coeffs, *_ = np.linalg.lstsq(basis, a.ravel(), rcond=None)
                residual = float(np.linalg.norm(basis @ coeffs - a.ravel()))
                if residual <= 1e-10:
                    break
            assert residual <= 1e-10, "no valid decomposition found"
            assert float(np.abs(coeffs).sum()) >= bound - 1e-9, (
                f"matrix {matrix_index}: one-norm {np.abs(coeffs).sum():.12f} "
                f"below nuclear norm {bound:.12f}"
            )
    print("PASS nuclear-norm bound: 10000 random decompositions respect it, eigendecomposition attains it")


def test_gradient_against_finite_differences():
    # Analytic gradients versus central differences at 20 random points
    # spanning N in {3, 4, 5} and R in {2, 3}: every component larger than
    # 1e-6 in magnitude agrees to a relative 1e-5.
    rng = np.random.default_rng(103)
    combos = [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)]
    step = 1e-6
    c = 10.0
    worst_rel = 0.0
    checked = 0

    for point in range(20):
        n, rank = combos[point % len(combos)]
        ham = random_hamiltonian(n, rng, n_electrons=int(rng.integers(1, 2 * n)))
        kappa = float(rng.standard_normal())
        xi = symmetrize_one_body(0.5 * rng.standard_normal((n, n)))
        factors = rng.standard_normal((rank, n, n))
        space = pair_space(n)
        packed = space.pack(0.5 * (factors + factors.transpose(0, 2, 1)))
        factors = FactorSet(packed, rank)

        grad_kappa, grad_xi, grad_factors = gradient(
            ham, (kappa, xi, factors), c
        )

        def value(k, x, f):
            return total_cost(ham, (k, x, f), c)[0]

        def compare(analytic, fd):
            nonlocal worst_rel, checked
            if abs(analytic) > 1e-6:
                rel = abs(fd - analytic) / abs(analytic)
                worst_rel = max(worst_rel, rel)
                checked += 1
                assert rel <= 1e-5, f"rel {rel:.3e} at N={n} R={rank}"

        fd = (
            value(kappa + step, xi, factors) - value(kappa - step, xi, factors)
        ) / (2 * step)
        compare(grad_kappa, fd)

        for a in range(n):
            for b in range(n):
                bump = np.zeros((n, n))
                bump[a, b] = step
                fd = (
                    value(kappa, xi + bump, factors)
                    - value(kappa, xi - bump, factors)
                ) / (2 * step)
                compare(grad_xi[a, b], fd)

        # Packed entry p sets both mirrored entries: c_p times the per-entry gradient.
        for r in range(rank):
            for p in range(packed.shape[1]):
                bump = np.zeros_like(packed)
                bump[r, p] = step
                fd = (
                    value(kappa, xi, FactorSet(packed + bump, rank))
                    - value(kappa, xi, FactorSet(packed - bump, rank))
                ) / (2 * step)
                compare(space.mult[p] * grad_factors[r, p], fd)

    assert checked > 500
    print(
        f"PASS gradient check: {checked} components at 20 points, "
        f"worst relative error {worst_rel:.3e} <= 1e-5"
    )


def test_kappa_descent_matches_grid_scan():
    # Row 0 of a run holds xi = 0 and the initial factors, where lambda
    # depends on kappa alone through || h' + kappa I ||_*, so an exhaustive
    # grid scan over kappa is an independent oracle for the kappa the
    # descent sets there.
    start = time.monotonic()
    rng = np.random.default_rng(104)
    factors = 0.3 * np.stack(
        [symmetrize_one_body(rng.standard_normal((2, 2))) for _ in range(2)]
    )
    g = np.einsum("rij,rkl->ijkl", factors, factors)
    ham = Hamiltonian(
        h=np.array([[2.0, 0.3], [0.3, 1.2]]), g=g, n_electrons=2
    )

    h_prime = effective_one_body(ham)
    init = initial_double_factorization(ham.g, 4)
    two_body = lambda_df(init, h_prime).two_body_part
    mu = np.linalg.eigvalsh(h_prime)

    grid = np.arange(-10.0, 10.0 + 1e-9, 1e-3)
    lambda_on_grid = two_body + np.abs(mu[None, :] + grid[:, None]).sum(axis=1)
    grid_minimum = float(lambda_on_grid.min())

    report = optimize(ham, 4, OptimizationConfig())
    row0 = report.total_trace[0, 2]
    assert report.lambda_breakdown.lambda_total <= row0

    # At N = 2 the norm is flat between -mu_2 and -mu_1, wide enough to hold
    # grid points, so the grid minimum is exact up to round-off.
    gap = abs(row0 - grid_minimum)
    elapsed = time.monotonic() - start
    assert gap <= 1e-9
    assert elapsed < 300.0
    print(
        f"PASS kappa oracle: row-0 lambda within {gap:.3e} of the "
        f"20001-point grid minimum, {elapsed:.1f}s"
    )


def test_improvement_property():
    # Ten random N=8, R=32 problems with strong one-body structure: the
    # optimized lambda never regresses past the starting factorization and
    # the residual stays within budget. A >= 1% improvement is expected on
    # at least 8 of 10; falling short is flagged, not failed, because
    # random tensors lack the structure the shift exploits best.
    rng = np.random.default_rng(105)
    config = OptimizationConfig(
        c_approx=1e4, learning_rate=2e-3, max_iters=2000, patience=2000
    )
    improved = 0
    for trial in range(10):
        g = random_psd_two_body(8, rng)
        h = 2.0 * symmetrize_one_body(rng.standard_normal((8, 8)))
        ham = Hamiltonian(h=h, g=g, n_electrons=8)

        report = optimize(ham, 32, config)
        lam = report.lambda_breakdown.lambda_total
        assert lam <= report.initial_lambda, f"trial {trial}: lambda regressed"
        assert report.err_final <= report.initial_err + 1e-6, (
            f"trial {trial}: Err {report.err_final:.3e} exceeds budget"
        )
        if lam <= 0.99 * report.initial_lambda:
            improved += 1

    if improved < 8:
        print(f"FLAG improvement property: only {improved}/10 trials improved >= 1%")
    else:
        print(f"PASS improvement property: {improved}/10 trials improved >= 1%, none regressed")


def test_chain_n54_penalty_schedule(tmp_path):
    # Minutes of descent on the molecule-shaped N=54 chain (M = 124 of
    # P = 1485 pairs) at full rank; set BLISSDF_SLOW_CHAIN to enable.
    if not os.environ.get("BLISSDF_SLOW_CHAIN"):
        pytest.skip("BLISSDF_SLOW_CHAIN not set")
    start = time.monotonic()
    ham = chain_hamiltonian(54, 1)
    report = optimize(ham, 54 * 54, OptimizationConfig(max_iters=4000))
    ratio = report.lambda_breakdown.lambda_total / report.initial_lambda
    assert report.err_final <= report.initial_err + 1e-6
    assert ratio <= 0.30
    # The archive holds the M packed factors, not the 68 MB padded stack.
    kappa, xi, factor_set = report.best_params
    path = tmp_path / "factors.npz"
    save_factor_set(path, factor_set, kappa=kappa, xi=xi)
    assert path.stat().st_size < 5e6
    loaded, kappa_back, xi_back, _ = load_factor_set(path)
    assert loaded.rank == 54 * 54
    assert loaded.packed.tobytes() == factor_set.packed.tobytes()
    assert kappa_back == kappa and xi_back.tobytes() == xi.tobytes()
    import resource  # POSIX only, as is the opt-in run

    # ru_maxrss is in KiB on Linux. It is the pytest process's peak, the chain generator's included.
    print(
        f"PASS chain N=54: lambda ratio {ratio:.4f} <= 0.30 at iteration "
        f"{report.best_iteration} of {report.iterations_run}, {time.monotonic() - start:.0f}s, "
        f"ru_maxrss {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MiB"
    )


LARGE_MOLECULE_CASES = [
    pytest.param(
        "BLISSDF_FEMOCO_FCIDUMP", 296.0, 77.9, 57.9, id="femoco-n54",
    ),
    pytest.param(
        "BLISSDF_P450_FCIDUMP", 472.9, 111.0, 82.8, id="p450-n58",
    ),
]


@pytest.mark.parametrize("env_var,xdf_lambda,ceiling,target", LARGE_MOLECULE_CASES)
def test_large_molecule_reproduction(env_var, xdf_lambda, ceiling, target):
    # Hours-long workstation runs against externally supplied integral
    # files; set the environment variable to the FCIDUMP path to enable.
    path = os.environ.get(env_var)
    if not path:
        pytest.skip(f"{env_var} not set")

    ham = load_integrals(path)
    n = ham.n_orbitals
    rank = n * n

    init = initial_double_factorization(ham.g_pairs, rank)
    init_lambda = lambda_df(init, effective_one_body(ham)).lambda_total
    assert abs(init_lambda - xdf_lambda) <= 0.01 * xdf_lambda, (
        f"starting-point lambda {init_lambda:.1f} not within 1% of {xdf_lambda}"
    )

    report = optimize(ham, rank, OptimizationConfig())
    lam = report.lambda_breakdown.lambda_total
    assert report.err_final <= 5e-5
    assert lam <= ceiling
    assert abs(lam - target) <= 0.10 * target
    print(
        f"PASS large-molecule run: lambda {init_lambda:.1f} -> {lam:.1f} "
        f"(target {target}), Err {report.err_final:.2e}"
    )
