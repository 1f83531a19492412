import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from blissdf import (
    ConfigError,
    FactorSet,
    Hamiltonian,
    NonFiniteCostError,
    OptimizationConfig,
    ShiftParams,
    apply_symmetry_shift,
    effective_one_body,
    frobenius_error,
    gradient,
    initial_double_factorization,
    lambda_df,
    nuclear_norm,
    optimize,
    total_cost,
)
from blissdf.fermi_oracle import sector_eigenvalues
from blissdf.hamiltonian import symmetrize_one_body
from blissdf.optimizer import _REAL_FIELDS, PARAM_BLOCKS

from conftest import random_hamiltonian


def small_config(**overrides):
    base = dict(max_iters=300, learning_rate=1e-2, patience=100)
    base.update(overrides)
    return OptimizationConfig(**base)


def count_gradient_evaluations(monkeypatch) -> list:
    """Record one entry per optimizer eigh batch turned into subgradients."""
    from blissdf import optimizer

    original = optimizer.sign_subgradients
    calls = []

    def counted(eigvals, eigvecs):
        calls.append(1)
        return original(eigvals, eigvecs)

    monkeypatch.setattr(optimizer, "sign_subgradients", counted)
    return calls


def symmetrize_one_body_stack(mats):
    return 0.5 * (mats + mats.transpose(0, 2, 1))


def dense_cost_and_gradient(ham, kappa, xi, factors, c_approx):
    """Total and its gradient from the N^4 tensors, written out with einsum."""
    n, n_e = ham.n_orbitals, ham.n_electrons
    eye = np.eye(n)
    shifted = ham.g + 0.5 * (
        np.einsum("ij,kl->ijkl", xi, eye) + np.einsum("ij,kl->ijkl", eye, xi)
    )
    diff = shifted - np.einsum("rij,rkl->ijkl", factors, factors)
    err = float(np.sum(diff**2))
    h_eff = ham.h - n_e * xi + kappa * eye + 2.0 * np.einsum("ijkk->ij", shifted)

    def norm_and_sub(a):
        eigvals, eigvecs = np.linalg.eigh(a)
        return np.abs(eigvals).sum(), (eigvecs * np.sign(eigvals)) @ eigvecs.T

    one_body_norm, one_body_sub = norm_and_sub(h_eff)
    pieces = [norm_and_sub(a) for a in factors]
    lam = 0.5 * sum(norm**2 for norm, _ in pieces) + one_body_norm
    d_kappa = np.trace(one_body_sub)
    d_xi = 2.0 * c_approx * np.einsum("abkk->ab", diff)
    d_xi += (n - n_e) * one_body_sub + np.trace(one_body_sub) * eye
    d_factors = -4.0 * c_approx * np.einsum("ijkl,rkl->rij", diff, factors)
    d_factors += np.array([norm * sub for norm, sub in pieces]).reshape(factors.shape)
    d_factors = 0.5 * (d_factors + d_factors.transpose(0, 2, 1))
    return (c_approx * err + lam, err, lam), (d_kappa, 0.5 * (d_xi + d_xi.T), d_factors)


class TestConfig:
    def test_defaults(self):
        cfg = OptimizationConfig()
        assert cfg.c_approx is None
        assert cfg.max_iters == 10000
        assert cfg.learning_rate == 1e-3
        assert cfg.adam_beta1 == 0.9
        assert cfg.adam_beta2 == 0.999
        assert cfg.adam_epsilon == 1e-8
        assert cfg.rel_tol == 1e-7
        assert cfg.patience == 200
        assert cfg.seed == 0
        assert cfg.err_budget == 1e-6

    @pytest.mark.parametrize(
        "bad",
        [
            {"c_approx": 0.0},
            {"c_approx": -1.0},
            {"max_iters": 0},
            {"max_iters": 2.5},
            {"max_iters": True},
            {"learning_rate": 0.0},
            {"adam_beta1": 1.0},
            {"adam_beta2": 0.0},
            {"adam_epsilon": 0.0},
            {"rel_tol": -1e-9},
            {"patience": 0},
            {"seed": 2**63},
            {"err_budget": -1.0},
        ],
    )
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ConfigError):
            OptimizationConfig(**bad)

    def test_from_dict_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config keys.*learning_rat"):
            OptimizationConfig.from_dict({"learning_rat": 1e-3})

    def test_from_dict_integer_fields_reject_floats(self):
        with pytest.raises(ConfigError, match="max_iters"):
            OptimizationConfig.from_dict({"max_iters": 10.0})

    @pytest.mark.parametrize(
        "name",
        [
            "c_approx",
            "learning_rate",
            "adam_beta1",
            "adam_beta2",
            "adam_epsilon",
            "rel_tol",
            "err_budget",
        ],
    )
    @pytest.mark.parametrize("value", ["0.1", True, [0.1]], ids=repr)
    def test_real_fields_reject_non_numbers(self, name, value):
        with pytest.raises(ConfigError, match=name):
            OptimizationConfig.from_dict({name: value})

    @pytest.mark.parametrize("name", _REAL_FIELDS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
    def test_real_fields_reject_non_finite(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            OptimizationConfig.from_dict({name: value})

    def test_huge_integer_is_a_finite_number(self):
        assert OptimizationConfig(err_budget=10**400).err_budget == 10**400

    def test_real_fields_accept_ints(self):
        cfg = OptimizationConfig.from_dict({"c_approx": 1000, "rel_tol": 0})
        assert (cfg.c_approx, cfg.rel_tol) == (1000, 0)

    def test_dict_roundtrip(self):
        cfg = OptimizationConfig(c_approx=12.0, seed=7)
        assert OptimizationConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"learning_rate": 0.05, "patience": 9}))
        cfg = OptimizationConfig.from_json(path)
        assert cfg.learning_rate == 0.05
        assert cfg.patience == 9

    def test_from_json_invalid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            OptimizationConfig.from_json(path)
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            OptimizationConfig.from_json(path)


class TestTotalCost:
    def test_exact_factorization_has_zero_err(self):
        rng = np.random.default_rng(20)
        ham = random_hamiltonian(3, rng)
        fs = initial_double_factorization(ham.g, 9)
        total, err, lam = total_cost(
            ham, (0.0, np.zeros((3, 3)), fs), c_approx=1e6
        )
        assert err < 1e-24
        breakdown = lambda_df(fs, effective_one_body(ham))
        assert lam == pytest.approx(breakdown.lambda_total, rel=1e-14)
        assert total == pytest.approx(c_approx_times(1e6, err) + lam, rel=1e-14)

    def test_empty_factor_set_oracle(self):
        rng = np.random.default_rng(21)
        ham = random_hamiltonian(3, rng)
        factors = np.zeros((0, 3, 3))
        total, err, lam = total_cost(ham, (0.0, np.zeros((3, 3)), factors), 2.0)
        assert err == pytest.approx(float(np.sum(ham.g**2)), rel=1e-14)
        assert lam == pytest.approx(
            nuclear_norm(effective_one_body(ham)), rel=1e-14
        )
        assert total == pytest.approx(2.0 * err + lam, rel=1e-14)

    def test_composition_against_shift_and_lambda(self):
        # total must equal c * Err + lambda where Err and lambda are
        # recomputed independently through the shift and breakdown helpers.
        rng = np.random.default_rng(22)
        ham = random_hamiltonian(4, rng, n_electrons=3)
        kappa = 0.7
        xi = symmetrize_one_body(rng.standard_normal((4, 4)))
        factors = rng.standard_normal((3, 4, 4))
        factors = 0.5 * (factors + factors.transpose(0, 2, 1))

        total, err, lam = total_cost(ham, (kappa, xi, factors), 5.0)

        shifted = apply_symmetry_shift(ham, ShiftParams(kappa, xi, ham.n_electrons))
        fs = FactorSet(factors=factors)
        err_ref = frobenius_error(shifted.g, fs)
        lam_ref = lambda_df(fs, effective_one_body(shifted)).lambda_total
        assert err == pytest.approx(err_ref, rel=1e-12, abs=1e-12)
        assert lam == pytest.approx(lam_ref, rel=1e-12)
        assert total == pytest.approx(5.0 * err_ref + lam_ref, rel=1e-12)

    def test_accepts_factor_set(self):
        rng = np.random.default_rng(23)
        ham = random_hamiltonian(2, rng)
        fs = initial_double_factorization(ham.g, 2)
        t1 = total_cost(ham, (0.0, np.zeros((2, 2)), fs), 1.0)
        t2 = total_cost(ham, (0.0, np.zeros((2, 2)), fs.factors), 1.0)
        assert t1 == t2

    def test_shape_mismatch(self):
        rng = np.random.default_rng(24)
        ham = random_hamiltonian(2, rng)
        with pytest.raises(ValueError, match="xi"):
            total_cost(ham, (0.0, np.zeros((3, 3)), np.zeros((1, 2, 2))), 1.0)
        with pytest.raises(ValueError, match="factors"):
            total_cost(ham, (0.0, np.zeros((2, 2)), np.zeros((1, 3, 3))), 1.0)


def c_approx_times(c, err):
    return c * err


class TestGradient:
    def test_residual_gradient_vanishes_at_exact_factorization(self):
        # With Err = 0 the gradient must not depend on c_approx, because
        # the penalty term contributes -4 c (residual : A_r) and the
        # residual is zero. The gradient is affine in c_approx, so the
        # difference between two weights isolates the residual block.
        rng = np.random.default_rng(25)
        ham = random_hamiltonian(3, rng)
        fs = initial_double_factorization(ham.g, 9)
        params = (0.3, np.zeros((3, 3)), fs)
        g_lo = gradient(ham, params, 1.0)
        g_hi = gradient(ham, params, 2.0)
        assert abs(g_lo[0] - g_hi[0]) < 1e-8
        assert np.max(np.abs(g_lo[1] - g_hi[1])) < 1e-8
        assert np.max(np.abs(g_lo[2] - g_hi[2])) < 1e-8

    def test_zero_factor_zero_gradient(self):
        ham = Hamiltonian(
            h=np.diag([1.0, -2.0]),
            g=np.zeros((2, 2, 2, 2)),
            n_electrons=1,
        )
        grads = gradient(ham, (0.0, np.zeros((2, 2)), np.zeros((1, 2, 2))), 3.0)
        assert np.array_equal(grads[2], np.zeros((1, 2, 2)))

    def test_finite_difference_all_blocks(self):
        rng = np.random.default_rng(26)
        ham = random_hamiltonian(4, rng, n_electrons=3)
        kappa = 0.4
        xi = symmetrize_one_body(0.3 * rng.standard_normal((4, 4)))
        factors = rng.standard_normal((3, 4, 4))
        factors = 0.5 * (factors + factors.transpose(0, 2, 1))
        c = 7.0
        step = 1e-6

        grad_kappa, grad_xi, grad_factors = gradient(
            ham, (kappa, xi, factors), c
        )

        def value(k, x, f):
            return total_cost(ham, (k, x, f), c)[0]

        fd_kappa = (
            value(kappa + step, xi, factors) - value(kappa - step, xi, factors)
        ) / (2 * step)
        assert grad_kappa == pytest.approx(fd_kappa, rel=1e-5, abs=1e-6)

        for a in range(4):
            for b in range(4):
                bump = np.zeros((4, 4))
                bump[a, b] = step
                fd = (
                    value(kappa, xi + bump, factors)
                    - value(kappa, xi - bump, factors)
                ) / (2 * step)
                if abs(grad_xi[a, b]) > 1e-6:
                    assert fd == pytest.approx(grad_xi[a, b], rel=1e-5)

        for r in range(3):
            for a in range(4):
                for b in range(4):
                    bump = np.zeros((3, 4, 4))
                    bump[r, a, b] = step
                    fd = (
                        value(kappa, xi, factors + bump)
                        - value(kappa, xi, factors - bump)
                    ) / (2 * step)
                    if abs(grad_factors[r, a, b]) > 1e-6:
                        assert fd == pytest.approx(grad_factors[r, a, b], rel=1e-5)

    def test_gradient_symmetry(self):
        rng = np.random.default_rng(27)
        ham = random_hamiltonian(3, rng)
        xi = symmetrize_one_body(rng.standard_normal((3, 3)))
        factors = rng.standard_normal((2, 3, 3))
        _, grad_xi, grad_factors = gradient(ham, (0.1, xi, factors), 2.0)
        assert np.array_equal(grad_xi, grad_xi.T)
        assert np.array_equal(grad_factors, grad_factors.transpose(0, 2, 1))


class TestOptimize:
    def test_improvement_and_feasibility(self):
        rng = np.random.default_rng(28)
        ham = random_hamiltonian(3, rng, n_electrons=3)
        report = optimize(ham, 9, small_config())
        assert report.lambda_breakdown.lambda_total <= report.initial_lambda
        assert report.err_final <= report.initial_err + 1e-6
        assert report.lambda_breakdown.lambda_total < report.initial_lambda

    def test_deterministic_rerun(self):
        rng = np.random.default_rng(29)
        ham = random_hamiltonian(3, rng, n_electrons=2)
        r1 = optimize(ham, 5, small_config())
        r2 = optimize(ham, 5, small_config())
        k1, x1, f1 = r1.best_params
        k2, x2, f2 = r2.best_params
        assert k1 == k2
        assert np.array_equal(x1, x2)
        assert np.array_equal(f1.factors, f2.factors)
        assert np.array_equal(r1.total_trace, r2.total_trace)
        assert r1.lambda_breakdown.lambda_total == r2.lambda_breakdown.lambda_total

    @pytest.mark.parametrize(
        "free",
        [
            subset
            for size in (1, 2)
            for subset in itertools.combinations(PARAM_BLOCKS, size)
        ],
        ids="+".join,
    )
    def test_frozen_blocks_stay_fixed(self, free):
        rng = np.random.default_rng(30)
        ham = random_hamiltonian(3, rng, n_electrons=2)
        init = initial_double_factorization(ham.g, 4)

        report = optimize(ham, 4, small_config(), free=free)
        kappa, xi, fs = report.best_params
        initial = {"kappa": 0.0, "xi": np.zeros((3, 3)), "factors": init.factors}
        final = {"kappa": kappa, "xi": xi, "factors": fs.factors}
        for block in set(PARAM_BLOCKS) - set(free):
            assert np.array_equal(final[block], initial[block]), block
        assert report.best_iteration > 0

    def test_no_gradient_on_the_last_iterate(self, monkeypatch):
        # A max_iters stop takes max_iters steps from max_iters + 1
        # evaluations; only the steps need a gradient.
        gradient_evals = count_gradient_evaluations(monkeypatch)
        rng = np.random.default_rng(39)
        ham = random_hamiltonian(3, rng, n_electrons=2)
        report = optimize(ham, 6, small_config(max_iters=7, patience=50))
        assert report.stop_reason == "max_iters"
        assert len(gradient_evals) == report.iterations_run == 7

    def test_no_gradient_on_a_converged_stop(self, monkeypatch):
        # A patience stop takes one step fewer than it has evaluations, like
        # a max_iters stop: the iterate it stops on gets no gradient.
        counted = count_gradient_evaluations(monkeypatch)
        rng = np.random.default_rng(36)
        ham = random_hamiltonian(2, rng, n_electrons=2)
        report = optimize(ham, 4, small_config(max_iters=5000, patience=20, rel_tol=1e-3))
        assert report.stop_reason == "converged"
        assert len(counted) == report.iterations_run

    def test_effective_one_body_computed_once(self, monkeypatch):
        # h' does not depend on the shift, so the descent takes it once,
        # not once per evaluation.
        from blissdf import optimizer

        calls = []
        original = optimizer.effective_one_body

        def counted(ham):
            calls.append(1)
            return original(ham)

        monkeypatch.setattr(optimizer, "effective_one_body", counted)
        rng = np.random.default_rng(37)
        ham = random_hamiltonian(3, rng, n_electrons=3)
        report = optimize(ham, 6, small_config(max_iters=20))
        assert report.iterations_run == 20
        assert len(calls) == 1

    def test_patience_boundary_steps_are_unchanged(self, monkeypatch):
        # With patience=1 and rel_tol=0 the window re-anchors on every
        # iterate, so each step's gradient is computed after the cost; the
        # descent must be bit-identical to one that never reaches the window.
        counted = count_gradient_evaluations(monkeypatch)
        rng = np.random.default_rng(44)
        ham = random_hamiltonian(3, rng, n_electrons=3)
        edge = optimize(ham, 6, small_config(max_iters=40, patience=1, rel_tol=0.0))
        assert len(counted) == edge.iterations_run == 40
        counted.clear()
        wide = optimize(ham, 6, small_config(max_iters=40, patience=1000, rel_tol=0.0))
        assert len(counted) == 40
        assert np.array_equal(edge.total_trace, wide.total_trace)
        assert np.array_equal(edge.best_params[2].factors, wide.best_params[2].factors)

    @pytest.mark.parametrize("n", [3, 6])
    def test_null_space_padding_changes_nothing(self, n):
        # R = N^2 descends over the same nonzero factors as R = N(N+1)/2 and
        # reports them padded with exact zeros, bit for bit.
        rng = np.random.default_rng(40 + n)
        ham = random_hamiltonian(n, rng)
        pairs = n * (n + 1) // 2
        cfg = small_config(max_iters=60)
        full, packed = optimize(ham, n * n, cfg), optimize(ham, pairs, cfg)

        assert np.array_equal(full.total_trace, packed.total_trace)
        (k1, x1, f1), (k2, x2, f2) = full.best_params, packed.best_params
        assert k1 == k2
        assert np.array_equal(x1, x2)
        assert f1.rank == n * n and f2.rank == pairs
        assert np.array_equal(f1.factors[:pairs], f2.factors)
        assert np.all(f1.factors[pairs:] == 0.0)
        b1, b2 = full.lambda_breakdown, packed.lambda_breakdown
        assert b1.lambda_total == b2.lambda_total
        assert b1.two_body_part == b2.two_body_part
        assert b1.one_body_part == b2.one_body_part
        assert np.array_equal(b1.per_factor[:pairs], b2.per_factor)
        assert np.all(b1.per_factor[pairs:] == 0.0)
        assert full.err_final == packed.err_final
        assert full.initial_lambda == packed.initial_lambda

    def test_zero_factors_have_zero_gradient(self):
        # Why the descent may drop them: an exactly-zero factor has an
        # exactly zero gradient, so Adam never moves it.
        rng = np.random.default_rng(41)
        ham = random_hamiltonian(3, rng, n_electrons=3)
        init = initial_double_factorization(ham.g, 9)
        xi = symmetrize_one_body(rng.standard_normal((3, 3)))
        _, _, grad_factors = gradient(ham, (0.3, xi, init), 1e3)
        assert np.all(grad_factors[init.effective_rank :] == 0.0)
        assert np.all(np.any(grad_factors[: init.effective_rank] != 0.0, axis=(1, 2)))

    @pytest.mark.parametrize("n", [6, 10])
    def test_zero_padding_gives_prefix_bits(self, n):
        # total_cost and gradient stop at the last nonzero factor, as
        # optimize does, so padding R = N(N+1)/2 factors to N^2 changes no bit.
        rng = np.random.default_rng(43)
        m = n * (n + 1) // 2
        ham = random_hamiltonian(n, rng, n_electrons=n)
        factors = rng.standard_normal((m, n, n))
        factors += factors.transpose(0, 2, 1)
        padded = np.concatenate([factors, np.zeros((n * n - m, n, n))])
        params = (0.3, symmetrize_one_body(rng.standard_normal((n, n))), factors)
        padded_params = params[:2] + (padded,)
        assert total_cost(ham, padded_params, 1e2) == total_cost(ham, params, 1e2)
        d_kappa, d_xi, d_factors = gradient(ham, params, 1e2)
        pad_kappa, pad_xi, pad_factors = gradient(ham, padded_params, 1e2)
        assert pad_kappa == d_kappa
        assert pad_xi.tobytes() == d_xi.tobytes()
        assert pad_factors.shape == (n * n, n, n)
        assert pad_factors[:m].tobytes() == d_factors.tobytes()
        assert np.all(pad_factors[m:] == 0.0)

    def test_unknown_free_block(self):
        rng = np.random.default_rng(31)
        ham = random_hamiltonian(2, rng)
        with pytest.raises(ValueError, match="free"):
            optimize(ham, 2, small_config(), free=("kappa", "gamma"))

    def test_nonfinite_cost_raises_with_iteration(self):
        rng = np.random.default_rng(32)
        ham = random_hamiltonian(2, rng)
        cfg = small_config(learning_rate=1e160, c_approx=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteCostError, match="iteration") as exc_info:
                optimize(ham, 4, cfg)
        assert exc_info.value.iteration >= 1

    def test_trace_starts_at_initialization(self):
        rng = np.random.default_rng(33)
        ham = random_hamiltonian(3, rng)
        report = optimize(ham, 6, small_config(max_iters=50))
        assert report.total_trace.shape == (report.iterations_run + 1, 3)
        assert report.total_trace[0, 1] == report.initial_err
        assert report.total_trace[0, 2] == report.initial_lambda

    def test_report_matches_trace_row_bitwise(self):
        rng = np.random.default_rng(34)
        ham = random_hamiltonian(3, rng, n_electrons=3)
        report = optimize(ham, 9, small_config())
        row = report.total_trace[report.best_iteration]
        assert report.err_final == row[1]
        assert report.lambda_breakdown.lambda_total == row[2]

    def test_recompute_from_best_params(self):
        rng = np.random.default_rng(35)
        ham = random_hamiltonian(4, rng, n_electrons=4)
        report = optimize(ham, 10, small_config())
        kappa, xi, fs = report.best_params

        _, err, lam = total_cost(ham, (kappa, xi, fs), report.c_approx_used)
        assert abs(err - report.err_final) <= 1e-10
        assert abs(lam - report.lambda_breakdown.lambda_total) <= 1e-10

        shifted = apply_symmetry_shift(ham, ShiftParams(kappa, xi, ham.n_electrons))
        lam_ref = lambda_df(fs, effective_one_body(shifted)).lambda_total
        assert abs(lam_ref - report.lambda_breakdown.lambda_total) <= 1e-10

    def test_stop_reasons(self):
        rng = np.random.default_rng(36)
        ham = random_hamiltonian(2, rng, n_electrons=2)

        report = optimize(ham, 4, small_config(max_iters=5, patience=50))
        assert report.stop_reason == "max_iters"
        assert report.iterations_run == 5

        cfg = small_config(max_iters=5000, patience=20, rel_tol=1e-3)
        report = optimize(ham, 4, cfg)
        assert report.stop_reason == "converged"
        assert report.iterations_run < 5000

    def test_c_approx_resolution(self):
        rng = np.random.default_rng(37)
        ham = random_hamiltonian(3, rng)

        report = optimize(ham, 9, small_config(max_iters=2))
        assert report.c_approx_used == 1e9  # exact init, auto weight clamps

        report = optimize(ham, 9, small_config(max_iters=2, c_approx=500.0))
        assert report.c_approx_used == 500.0

    def test_optimized_shift_preserves_sector_spectrum(self):
        # End-to-end physics check: rebuilding the Hamiltonian from the
        # optimized shift and factors must leave the n_e-sector spectrum
        # intact up to the factorization residual.
        rng = np.random.default_rng(38)
        ham = random_hamiltonian(2, rng, n_electrons=2)
        cfg = small_config(c_approx=1e6, err_budget=1e-9, max_iters=400)
        report = optimize(ham, 4, cfg)
        kappa, xi, fs = report.best_params

        shifted = apply_symmetry_shift(ham, ShiftParams(kappa, xi, ham.n_electrons))
        recon = np.einsum("rij,rkl->ijkl", fs.factors, fs.factors)
        approx = Hamiltonian(
            h=shifted.h,
            g=recon,
            core_constant=shifted.core_constant,
            n_electrons=2,
        )

        ref = sector_eigenvalues(ham, 2)
        got = sector_eigenvalues(approx, 2)
        assert np.max(np.abs(ref - got)) < 1e-3
        assert report.lambda_breakdown.lambda_total < report.initial_lambda


class TestPackedKernel:
    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("padded", [False, True], ids=["R<M", "R>M"])
    def test_matches_dense_reference(self, n, padded):
        # The pair-space kernel against the N^4 formulas, with a nonzero
        # shift; R > M pads M = N(N+1)/2 nonzero factors with exact zeros.
        rng = np.random.default_rng(50 + n)
        ham = random_hamiltonian(n, rng, n_electrons=n - 1)
        kappa = 0.7
        xi = symmetrize_one_body(0.3 * rng.standard_normal((n, n)))
        if padded:
            factors = initial_double_factorization(ham.g, n * n).factors.copy()
            m = n * (n + 1) // 2
            factors[:m] += 0.01 * symmetrize_one_body_stack(rng.standard_normal((m, n, n)))
        else:
            factors = symmetrize_one_body_stack(rng.standard_normal((n, n, n)))
        c = 13.0

        cost = total_cost(ham, (kappa, xi, factors), c)
        grads = gradient(ham, (kappa, xi, factors), c)
        ref_cost, ref_grads = dense_cost_and_gradient(ham, kappa, xi, factors, c)
        for got, want in zip(cost, ref_cost):
            assert abs(got - want) <= 1e-12 * abs(want)
        for got, want in zip(grads, ref_grads):
            got, want = np.asarray(got), np.asarray(want)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_evaluation_holds_no_n4_array(self):
        # One objective + gradient evaluation allocates less than one N^4
        # tensor at its peak. The eigh stack is (M + 1, N, N), so the target
        # has a molecule-like rank M = N: only an N^2 x N^2 array, not the
        # eigh batch, could then push the peak past g.nbytes.
        from blissdf import optimizer
        from blissdf.hamiltonian import pair_space

        n = 16
        rng = np.random.default_rng(52)
        terms = symmetrize_one_body_stack(rng.standard_normal((n, n, n)))
        ham = Hamiltonian(
            h=symmetrize_one_body(rng.standard_normal((n, n))),
            g=np.einsum("rij,rkl->ijkl", terms, terms),
            n_electrons=n,
        )
        init = initial_double_factorization(ham.g, n * n)
        assert init.effective_rank == n
        xi = symmetrize_one_body(rng.standard_normal((n, n)))
        theta, _ = optimizer._pack(ham, (0.3, xi, init))
        assert theta.size == 1 + n * n + n * n * (n + 1) // 2
        g_pairs, h_eff = pair_space(n).block(ham.g), effective_one_body(ham)
        grad = np.empty_like(theta)
        optimizer._evaluate(ham, g_pairs, h_eff, theta)[3](7.0, grad)  # warm caches

        tracemalloc.start()
        try:
            optimizer._evaluate(ham, g_pairs, h_eff, theta)[3](7.0, grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ham.g.nbytes

    def test_one_eigh_batch_per_trace_row(self, monkeypatch):
        # The P x P eigh of the initial factorization, then one batch per
        # evaluated iterate: the initial and the best point's Err and lambda
        # breakdown come from their own trace rows, not from a re-run batch.
        calls = []
        original = np.linalg.eigh

        def counted(mats):
            calls.append(mats.shape)
            return original(mats)

        rng = np.random.default_rng(54)
        ham = random_hamiltonian(3, rng, n_electrons=3)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        report = optimize(ham, 9, small_config(max_iters=7, patience=1000))
        assert report.iterations_run == 7
        assert len(calls) == 9
        assert calls[0] == (6, 6)

    def test_one_eigh_batch_per_trace_row_at_every_anchor(self, monkeypatch):
        # With patience=1 and rel_tol=0 the patience window re-anchors on
        # every iterate; its gradient still comes from that iterate's own
        # eigh batch, so a 301-row trace takes 301 batches plus the initial DF.
        calls = []
        original = np.linalg.eigh

        def counted(mats):
            calls.append(mats.shape)
            return original(mats)

        ham = random_hamiltonian(6, np.random.default_rng(5), n_electrons=6)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        report = optimize(ham, 36, small_config(max_iters=300, patience=1, rel_tol=0.0))
        assert report.iterations_run == 300
        assert len(calls) == 302
        assert calls[0] == (21, 21)

    def test_peak_memory_of_a_run(self, monkeypatch):
        # R = N^2 at N = 16, so each (R, N, N) array is g.nbytes. The
        # initial FactorSet is dropped once packed into theta, so the peak
        # is one evaluation's (about 3.7 g.nbytes: five theta-sized vectors,
        # the pair block, the residual and the eigh stack with its
        # eigenvectors). Keeping the initial factors through the descent, or
        # the Adam state and a symmetrized copy beside the padded output,
        # takes it past 6 g.nbytes.
        from blissdf import optimizer

        in_use = []

        def traced_factor_set(factors):
            in_use.append(tracemalloc.get_traced_memory()[0])
            return FactorSet(factors=factors)

        n = 16
        ham = random_hamiltonian(n, np.random.default_rng(55), n_electrons=n)
        cfg = OptimizationConfig(max_iters=3, rel_tol=0.0)
        optimize(ham, n * n, cfg)  # warm caches
        monkeypatch.setattr(optimizer, "FactorSet", traced_factor_set)
        tracemalloc.start()
        try:
            report = optimize(ham, n * n, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.best_params[2].factors.nbytes == ham.g.nbytes
        assert peak < 4 * ham.g.nbytes
        # The descent state is freed before the padded output is built:
        # then only that output and the best theta (0.3 g.nbytes) are held.
        assert len(in_use) == 1
        assert in_use[0] < 1.5 * ham.g.nbytes

    def test_one_eigh_batch_per_evaluation(self, monkeypatch):
        from blissdf import optimizer

        calls = []
        original = np.linalg.eigh

        def counted(mats):
            calls.append(mats.shape)
            return original(mats)

        rng = np.random.default_rng(53)
        ham = random_hamiltonian(4, rng, n_electrons=4)
        xi = symmetrize_one_body(rng.standard_normal((4, 4)))
        params = (0.2, xi, rng.standard_normal((3, 4, 4)))
        monkeypatch.setattr(np.linalg, "eigh", counted)
        total_cost(ham, params, 2.0)
        gradient(ham, params, 2.0)
        assert calls == [(4, 4, 4), (4, 4, 4)]

