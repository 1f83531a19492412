import dataclasses
import json
import math
import re
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
from blissdf.hamiltonian import pair_space, symmetrize_one_body
from blissdf.optimizer import _REAL_FIELDS, _Objective, _pack
from blissdf.verify import chain_hamiltonian

from conftest import closed_form_shift, packed_factors, random_hamiltonian, random_psd_two_body


def small_config(**overrides):
    base = dict(max_iters=300, learning_rate=1e-2, patience=100)
    base.update(overrides)
    return OptimizationConfig(**base)


def count_gradient_evaluations(monkeypatch) -> list:
    """Record one entry per optimizer step phase, an eigh batch turned into a gradient."""
    from blissdf import optimizer

    original = optimizer._Objective.gradient
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(optimizer._Objective, "gradient", counted)
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
        assert cfg.rel_tol == 1e-7
        assert cfg.patience == 200
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
            {"learning_rate": -1e-3},
            {"patience": True},
            {"err_budget": -1e-300},
            {"rel_tol": -1e-9},
            {"patience": 0},
            {"patience": 2.5},
            {"err_budget": -1.0},
        ],
    )
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ConfigError):
            OptimizationConfig(**bad)

    def test_from_dict_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config keys.*learning_rat"):
            OptimizationConfig.from_dict({"learning_rat": 1e-3})

    @pytest.mark.parametrize("data", [None, 3, "max_iters", [["max_iters", 3]]], ids=repr)
    def test_from_dict_rejects_non_dicts(self, data):
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            OptimizationConfig.from_dict(data)

    def test_from_dict_integer_fields_reject_floats(self):
        with pytest.raises(ConfigError, match="max_iters"):
            OptimizationConfig.from_dict({"max_iters": 10.0})

    @pytest.mark.parametrize(
        "name",
        [
            "c_approx",
            "learning_rate",
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

    def test_huge_integer_is_not_finite(self):
        # 10**400 is a number, but no float64 holds it; 10**308 is one.
        for name in _REAL_FIELDS:
            with pytest.raises(ConfigError, match=f"^{name} must be finite, got 1000"):
                OptimizationConfig.from_dict({name: 10**400})
            assert getattr(OptimizationConfig.from_dict({name: 10**308}), name) == 10**308

    @pytest.mark.parametrize("name", ["max_iters", "patience"])
    def test_integer_fields_take_numpy_integers(self, name):
        cfg = OptimizationConfig(**{name: np.int64(5)})
        assert getattr(cfg, name) == 5 and type(getattr(cfg, name)) is int
        assert json.loads(json.dumps(cfg.to_dict()))[name] == 5
        assert OptimizationConfig(**{name: np.uint8(7)}) == OptimizationConfig(**{name: 7})
        for bad in (5.0, np.float64(5.0), True, np.bool_(True), "5"):
            with pytest.raises(ConfigError, match=f"^{name} must be an integer, got "):
                OptimizationConfig(**{name: bad})

    @pytest.mark.parametrize("name", ["c_approx", "learning_rate", "rel_tol", "err_budget"])
    def test_real_fields_take_numpy_numbers(self, name):
        # Stored as Python numbers of the same kind, so to_dict() stays JSON.
        for value, kind in ((np.int64(5), int), (np.float32(5), float), (np.float16(2), float)):
            cfg = OptimizationConfig(**{name: value})
            assert getattr(cfg, name) == value and type(getattr(cfg, name)) is kind
            assert json.loads(json.dumps(cfg.to_dict())) == cfg.to_dict()
        with pytest.raises(ConfigError, match=f"^{name} must be a number, got "):
            OptimizationConfig(**{name: np.bool_(True)})
        with pytest.raises(ConfigError, match=f"^{name} must be finite, got "):
            OptimizationConfig(**{name: np.float64("nan")})

    def test_real_fields_accept_ints(self):
        cfg = OptimizationConfig.from_dict({"c_approx": 1000, "rel_tol": 0})
        assert (cfg.c_approx, cfg.rel_tol) == (1000, 0)

    def test_dict_roundtrip(self):
        cfg = OptimizationConfig(c_approx=12.0, patience=7)
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
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: config must be a JSON object"):
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
        factors = FactorSet(np.zeros((0, 6)), 0)
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
        fs = packed_factors(rng.standard_normal((3, 4, 4)))

        total, err, lam = total_cost(ham, (kappa, xi, fs), 5.0)

        shifted = apply_symmetry_shift(ham, ShiftParams(kappa, xi, ham.n_electrons))
        err_ref = frobenius_error(shifted.g, fs)
        lam_ref = lambda_df(fs, effective_one_body(shifted)).lambda_total
        assert err == pytest.approx(err_ref, rel=1e-12, abs=1e-12)
        assert lam == pytest.approx(lam_ref, rel=1e-12)
        assert total == pytest.approx(5.0 * err_ref + lam_ref, rel=1e-12)

    def test_huge_mirrored_xi_pair_is_averaged(self):
        # 1.5e308 + 1.6e308 overflows, but xi's symmetric part holds 1.55e308:
        # the cost reads as at that part, lambda finite (N = n_e, so xi does
        # not enter h'), and Err, whose shifted block holds 7.75e307,
        # overflows to inf rather than NaN.
        ham = Hamiltonian(np.eye(2), np.zeros((2, 2, 2, 2)), n_electrons=2)
        xi = np.array([[0.0, 1.5e308], [1.6e308, 0.0]])
        none = FactorSet(np.zeros((0, 3)), 0)
        with np.errstate(over="ignore"):
            got = total_cost(ham, (0.0, xi, none), 1.0)
            want = total_cost(ham, (0.0, np.array([[0.0, 1.55e308], [1.55e308, 0.0]]), none), 1.0)
        assert got == want == (math.inf, math.inf, 2.0)

    def test_accepts_factor_set(self):
        # The upper triangles of the dense view, packed again, give the same bits.
        rng = np.random.default_rng(23)
        ham = random_hamiltonian(2, rng)
        fs = initial_double_factorization(ham.g, 2)
        t1 = total_cost(ham, (0.0, np.zeros((2, 2)), fs), 1.0)
        t2 = total_cost(ham, (0.0, np.zeros((2, 2)), packed_factors(fs.factors)), 1.0)
        assert t1 == t2

    def test_shape_mismatch(self):
        rng = np.random.default_rng(24)
        ham = random_hamiltonian(2, rng)
        with pytest.raises(ValueError, match="xi"):
            total_cost(ham, (0.0, np.zeros((3, 3)), FactorSet(np.zeros((1, 3)), 1)), 1.0)
        with pytest.raises(ValueError, match="factors"):
            total_cost(ham, (0.0, np.zeros((2, 2)), FactorSet(np.zeros((1, 6)), 1)), 1.0)


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
        grads = gradient(ham, (0.0, np.zeros((2, 2)), FactorSet(np.zeros((1, 3)), 1)), 3.0)
        # No nonzero factor, so no packed row: M = 0 of P = 3.
        assert grads[2].shape == (0, 3)

    def test_finite_difference_all_blocks(self):
        rng = np.random.default_rng(26)
        ham = random_hamiltonian(4, rng, n_electrons=3)
        kappa = 0.4
        xi = symmetrize_one_body(0.3 * rng.standard_normal((4, 4)))
        factors = rng.standard_normal((3, 4, 4))
        packed = pair_space(4).pack(0.5 * (factors + factors.transpose(0, 2, 1)))
        factors = FactorSet(packed, 3)
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

        # Packed entry p sets both mirrored entries: c_p times the per-entry gradient.
        mult = pair_space(4).mult
        for r in range(3):
            for p in range(packed.shape[1]):
                bump = np.zeros_like(packed)
                bump[r, p] = step
                fd = (
                    value(kappa, xi, FactorSet(packed + bump, 3))
                    - value(kappa, xi, FactorSet(packed - bump, 3))
                ) / (2 * step)
                want = mult[p] * grad_factors[r, p]
                if abs(want) > 1e-6:
                    assert fd == pytest.approx(want, rel=1e-5)

    def test_gradient_symmetry(self):
        rng = np.random.default_rng(27)
        ham = random_hamiltonian(3, rng)
        xi = symmetrize_one_body(rng.standard_normal((3, 3)))
        factors = packed_factors(rng.standard_normal((2, 3, 3)))
        _, grad_xi, _ = gradient(ham, (0.1, xi, factors), 2.0)
        assert np.array_equal(grad_xi, grad_xi.T)

    def test_peak_memory_at_chain_n32(self):
        # Chain N = 32 at R = N^2: M = 73 nonzero factors of P = 528 entries.
        # The bound is three P x P arrays (2.23 MB each): the residual's two,
        # the shifted pair block and F^T F, and one for the (M + 1, N, N)
        # eigh stack, the eigh blocks' scratch and the M P + N^2 gradient.
        # A zero-padded (R, N, N) d_factors alone would take 8.39 MB.
        ham = chain_hamiltonian(32, 1)
        init = initial_double_factorization(ham.g_pairs, 32 * 32)
        xi = symmetrize_one_body(np.random.default_rng(29).standard_normal((32, 32)))
        params = (0.1, xi, init)
        gradient(ham, params, 2.0)  # warm caches
        tracemalloc.start()
        try:
            _, d_xi, d_factors = gradient(ham, params, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d_factors.shape == (73, 528) and d_xi.shape == (32, 32)
        assert peak < 3 * ham.g_pairs.nbytes


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

    def test_best_xi_owns_its_memory(self):
        # A view of best_theta would keep all M P + N^2 entries alive for N^2 of them.
        ham = random_hamiltonian(6, np.random.default_rng(29), n_electrons=5)
        xi = optimize(ham, 36, small_config(max_iters=3)).best_params[1]
        assert xi.shape == (6, 6)
        assert xi.base is None

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
        assert b1.per_factor.tobytes() == b2.per_factor.tobytes()
        assert len(b1.per_factor) == f1.effective_rank
        assert full.err_final == packed.err_final
        assert full.initial_lambda == packed.initial_lambda

    def test_zero_factors_have_zero_gradient(self):
        # Why the descent may drop them: an exactly-zero factor has an
        # exactly zero gradient, so Adam never moves it. The zero factor
        # sits ahead of a nonzero one, so the kernel forms its row: both
        # its Err term (F_r * c) D and its Lambda_r S_r are exact zeros.
        rng = np.random.default_rng(41)
        ham = random_hamiltonian(3, rng, n_electrons=3)
        init = initial_double_factorization(ham.g, 9)
        packed = init.packed.copy()
        packed[1] = 0.0
        factors = FactorSet(packed, init.rank)
        xi = symmetrize_one_body(rng.standard_normal((3, 3)))
        _, _, grad_factors = gradient(ham, (0.3, xi, factors), 1e3)
        assert grad_factors.shape == (init.effective_rank, 6)
        assert np.all(grad_factors[1] == 0.0)
        assert np.all(np.any(np.delete(grad_factors, 1, axis=0) != 0.0, axis=1))

    @pytest.mark.parametrize("n", [6, 10])
    def test_zero_padding_gives_prefix_bits(self, n):
        # FactorSet cuts its rows after the last nonzero one, as optimize
        # does, so padding R = N(N+1)/2 rows with zero rows to N^2 changes no
        # bit: both calls return the same (M, P) rows.
        rng = np.random.default_rng(43)
        m = n * (n + 1) // 2
        ham = random_hamiltonian(n, rng, n_electrons=n)
        factors = rng.standard_normal((m, n, n))
        factors += factors.transpose(0, 2, 1)
        packed = pair_space(n).pack(factors)
        padded = FactorSet(np.vstack((packed, np.zeros((n * n - m, m)))), n * n)
        params = (0.3, symmetrize_one_body(rng.standard_normal((n, n))), FactorSet(packed, m))
        padded_params = params[:2] + (padded,)
        assert total_cost(ham, padded_params, 1e2) == total_cost(ham, params, 1e2)
        d_kappa, d_xi, d_factors = gradient(ham, params, 1e2)
        pad_kappa, pad_xi, pad_factors = gradient(ham, padded_params, 1e2)
        assert pad_kappa == d_kappa
        assert pad_xi.tobytes() == d_xi.tobytes()
        assert pad_factors.shape == d_factors.shape == (m, m)
        assert pad_factors.tobytes() == d_factors.tobytes()

    def test_nonfinite_cost_raises_with_iteration(self):
        rng = np.random.default_rng(32)
        ham = random_hamiltonian(2, rng)
        cfg = small_config(learning_rate=1e160, c_approx=1.0)
        with pytest.raises(NonFiniteCostError, match="iteration") as exc_info:
            optimize(ham, 4, cfg)
        assert exc_info.value.iteration >= 1

    def test_calls_share_no_workspace(self):
        # Each optimize, total_cost and gradient call builds its own
        # workspace, so calls in between leave a rerun's bits unchanged.
        rng = np.random.default_rng(63)
        ham = random_hamiltonian(4, rng, n_electrons=4)
        config = small_config(max_iters=30)
        first = optimize(ham, 16, config)
        xi = symmetrize_one_body(rng.standard_normal((4, 4)))
        params = (0.2, xi, packed_factors(rng.standard_normal((3, 4, 4))))
        total_cost(ham, params, 5.0)
        gradient(ham, params, 5.0)
        second = optimize(ham, 16, config)
        assert first.total_trace.tobytes() == second.total_trace.tobytes()
        assert first.best_params[0] == second.best_params[0]
        assert first.best_params[1].tobytes() == second.best_params[1].tobytes()
        assert first.best_params[2].factors.tobytes() == second.best_params[2].factors.tobytes()
        for name in ("lambda_breakdown", "initial_breakdown"):
            got, want = getattr(second, name), getattr(first, name)
            assert dataclasses.astuple(got)[:3] == dataclasses.astuple(want)[:3], name
            assert got.per_factor.tobytes() == want.per_factor.tobytes(), name

    def test_kept_rows_are_not_overwritten(self):
        # Row 0's and the best row's breakdowns come from their own
        # evaluations; here 41 more iterations run after the best row. One
        # explicit weight: the schedule's caps scale with max_iters, so a
        # shorter default run is no prefix of a longer one.
        ham = random_hamiltonian(6, np.random.default_rng(62), n_electrons=6)
        config = OptimizationConfig(c_approx=300.0, max_iters=50, rel_tol=0.0, learning_rate=3e-2)
        report = optimize(ham, 6, config)
        assert 0 < report.best_iteration < report.iterations_run == 50
        # A run that stops at the best row evaluates nothing after it.
        stopped = optimize(ham, 6, dataclasses.replace(config, max_iters=report.best_iteration))
        assert stopped.best_iteration == report.best_iteration
        xdf = lambda_df(initial_double_factorization(ham.g, 6), effective_one_body(ham))
        for got, want in (
            (report.initial_breakdown, xdf),
            (report.lambda_breakdown, stopped.lambda_breakdown),
        ):
            assert dataclasses.astuple(got)[:3] == dataclasses.astuple(want)[:3]
            assert got.per_factor.tobytes() == want.per_factor.tobytes()
        assert report.err_final == stopped.err_final

    def test_trace_starts_at_initialization(self):
        rng = np.random.default_rng(33)
        ham = random_hamiltonian(3, rng)
        report = optimize(ham, 6, small_config(max_iters=50))
        assert report.total_trace.shape == (report.iterations_run + 1, 3)
        assert report.total_trace[0, 1] == report.initial_err
        # initial_lambda is the unshifted XDF point, bit for bit; row 0 is at the closed-form kappa.
        xdf = lambda_df(initial_double_factorization(ham.g_pairs, 6), effective_one_body(ham))
        assert report.initial_lambda == xdf.lambda_total
        row0 = xdf.two_body_part + closed_form_shift(ham, np.zeros((3, 3)))[1]
        assert report.total_trace[0, 2] == pytest.approx(row0, rel=1e-12)
        assert report.total_trace[0, 2] <= report.initial_lambda

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


def record_adam_steps(monkeypatch) -> list:
    """Record (step count, learning rate, moments all zero) for each Adam step of the descent."""
    from blissdf import optimizer

    steps = []
    original = optimizer._adam_step

    def recorded(theta, grad, m, v, step, config):
        steps.append((step, config.learning_rate, not (m.any() or v.any())))
        original(theta, grad, m, v, step, config)

    monkeypatch.setattr(optimizer, "_adam_step", recorded)
    return steps


def replay_stall_rule(report, config: OptimizationConfig, n_phases: int):
    """(phase first rows, iterations run, stop reason, best row) of the rule README states, replayed on the trace.

    The window keeps a running minimum of the watched value and an anchor;
    it watches Total until a row after phase 0 is feasible, then the best
    feasible lambda. A phase ends when the anchor has not moved for
    patience rows, or, with the three-phase schedule, at the soft phase's
    last row max_iters // 2.
    """
    firsts, phase, watch = [0], 0, False
    low = anchor = best_lambda = math.inf
    anchor_row = best_row = 0
    for row, (total, err, lam) in enumerate(report.total_trace):
        feasible = err <= report.initial_err + config.err_budget
        if feasible and lam < best_lambda:
            best_lambda, best_row = lam, row
        if feasible and phase > 0 and not watch:
            watch, low, anchor, anchor_row = True, best_lambda, best_lambda, row
        low = min(low, best_lambda if watch else total)
        if not math.isfinite(anchor) or anchor - low >= config.rel_tol * max(abs(anchor), 1.0):
            anchor, anchor_row = low, row
        soft_cap = phase == 0 and n_phases == 3 and row == config.max_iters // 2
        ended = row - anchor_row >= config.patience or soft_cap
        if ended and phase == n_phases - 1:
            return firsts, row, "converged", best_row
        if row == config.max_iters:
            return firsts, row, "max_iters", best_row
        if ended:
            phase += 1
            firsts.append(row + 1)
            low = anchor = best_lambda if watch else math.inf
            anchor_row = row
    raise AssertionError(f"the trace's {len(report.total_trace)} rows end before the replayed run stops")


class TestPenaltySchedule:
    """c_approx None: the soft weight, then the automatic weight at the learning rate and, after its stall, a tenth of it."""

    @pytest.mark.parametrize("n,ceiling", [(8, 0.45), (16, 0.40)])
    def test_full_rank_chain_reaches_the_ratio(self, n, ceiling):
        # At R = N^2 the start is exact (Err0 ~ 1e-30), where one held stiff
        # weight stalls near row 0 (ratios 0.61 and 0.65).
        report = optimize(chain_hamiltonian(n, 1), n * n, OptimizationConfig())
        assert report.lambda_breakdown.lambda_total <= ceiling * report.initial_lambda
        assert report.err_final <= report.initial_err + 1e-6

    @pytest.mark.parametrize(
        "make_ham,rank",
        [
            (lambda rng: Hamiltonian(
                h=symmetrize_one_body(rng.standard_normal((8, 8))), g=random_psd_two_body(8, rng), n_electrons=8
            ), 64),
            (lambda rng: random_hamiltonian(6, rng), 36),
        ],
        ids=["random-psd-n8", "random-n6"],
    )
    def test_no_worse_than_the_last_weight_alone(self, make_ham, rank):
        ham = make_ham(np.random.default_rng(1))
        report = optimize(ham, rank, OptimizationConfig())
        single = optimize(ham, rank, OptimizationConfig(c_approx=report.c_approx_used))
        # The soft phase, the stiff weight at lr, then lr / 10, where the best feasible lambda stalls.
        assert [lr for _, lr, _ in report.phases] == [1e-3, 1e-3, 1e-4] and len(single.phases) == 1
        assert report.stop_reason == "converged"
        assert report.lambda_breakdown.lambda_total <= single.lambda_breakdown.lambda_total
        assert report.err_final <= report.initial_err + 1e-6

    @pytest.mark.parametrize(
        "max_iters,firsts", [(1, (0, 1)), (2, (0, 2)), (3, (0, 2)), (4, (0, 3))]
    )
    def test_rel_tol_zero_runs_exactly_max_iters(self, max_iters, firsts):
        # rel_tol 0 never stalls: the soft phase ends at its cap, row
        # max_iters // 2 (row 0 at max_iters 1), and the stiff weight runs
        # at the configured learning rate to max_iters.
        ham = random_hamiltonian(3, np.random.default_rng(70), n_electrons=3)
        report = optimize(ham, 9, OptimizationConfig(max_iters=max_iters, rel_tol=0.0))
        assert report.iterations_run == max_iters
        assert report.stop_reason == "max_iters"
        assert tuple(first for _, _, first in report.phases) == firsts
        assert [lr for _, lr, _ in report.phases] == [1e-3, 1e-3]
        assert report.c_approx_used == report.phases[-1][0]

    def test_each_phase_restarts_adam(self, monkeypatch):
        # Every phase steps from zero moments at step count 1, then counts up
        # at its own learning rate. No row after the soft phase is feasible
        # here, so the stiff weight's Total stall starts it at a tenth of the
        # learning rate, and the Total stall there ends the run.
        steps = record_adam_steps(monkeypatch)
        ham = random_hamiltonian(3, np.random.default_rng(70), n_electrons=3)
        report = optimize(ham, 9, OptimizationConfig(max_iters=40, patience=3, rel_tol=1e-2))
        assert [lr for _, lr, _ in report.phases] == [1e-3, 1e-3, 1e-4]
        assert report.phases[1][0] == report.phases[2][0]
        assert report.stop_reason == "converged" and report.iterations_run < 40
        assert np.all(report.total_trace[report.phases[1][2]:, 1] > report.initial_err + 1e-6)
        assert len(steps) == report.iterations_run
        bounds = [first for _, _, first in report.phases[1:]] + [report.iterations_run + 1]
        row = 0
        for (_, learning_rate, _), stop in zip(report.phases, bounds):
            # A phase's first step is taken from the last row of the one before.
            assert steps[row:stop - 1] == [(k, learning_rate, k == 1) for k in range(1, stop - row)]
            row = stop - 1

    def test_chain_n8_stops_when_the_best_feasible_lambda_stalls(self):
        # The stiff weight at lr / 10 makes the rows feasible again, and the
        # run ends when the best feasible lambda then stalls: 2734 rows
        # against the fixed phases' 4331, with the same best row 2334.
        report = optimize(chain_hamiltonian(8, 1), 64, OptimizationConfig())
        assert report.stop_reason == "converged"
        assert report.iterations_run <= 3250
        assert report.lambda_breakdown.lambda_total / report.initial_lambda <= 0.31679614944242557
        assert report.err_final <= report.initial_err + 1e-6
        assert report.phases[-1][1] == 1e-4

    def test_explicit_weight_stops_on_the_total_stall(self, monkeypatch):
        # One phase at the one learning rate, whose steps count up from zero
        # moments, ends on the first row where Total has not improved on its
        # window's anchor by rel_tol * max(|anchor|, 1) for patience rows;
        # the best row is the first feasible one of least lambda.
        steps = record_adam_steps(monkeypatch)
        ham = random_hamiltonian(3, np.random.default_rng(71), n_electrons=3)
        config = OptimizationConfig(max_iters=2000, learning_rate=1e-2, patience=50, rel_tol=1e-6, c_approx=10.0)
        report = optimize(ham, 3, config)
        assert report.phases == ((10.0, 1e-2, 0),) and report.stop_reason == "converged"
        assert steps == [(k, 1e-2, k == 1) for k in range(1, report.iterations_run + 1)]
        totals, errs, lams = report.total_trace.T
        assert np.array_equal(totals, 10.0 * errs + lams)
        low = anchor = math.inf
        for row, total in enumerate(totals):
            low = min(low, total)
            if not math.isfinite(anchor) or anchor - low >= 1e-6 * max(abs(anchor), 1.0):
                anchor, anchor_row = low, row
            if row - anchor_row >= 50:
                break
        assert row == report.iterations_run < 2000
        feasible = np.flatnonzero(errs <= report.initial_err + 1e-6)
        assert report.best_iteration == feasible[np.argmin(lams[feasible])] > 0

    def test_explicit_weight_is_one_phase(self):
        ham = random_hamiltonian(3, np.random.default_rng(71), n_electrons=3)
        report = optimize(ham, 9, small_config(max_iters=40, c_approx=250))
        assert report.phases == ((250.0, 1e-2, 0),)
        assert report.c_approx_used == 250.0

    def test_converged_only_when_the_last_phase_stalls(self):
        # Each phase here ends on its own 20-row patience stop. The soft
        # phase's stall starts the stiff weight at lr, whose stall starts it
        # at lr / 10, where a stall ends the run.
        ham = random_hamiltonian(2, np.random.default_rng(36), n_electrons=2)
        report = optimize(ham, 4, small_config(max_iters=5000, patience=20, rel_tol=1e-3))
        assert report.stop_reason == "converged"
        assert [lr for _, lr, _ in report.phases] == [1e-2, 1e-2, 1e-3]
        firsts = [first for _, _, first in report.phases] + [report.iterations_run + 1]
        assert all(stop - first >= 20 for first, stop in zip(firsts, firsts[1:]))
        budget = report.initial_err + 1e-6
        assert np.any(report.total_trace[firsts[1]:, 1] <= budget)

    def test_zero_two_body_falls_back_to_one_phase(self):
        # ||G||^2 = 0 leaves the soft weight undefined; xi still descends.
        h = symmetrize_one_body(np.random.default_rng(3).standard_normal((3, 3)))
        ham = Hamiltonian(h=h, g=np.zeros((3, 3, 3, 3)), n_electrons=2)
        report = optimize(ham, 9, OptimizationConfig())
        assert report.phases == ((1e9, 1e-3, 0),)
        assert report.best_params[2].effective_rank == 0
        assert report.lambda_breakdown.lambda_total < 0.95 * report.initial_lambda
        assert report.err_final <= report.initial_err + 1e-6

    @pytest.mark.parametrize("c_approx", [None, 50.0])
    @pytest.mark.parametrize("patience", [1, 3, 40])
    @pytest.mark.parametrize("rel_tol", [0.0, 1e-3, 3e-2])
    @pytest.mark.parametrize(
        "n,rank,seed",
        # N=3 at R=4: Total rises and falls, and the first feasible row after
        # the soft phase comes a few rows into the next one. N=4 at R=9:
        # only part of the soft phase is feasible, every later row is.
        [(3, 4, 1), (4, 9, 2)],
        ids=["n3", "n4"],
    )
    def test_phases_and_stop_replay_the_stall_rule(self, n, rank, seed, rel_tol, patience, c_approx):
        ham = random_hamiltonian(n, np.random.default_rng(seed), n_electrons=n - 1)
        config = OptimizationConfig(
            c_approx=c_approx, max_iters=150, learning_rate=1e-2, rel_tol=rel_tol, patience=patience
        )
        report = optimize(ham, rank, config)
        n_phases = 1 if c_approx is not None or not np.any(ham.g_pairs) else 3
        firsts, iterations_run, stop_reason, best_iteration = replay_stall_rule(report, config, n_phases)
        assert [first for _, _, first in report.phases] == firsts
        assert (report.iterations_run, report.stop_reason) == (iterations_run, stop_reason)
        assert report.best_iteration == best_iteration


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

        cost = total_cost(ham, (kappa, xi, packed_factors(factors)), c)
        grads = gradient(ham, (kappa, xi, packed_factors(factors)), c)
        ref_cost, ref_grads = dense_cost_and_gradient(ham, kappa, xi, factors, c)
        for got, want in zip(cost, ref_cost):
            assert abs(got - want) <= 1e-12 * abs(want)
        # gradient returns the rows up to the last nonzero factor, packed;
        # the dense reference's rows after them are exact zeros.
        m = len(grads[2])
        assert np.all(ref_grads[2][m:] == 0.0)
        grads = (*grads[:2], pair_space(n).unpack(grads[2]))
        ref_grads = (*ref_grads[:2], ref_grads[2][:m])
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
        theta, kappa = optimizer._pack(ham, (0.3, xi, init))
        assert theta.size == (n + 1) * n * (n + 1) // 2  # (M + 1) P with M = N

        def evaluate_with_gradient():
            objective = optimizer._Objective(ham, theta, kappa)
            objective.evaluate()
            objective.gradient(7.0, lambda part, grad: None)

        evaluate_with_gradient()  # warm caches
        tracemalloc.start()
        try:
            evaluate_with_gradient()
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
        # R = N^2 at N = 16, so an (R, N, N) array would be g.nbytes. The
        # factors travel as packed (M, P) rows: the initial factorization's
        # go into theta, and the best theta's rows become the output without
        # a copy, so the peak is one evaluation's (about 2.6 g.nbytes: four
        # theta-sized vectors, the pair block, the residual, the eigh stack
        # and the blocks' scratch). The eigenvectors overwrite the eigh
        # stack and each block's gradient is its own; a second stack or a
        # theta-sized gradient takes it past 3 g.nbytes, as do the initial
        # factors kept through the descent or a zero-padded output.
        constructions = []
        construct = FactorSet.__init__

        def traced_construct(self, packed, rank):
            before = tracemalloc.get_traced_memory()[0]
            construct(self, packed, rank)
            constructions.append((packed.shape, tracemalloc.get_traced_memory()[0] - before))

        n = 16
        pairs = n * (n + 1) // 2
        ham = random_hamiltonian(n, np.random.default_rng(55), n_electrons=n)
        cfg = OptimizationConfig(max_iters=3, rel_tol=0.0)
        optimize(ham, n * n, cfg)  # warm caches
        monkeypatch.setattr(FactorSet, "__init__", traced_construct)
        tracemalloc.start()
        try:
            report = optimize(ham, n * n, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        factor_set = report.best_params[2]
        assert factor_set.rank == n * n
        assert factor_set.packed.shape == (pairs, pairs)
        assert peak < 3 * ham.g.nbytes
        # Two constructions, the initial factorization's and the output's,
        # both from (M, P) rows, and neither copies them.
        assert [shape for shape, _ in constructions] == [(pairs, pairs)] * 2
        assert all(grown < 0.25 * factor_set.packed.nbytes for _, grown in constructions)

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
        params = (0.2, xi, packed_factors(rng.standard_normal((3, 4, 4))))
        monkeypatch.setattr(np.linalg, "eigh", counted)
        total_cost(ham, params, 2.0)
        gradient(ham, params, 2.0)
        assert calls == [(4, 4, 4), (4, 4, 4)]


class TestClosedFormKappa:
    """optimize's kappa: t = -m from the eigenvalues of h'_xi at every evaluation, kappa = t - tr xi."""

    @staticmethod
    def closed_form_objective(ham, xi, factors):
        return _Objective(ham, _pack(ham, (0.0, xi, factors))[0])

    @staticmethod
    def gathered_gradient(objective, c_approx=3.0):
        """(factor rows, xi) of the gradient that objective.gradient() hands to then(), block by block."""
        grad = np.empty_like(objective.theta)
        objective.gradient(c_approx, lambda part, block: grad.__setitem__(part, block))
        return grad[:-1], objective.space.unpack(grad[-1])

    @pytest.mark.parametrize(
        "h, n_e, xi_diagonal, one_body, kappa",
        [
            # Odd N: h'_xi = diag(3, 0, 4), m = 3, and the middle eigenvalue gets sign(0) = 0.
            ([3.0, -1.0, 4.0], 1, [0.0, 0.5, 0.0], 4.0, -3.5),
            # Even N with tied middle eigenvalues: h'_xi = diag(2, 5, 2, -1), m = 2.
            ([2.0, 5.0, 2.0, -1.0], 4, [0.5, 0.0, 0.0, 0.0], 6.0, -2.5),
        ],
        ids=["odd", "even-tied"],
    )
    def test_middle_signs_cancel_exactly(self, h, n_e, xi_diagonal, one_body, kappa):
        n = len(h)
        ham = Hamiltonian(h=np.diag(h), g=np.zeros((n, n, n, n)), n_electrons=n_e)
        rng = np.random.default_rng(70 + n)
        factors = packed_factors(rng.standard_normal((2, n, n)))
        xi = np.diag(xi_diagonal)
        objective = self.closed_form_objective(ham, xi, factors)
        _, _, norms, unshifted = objective.evaluate()
        shifted = objective.batch[2][-1]  # the eigenvalues of h'_xi + t I
        assert np.count_nonzero(shifted == 0.0) == 2 - n % 2
        assert np.sum(np.sign(shifted)) == 0.0
        assert norms[-1] == one_body
        assert unshifted == np.abs(np.linalg.eigvalsh(ham.h + (n - n_e) * xi)).sum()
        assert objective.kappa == kappa
        grad_factors, grad_xi = self.gathered_gradient(objective)
        assert objective.d_kappa == 0.0  # sum_i sign(e_i + t), exactly
        # With no trace term, the xi and factor gradients are the explicit ones at kappa*.
        d_kappa, d_xi, d_factors = gradient(ham, (kappa, xi, factors), 3.0)
        assert d_kappa == 0.0
        assert np.array_equal(grad_xi, d_xi)
        assert np.array_equal(grad_factors, d_factors)

    def test_xi_gradient_matches_the_kappa_minimized_cost(self):
        # Central differences of c Err + min_kappa lambda, with kappa set in
        # closed form at every point, against the closed-form xi gradient.
        rng = np.random.default_rng(71)
        n, c, step = 4, 7.0, 1e-6
        ham = random_hamiltonian(n, rng, n_electrons=2)
        xi = symmetrize_one_body(0.3 * rng.standard_normal((n, n)))
        factors = packed_factors(rng.standard_normal((3, n, n)))
        mu = np.linalg.eigvalsh(effective_one_body(ham) + (n - 2) * xi)
        assert mu[2] - mu[1] > 1e-2  # the middle eigenvalues are distinct

        def total(x):
            err, lam = self.closed_form_objective(ham, x, factors).evaluate()[:2]
            return c * err + lam

        objective = self.closed_form_objective(ham, xi, factors)
        objective.evaluate()
        grad_xi = self.gathered_gradient(objective, c)[1]
        assert objective.d_kappa == 0.0  # sum_i sign(e_i + t), not the round-off of tr U sign(D + t) U^T
        checked = 0
        for a in range(n):
            for b in range(a, n):
                bump = np.zeros((n, n))
                bump[a, b] = bump[b, a] = step if a != b else 2.0 * step
                fd = (total(xi + 0.5 * bump) - total(xi - 0.5 * bump)) / (2.0 * step)
                want = grad_xi[a, b]
                if abs(want) > 1e-6:
                    assert fd == pytest.approx(want, rel=1e-5)
                    checked += 1
        assert checked >= 8

    def test_chain_row_zero_matches_the_eigvalsh_oracle(self):
        # A molecule-shaped input at full rank: row 0 is the XDF factors at
        # kappa* = -median(eig h'), well below the unshifted lambda.
        ham = chain_hamiltonian(8, 1)
        report = optimize(ham, 64, OptimizationConfig())
        xdf = lambda_df(initial_double_factorization(ham.g_pairs, 64), effective_one_body(ham))
        assert report.initial_lambda == xdf.lambda_total
        row0 = report.total_trace[0, 2]
        assert row0 == pytest.approx(xdf.two_body_part + closed_form_shift(ham, np.zeros((8, 8)))[1], rel=1e-12)
        assert row0 < 0.65 * report.initial_lambda
        assert report.lambda_breakdown.lambda_total <= row0
        kappa, xi, _ = report.best_params
        assert kappa == pytest.approx(closed_form_shift(ham, xi)[0], rel=1e-12)
