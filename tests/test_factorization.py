import gc
import io
import json
import tracemalloc
import warnings
import zipfile

import numpy as np
import pytest

from blissdf import (
    FactorSet,
    Hamiltonian,
    IndefiniteTensorError,
    OptimizationConfig,
    frobenius_error,
    gradient,
    initial_double_factorization,
    lambda_df,
    load_factor_set,
    nuclear_norm,
    optimize,
    reconstruct_two_body,
    save_factor_set,
    total_cost,
)
from blissdf.factorization import LambdaBreakdown, nuclear_norms
from blissdf.hamiltonian import symmetrize_one_body, two_body_block
from blissdf.optimizer import _sign_subgradients
from blissdf.verify import chain_hamiltonian

from conftest import packed_factors, random_hamiltonian, random_psd_two_body


def random_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


class TestFactorSet:
    def test_symmetrizes_and_freezes(self):
        # The packed rows are upper triangles, so every factor they unpack to
        # is symmetric; the rows are a read-only view, and the caller's array
        # stays writable.
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((2, 6))
        fs = FactorSet(rows, 2)
        assert np.array_equal(fs.factors, fs.factors.transpose(0, 2, 1))
        assert fs.factors[:, 0, 1].tolist() == rows[:, 1].tolist()
        with pytest.raises(ValueError):
            fs.factors[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            fs.packed[0, 0] = 1.0
        assert np.shares_memory(fs.packed, rows) and rows.flags.writeable
        assert fs.rank == 2
        assert fs.n_orbitals == 3
        assert len(fs) == 2

    def test_packs_in_triu_indices_order(self):
        rng = np.random.default_rng(1)
        stack = symmetrize_one_body(rng.standard_normal((3, 3)))[None]
        rows, cols = np.triu_indices(3)
        fs = FactorSet(stack[:, rows, cols], 4)
        assert fs.factors[:1].tobytes() == stack.tobytes()
        assert not fs.factors[1:].any()

    def test_rejects_rank_beyond_n_squared(self):
        with pytest.raises(ValueError, match=r"^rank must be in \[0, 4\], got 5$"):
            FactorSet(np.zeros((0, 3)), 5)

    def test_rejects_bad_shape(self):
        # An (R, N, N) stack is not read: the message names the packing.
        with pytest.raises(ValueError, match=r"triu_indices.*shape \(2, 3, 3\)"):
            FactorSet(np.zeros((2, 3, 3)), 2)
        with pytest.raises(ValueError, match=r"shape \(6,\)"):
            FactorSet(np.zeros(6), 1)

    def test_rejects_a_width_that_is_not_triangular(self):
        with pytest.raises(ValueError, match=r"\(M, N\(N\+1\)/2\).*shape \(2, 5\)"):
            FactorSet(np.zeros((2, 5)), 2)

    def test_rejects_more_rows_than_rank(self):
        with pytest.raises(ValueError, match=r"^rank must be in \[3, 9\], got 2$"):
            FactorSet(np.ones((3, 6)), 2)

    @pytest.mark.parametrize("rank", [True, 2.0, np.float64(2.0), "2"], ids=["bool", "float", "numpy-float", "str"])
    def test_rejects_a_rank_that_is_not_an_integer(self, rank):
        with pytest.raises(ValueError, match="rank must be an integer"):
            FactorSet(np.ones((1, 3)), rank)

    def test_accepts_a_numpy_integer_rank(self):
        fs = FactorSet(np.ones((1, 3)), np.int64(3))
        assert fs.rank == 3 and type(fs.rank) is int

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        rows = np.ones((2, 3))
        rows[1, 2] = bad
        with pytest.raises(ValueError, match=r"^packed must be .* of shape \(2, 3\), got a non-finite entry$"):
            FactorSet(rows, 2)

    def test_empty_factor_set_allowed(self):
        fs = FactorSet(np.zeros((0, 6)), 0)
        assert (fs.rank, fs.effective_rank, fs.n_orbitals) == (0, 0, 3)

    def test_stores_the_packed_nonzero_factors(self):
        # Only the factors up to the last nonzero one are stored, as (M, P)
        # upper triangles; .factors unpacks a fresh zero-padded stack.
        rows = np.zeros((2, 6))
        rows[1, [0, 3, 5]] = 1.0
        fs = FactorSet(rows, 5)
        assert fs.packed.shape == (2, 6)
        assert not fs.packed.flags.writeable
        assert (fs.rank, fs.effective_rank, fs.n_orbitals) == (5, 2, 3)
        first, second = fs.factors, fs.factors
        want = np.zeros((5, 3, 3))
        want[1] = np.eye(3)
        assert first.tobytes() == want.tobytes()
        assert not np.shares_memory(first, second)
        assert not first.flags.writeable

    def test_trailing_zero_rows_are_cut(self):
        # The one prefix rule: the rows after the last nonzero one go, into a
        # copy of the prefix, and the result gives the prefix's bits.
        rng = np.random.default_rng(3)
        rows = np.zeros((4, 6))
        rows[:2] = rng.standard_normal((2, 6))
        rows[2, 0] = -0.0
        fs, prefix = FactorSet(rows, 4), FactorSet(rows[:2].copy(), 4)
        assert (fs.effective_rank, fs.rank) == (2, 4)
        assert fs.packed.tobytes() == prefix.packed.tobytes()
        assert not np.shares_memory(fs.packed, rows)
        h_prime = symmetrize_one_body(rng.standard_normal((3, 3)))
        assert lambda_df(fs, h_prime).per_factor.tobytes() == lambda_df(prefix, h_prime).per_factor.tobytes()
        assert FactorSet(np.zeros((3, 6)), 3).effective_rank == 0

    @pytest.mark.parametrize(
        "kernel", ["reconstruct_two_body", "frobenius_error", "lambda_df", "total_cost", "gradient", "save_factor_set"]
    )
    @pytest.mark.parametrize("stack", [np.eye(3)[None], np.ones((1, 6))], ids=["stack", "packed-rows"])
    def test_kernels_take_a_factor_set_only(self, kernel, stack, tmp_path):
        ham, xi = Hamiltonian(np.zeros((3, 3)), np.zeros((6, 6))), np.zeros((3, 3))
        out = tmp_path / "factors.npz"
        call = {
            "reconstruct_two_body": lambda: reconstruct_two_body(stack),
            "frobenius_error": lambda: frobenius_error(ham.g_pairs, stack),
            "lambda_df": lambda: lambda_df(stack, xi),
            "total_cost": lambda: total_cost(ham, (0.0, xi, stack), 1.0),
            "gradient": lambda: gradient(ham, (0.0, xi, stack), 1.0),
            "save_factor_set": lambda: save_factor_set(out, stack),
        }[kernel]
        with pytest.raises(TypeError, match=r"FactorSet\(packed, rank\)"):
            call()
        assert not out.exists()  # save_factor_set checks before it opens the file


class TestInitialDoubleFactorization:
    def test_factor_stack_is_built_once(self):
        # The (M, P) packed rows go to the FactorSet as they are, and no
        # (R, N, N) stack is built: at R = N^2 the peak is the P x P
        # eigendecomposition's, about 4.5 pair blocks (the weighted copy,
        # its weights, eigh's vectors and workspace, the reordered vectors).
        # A zero-padded stack beside them takes it past 6.6 blocks.
        n = 16
        g_pairs = two_body_block(random_psd_two_body(n, np.random.default_rng(64)))
        initial_double_factorization(g_pairs, n * n)  # warm caches
        tracemalloc.start()
        try:
            fs = initial_double_factorization(g_pairs, n * n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not fs.packed.flags.writeable
        assert fs.packed.shape == g_pairs.shape
        assert peak < 5 * g_pairs.nbytes

    def test_rank_one_input_recovered_up_to_sign(self):
        rng = np.random.default_rng(1)
        a = symmetrize_one_body(rng.standard_normal((3, 3)))
        g = reconstruct_two_body(packed_factors(a[None]))
        fs = initial_double_factorization(g, 1)
        assert frobenius_error(g, fs) < 1e-10
        sign_free = min(
            np.max(np.abs(fs.factors[0] - a)), np.max(np.abs(fs.factors[0] + a))
        )
        assert sign_free < 1e-10

    def test_zero_tensor(self):
        fs = initial_double_factorization(np.zeros((2, 2, 2, 2)), 3)
        assert np.all(fs.factors == 0.0)
        assert frobenius_error(np.zeros((2, 2, 2, 2)), fs) == 0.0

    def test_full_rank_exact_n6(self):
        rng = np.random.default_rng(2)
        g = random_psd_two_body(6, rng)
        fs = initial_double_factorization(g, 36)
        assert frobenius_error(g, fs) <= 1e-10

    def test_monotone_error_in_rank(self):
        rng = np.random.default_rng(3)
        g = random_psd_two_body(4, rng)
        errors = [
            frobenius_error(g, initial_double_factorization(g, r))
            for r in range(1, 17)
        ]
        for lo, hi in zip(errors[1:], errors[:-1]):
            assert lo <= hi + 1e-12
        assert errors[-1] <= 1e-10

    def test_indefinite_tensor_raises(self):
        rng = np.random.default_rng(4)
        s = symmetrize_one_body(rng.standard_normal((2, 2)))
        g = -np.einsum("ij,kl->ijkl", s, s)
        with pytest.raises(IndefiniteTensorError, match="eigenvalue"):
            initial_double_factorization(g, 1)

    def test_small_negative_eigenvalues_clamped(self):
        rng = np.random.default_rng(5)
        s = symmetrize_one_body(rng.standard_normal((2, 2)))
        g = np.einsum("ij,kl->ijkl", s, s)
        g -= 1e-12 * np.einsum(
            "ij,kl->ijkl", np.eye(2) - 0.5, np.eye(2) - 0.5
        )
        fs = initial_double_factorization(g, 4)
        assert frobenius_error(g, fs) < 1e-10

    def test_rank_bounds(self):
        g = np.zeros((2, 2, 2, 2))
        with pytest.raises(ValueError, match="rank"):
            initial_double_factorization(g, 0)
        with pytest.raises(ValueError, match="rank"):
            initial_double_factorization(g, 5)

    @pytest.mark.parametrize("rank", [2.0, np.float64(3.0), True, "4"], ids=repr)
    def test_non_integer_rank_fails_before_any_eigh(self, rank, monkeypatch):
        # Both entry points read the rank through check_rank before the P x P eigh.
        ham = random_hamiltonian(3, np.random.default_rng(8))
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        with pytest.raises(ValueError, match="^rank must be an integer, got "):
            initial_double_factorization(ham.g_pairs, rank)
        with pytest.raises(ValueError, match="^rank must be an integer, got "):
            optimize(ham, rank, OptimizationConfig(max_iters=1))
        assert calls == []

    @pytest.mark.parametrize("config", [{"max_iters": 3}, None, "config.json"], ids=repr)
    def test_config_of_another_type_fails_before_any_eigh(self, config, monkeypatch):
        ham = random_hamiltonian(3, np.random.default_rng(8))
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        with pytest.raises(TypeError, match=f"^config must be an OptimizationConfig, got {type(config).__name__}$"):
            optimize(ham, 4, config)
        assert calls == []

    def test_numpy_integer_rank_is_an_integer(self):
        g = random_psd_two_body(3, np.random.default_rng(9))
        fs = initial_double_factorization(g, np.int64(4))
        assert type(fs.rank) is int
        assert fs.packed.tolist() == initial_double_factorization(g, 4).packed.tolist()

    def test_factors_ordered_by_eigenvalue(self):
        rng = np.random.default_rng(6)
        g = random_psd_two_body(3, rng)
        fs = initial_double_factorization(g, 9)
        weights = [float(np.sum(a * a)) for a in fs.factors]
        assert weights == sorted(weights, reverse=True)


def loop_double_factorization(g, rank):
    """The per-factor loop that initial_double_factorization replaced.

    Returns the factors and how many of them had their sign flipped.
    """
    n = g.shape[0]
    rows, cols = np.triu_indices(n)
    weights = np.sqrt(np.where(rows == cols, 1.0, 2.0))
    big = g.reshape(n * n, n * n)[np.ix_(rows * n + cols, rows * n + cols)]
    big = big * np.outer(weights, weights)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (big + big.T))
    tol = max(float(eigvals[-1]), 0.0) * len(weights) * np.finfo(np.float64).eps
    factors, flipped = np.zeros((rank, n, n)), 0
    for row, idx in enumerate(np.argsort(eigvals)[::-1][:rank]):
        if eigvals[idx] <= tol:
            break
        mat = np.zeros((n, n))
        mat[rows, cols] = mat[cols, rows] = eigvecs[:, idx] / weights
        flat = mat.ravel()
        if flat[np.flatnonzero(flat)[0]] < 0.0:
            flat, flipped = -flat, flipped + 1
        factors[row] = np.sqrt(eigvals[idx]) * flat.reshape(n, n)
    return factors, flipped


class TestVectorizedInitialFactorization:
    """initial_double_factorization against its former per-factor loop, bit for bit."""

    def check(self, g, ranks):
        flipped = 0
        for rank in ranks:
            want, flips = loop_double_factorization(g, rank)
            assert initial_double_factorization(g, rank).factors.tobytes() == want.tobytes()
            flipped += flips
        return flipped

    def test_random_inputs(self):
        flipped = 0
        for n, seed in [(2, 0), (3, 1), (5, 2), (7, 3)]:
            g = random_psd_two_body(n, np.random.default_rng(seed))
            flipped += self.check(g, (1, n, n * n))
        assert flipped > 0  # negative leading entries occurred and were flipped

    def test_ties_and_leading_zeros(self):
        # Two orthogonal terms of equal norm and weight give a degenerate
        # eigenvalue, and both start with zeros in row-major order, so their
        # sign comes from a later entry.
        rng = np.random.default_rng(4)
        n = 4
        terms = np.zeros((3, n, n))
        terms[0][np.diag_indices(n)] = np.concatenate(([0.0], rng.standard_normal(n - 1)))
        terms[1, 0, 1] = terms[1, 1, 0] = -1.0
        terms[2, 2, 3] = terms[2, 3, 2] = 1.0
        g = reconstruct_two_body(packed_factors(terms)) + reconstruct_two_body(packed_factors(terms[1:]))
        self.check(g, (1, 2, 3, n * n))


class TestNullSpace:
    @pytest.mark.parametrize("n", [3, 6])
    def test_factors_beyond_pair_count_are_exact_zeros(self, n):
        rng = np.random.default_rng(17 + n)
        g = random_psd_two_body(n, rng)
        pairs = n * (n + 1) // 2
        full = initial_double_factorization(g, n * n)
        assert np.all(full.factors[pairs:] == 0.0)
        assert full.effective_rank == pairs
        assert np.array_equal(
            full.factors[:pairs], initial_double_factorization(g, pairs).factors
        )

    @pytest.mark.parametrize("n", [3, 6])
    def test_low_rank_tensor_gives_exactly_its_rank(self, n):
        rng = np.random.default_rng(19 + n)
        terms = rng.standard_normal((2, n, n))
        g = reconstruct_two_body(packed_factors(terms))
        fs = initial_double_factorization(g, n * n)
        nonzero = np.any(fs.factors != 0.0, axis=(1, 2))
        assert nonzero.tolist() == [True, True] + [False] * (n * n - 2)
        assert fs.effective_rank == 2
        assert frobenius_error(g, fs) <= 1e-20 * float(np.sum(g * g))

    @pytest.mark.parametrize("n", [3, 6])
    def test_zero_padding_keeps_the_bits(self, n):
        # Sums over factors stop at the last nonzero one, so a set of rank
        # N^2 reports exactly what the same rows at rank P do.
        rng = np.random.default_rng(21 + n)
        g = random_psd_two_body(n, rng)
        pairs = n * (n + 1) // 2
        full = initial_double_factorization(g, n * n)
        prefix = FactorSet(full.packed, pairs)
        h_prime = symmetrize_one_body(rng.standard_normal((n, n)))
        b_full, b_prefix = lambda_df(full, h_prime), lambda_df(prefix, h_prime)
        assert b_full.lambda_total == b_prefix.lambda_total
        assert b_full.two_body_part == b_prefix.two_body_part
        assert b_full.per_factor.tobytes() == b_prefix.per_factor.tobytes()
        assert len(b_full.per_factor) == full.effective_rank
        assert frobenius_error(g, full) == frobenius_error(g, prefix)

    def test_effective_rank_counts_up_to_last_nonzero(self):
        rows = np.zeros((4, 3))
        assert FactorSet(rows, 4).effective_rank == 0
        rows[1, 1] = 1.0
        assert FactorSet(rows, 4).effective_rank == 2
        assert FactorSet(np.zeros((0, 3)), 4).effective_rank == 0


class TestNuclearNorm:
    def test_identity(self):
        assert nuclear_norm(np.eye(4)) == pytest.approx(4.0, abs=1e-12)

    def test_mixed_signs(self):
        assert nuclear_norm(np.diag([2.0, -1.0, 0.0])) == pytest.approx(
            3.0, abs=1e-12
        )

    def test_matches_svd(self):
        rng = np.random.default_rng(10)
        a = symmetrize_one_body(rng.standard_normal((6, 6)))
        svd_sum = float(np.linalg.svd(a, compute_uv=False).sum())
        assert abs(nuclear_norm(a) - svd_sum) < 1e-10

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(11)
        a = symmetrize_one_body(rng.standard_normal((5, 5)))
        q = random_orthogonal(5, rng)
        assert abs(nuclear_norm(q @ a @ q.T) - nuclear_norm(a)) < 1e-10

    @pytest.mark.parametrize("n, rank", [(2, 4), (5, 7), (8, 16), (3, 150)])
    def test_batched_matches_per_matrix_loop(self, n, rank):
        # One batched eigh must give the same bits as one eigh per matrix,
        # for the norms and for the subgradients U sign(D) U^T alike.
        rng = np.random.default_rng(16)
        mats = rng.standard_normal((rank, n, n))
        mats = 0.5 * (mats + mats.transpose(0, 2, 1))
        mats[0] = np.diag(np.arange(n) - 1.0)  # a zero eigenvalue: sign(0) = 0
        norms = nuclear_norms(mats)
        eigvals, subs = np.linalg.eigh(mats)
        _sign_subgradients(eigvals, subs)
        for a, norm, sub in zip(mats, norms, subs):
            eigvals, eigvecs = np.linalg.eigh(a)
            assert norm == float(np.abs(eigvals).sum())
            assert np.array_equal(sub, (eigvecs * np.sign(eigvals)) @ eigvecs.T)
        assert np.array_equal(nuclear_norms(mats), norms)

    def test_bounds_trace(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = symmetrize_one_body(rng.standard_normal((4, 4)))
            assert nuclear_norm(a) >= abs(np.trace(a)) - 1e-12

    def test_lower_bound_over_random_decompositions(self):
        # Any decomposition A = sum_t lambda_t u_t u_t^T with unit u_t has
        # sum |lambda_t| >= ||A||_*; random decompositions are built by
        # least squares over random unit vectors.
        rng = np.random.default_rng(13)
        n = 4
        a = symmetrize_one_body(rng.standard_normal((n, n)))
        bound = nuclear_norm(a)
        for _ in range(20):
            t_count = n * (n + 1) // 2 + rng.integers(0, 5)
            vecs = rng.standard_normal((t_count, n))
            vecs /= np.linalg.norm(vecs, axis=1)[:, None]
            basis = np.stack([np.outer(u, u).ravel() for u in vecs], axis=1)
            coeffs, *_ = np.linalg.lstsq(basis, a.ravel(), rcond=None)
            residual = np.linalg.norm(basis @ coeffs - a.ravel())
            if residual > 1e-10:
                continue
            assert np.abs(coeffs).sum() >= bound - 1e-9


class TestLambdaBreakdown:
    def test_identity_factor(self):
        fs = packed_factors(np.eye(2)[None])
        breakdown = lambda_df(fs, np.zeros((2, 2)))
        assert breakdown.lambda_total == pytest.approx(2.0, abs=1e-12)
        assert breakdown.two_body_part == pytest.approx(2.0, abs=1e-12)
        assert breakdown.one_body_part == 0.0
        assert list(breakdown.per_factor) == pytest.approx([2.0], abs=1e-12)

    def test_empty_factors(self):
        fs = FactorSet(np.zeros((0, 3)), 0)
        breakdown = lambda_df(fs, np.diag([1.0, -1.0]))
        assert breakdown.lambda_total == pytest.approx(2.0, abs=1e-12)
        assert breakdown.two_body_part == 0.0
        # N = 0, which Hamiltonian and FactorSet accept: no eigenvalues, norm 0.0.
        assert nuclear_norm(np.zeros((0, 0))) == 0.0
        breakdown = lambda_df(FactorSet(np.zeros((0, 0)), 0), np.zeros((0, 0)))
        assert (breakdown.lambda_total, breakdown.per_factor.shape) == (0.0, (0,))

    def test_parts_sum_to_total(self):
        rng = np.random.default_rng(14)
        fs = packed_factors(rng.standard_normal((3, 4, 4)))
        h_prime = symmetrize_one_body(rng.standard_normal((4, 4)))
        breakdown = lambda_df(fs, h_prime)
        total = breakdown.two_body_part + breakdown.one_body_part
        assert abs(breakdown.lambda_total - total) <= 1e-12 * abs(total)
        # The batched norms must match the single-matrix ones bit for bit.
        assert breakdown.per_factor.tolist() == [nuclear_norm(a) for a in fs]

    def test_dimension_mismatch(self):
        fs = FactorSet(np.zeros((1, 3)), 1)
        with pytest.raises(ValueError, match=r"^h_prime must be .* of shape \(2, 2\), got float64 of shape \(3, 3\)$"):
            lambda_df(fs, np.zeros((3, 3)))

    @pytest.mark.parametrize(
        "build",
        [lambda a: LambdaBreakdown(2.5, 2.5, 0.0, a), lambda a: LambdaBreakdown.from_norms(a, 0.0)],
        ids=["init", "from_norms"],
    )
    def test_input_is_copied_not_aliased(self, build):
        a = np.array([1.0, 2.0])
        breakdown = build(a)
        assert breakdown.per_factor.tobytes() == a.tobytes()
        assert not np.shares_memory(breakdown.per_factor, a)
        assert a.flags.writeable
        a[0] = 7.0
        assert breakdown.per_factor[0] == 1.0


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(15)
        fs = packed_factors(rng.standard_normal((3, 4, 4)))
        xi = symmetrize_one_body(rng.standard_normal((4, 4)))
        path = tmp_path / "factors.npz"
        save_factor_set(
            path, fs, manifest={"input_sha256": "ab" * 32}, kappa=0.25, xi=xi
        )
        loaded, kappa, xi_back, manifest = load_factor_set(path)
        assert np.array_equal(loaded.factors, fs.factors)
        assert kappa == 0.25
        assert np.array_equal(xi_back, xi)
        assert manifest == {"input_sha256": "ab" * 32}

    def test_members_are_written_from_the_arrays_own_buffers(self, tmp_path):
        # Each member holds the bytes np.lib.format.write_array gives, but the
        # data goes out without a copy: write_array itself copies it through
        # tobytes() when writing into a zip member.
        rng = np.random.default_rng(17)
        fs = packed_factors(rng.standard_normal((256, 16, 16)))
        xi = np.asfortranarray(symmetrize_one_body(rng.standard_normal((16, 16))))
        path = tmp_path / "big.npz"
        save_factor_set(path, fs, manifest={"k": 1}, kappa=0.5, xi=xi)  # warm caches
        tracemalloc.start()
        try:
            save_factor_set(path, fs, manifest={"k": 1}, kappa=0.5, xi=xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * fs.factors.nbytes
        with zipfile.ZipFile(path) as archive:
            for name in archive.namelist():
                data, expected = archive.read(name), io.BytesIO()
                np.lib.format.write_array(expected, np.load(io.BytesIO(data)), allow_pickle=False)
                assert data == expected.getvalue(), name

    def test_huge_entries_round_trip(self, tmp_path):
        # A finite entry near the float64 maximum reads back from its archive
        # bit for bit. Its factor's nuclear norm, 3.1e308, overflows, so
        # lambda reads inf, not NaN.
        fs = FactorSet([[0.0, 1.55e308, 0.0], [1.0, 0.0, 0.0]], 2)
        path = tmp_path / "huge.npz"
        save_factor_set(path, fs, kappa=0.0, xi=np.eye(2))
        loaded = load_factor_set(path)[0]
        assert (loaded.packed.tobytes(), loaded.rank) == (fs.packed.tobytes(), 2)
        with np.errstate(over="ignore"):
            breakdown = lambda_df(fs, np.eye(2))
        assert breakdown.per_factor.tolist() == [np.inf, 1.0]
        assert (breakdown.lambda_total, breakdown.one_body_part) == (np.inf, 2.0)

    def test_roundtrip_without_shift(self, tmp_path):
        fs = FactorSet(np.zeros((1, 3)), 1)
        path = tmp_path / "plain.npz"
        save_factor_set(path, fs)
        loaded, kappa, xi, manifest = load_factor_set(path)
        assert kappa is None
        assert xi is None
        assert manifest == {}
        assert loaded.rank == 1

    def test_identical_content_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(16)
        fs = packed_factors(rng.standard_normal((2, 3, 3)))
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        save_factor_set(p1, fs, manifest={"k": 1})
        save_factor_set(p2, fs, manifest={"k": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_archive_closes_its_file(self, tmp_path):
        path = tmp_path / "cut.npz"
        save_factor_set(path, FactorSet(np.ones((2, 6)), 2))
        path.write_bytes(path.read_bytes()[:200])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                load_factor_set(path)
            except zipfile.BadZipFile:
                pass
            else:
                pytest.fail("a truncated archive loaded")
            gc.collect()
        assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []

    @pytest.mark.parametrize("member", ["rank", "n_orbitals", "factors", "manifest"])
    def test_missing_member_is_a_value_error(self, tmp_path, member):
        path = tmp_path / "full.npz"
        save_factor_set(path, FactorSet(np.ones((2, 6)), 2))
        with np.load(path) as archive:
            kept = {name: archive[name] for name in archive.files if name != member}
        np.savez(tmp_path / "cut.npz", **kept)
        with pytest.raises(ValueError, match=f"no {member} member"):
            load_factor_set(tmp_path / "cut.npz")

    @pytest.mark.parametrize(
        "member, value",
        [
            ("kappa", np.nan),
            ("kappa", np.inf),
            ("kappa", np.array([0.5, 0.5])),
            ("kappa", np.array("0.5")),
            ("xi", np.zeros((5, 2))),
            ("xi", np.zeros((3, 3, 1))),
            ("xi", np.diag([1.0, np.nan, 0.0])),
            ("xi", np.full((3, 3), "x")),
            ("rank", np.array([2, 2])),
            ("rank", np.array(2.7)),
            ("rank", np.array(10)),
            ("n_orbitals", np.array(3.9)),
            ("factors", np.full((2, 6), np.nan)),
            ("factors", np.ones((2, 5))),
            ("factors", np.ones((3, 6))),
        ],
        ids=[
            "kappa-nan", "kappa-inf", "kappa-vector", "kappa-string",
            "xi-5x2", "xi-3d", "xi-nan", "xi-string",
            "rank-vector", "rank-2.7", "rank-beyond-n-squared", "n_orbitals-3.9",
            "factors-nan", "factors-width-5", "factors-more-rows-than-rank",
        ],
    )
    def test_malformed_shift_member_is_a_value_error(self, tmp_path, member, value):
        path = tmp_path / "full.npz"
        save_factor_set(path, FactorSet(np.ones((2, 6)), 2), kappa=0.5, xi=np.eye(3))
        with np.load(path) as archive:
            kept = {name: archive[name] for name in archive.files}
        kept[member] = value
        np.savez(tmp_path / "bad.npz", **kept)
        with pytest.raises(ValueError, match=f"{member} member"):
            load_factor_set(tmp_path / "bad.npz")

    @pytest.mark.parametrize(
        "shift",
        [{"kappa": np.nan}, {"xi": np.diag([1.0, np.inf, 0.0])}, {"xi": np.eye(2)}],
        ids=["kappa-nan", "xi-inf", "xi-2x2"],
    )
    def test_save_refuses_what_load_refuses(self, tmp_path, shift):
        # The loader's finite scalar / finite (N, N) rule, checked before the
        # file is opened: no archive that load_factor_set rejects is written.
        path = tmp_path / "bad.npz"
        with pytest.raises(ValueError, match="must be a finite real array"):
            save_factor_set(path, FactorSet(np.ones((2, 6)), 2), **{"kappa": 0.5, "xi": np.eye(3), **shift})
        assert not path.exists()

    @pytest.mark.parametrize("shift", [False, True], ids=["plain", "shifted"])
    def test_rejects_a_v1_archive(self, tmp_path, shift):
        # v1 archives, written up to schema_version 4, hold the zero-padded
        # (R, N, N) stack as factors; only v2 is read.
        terms = np.random.default_rng(18).standard_normal((4, 3, 3))
        stack = np.zeros((9, 3, 3))
        stack[:4] = terms + terms.transpose(0, 2, 1)
        members = {
            "format": np.array("blissdf-factors-v1"),
            "n_orbitals": np.array(3, dtype=np.int64),
            "rank": np.array(9, dtype=np.int64),
            "factors": stack,
            "manifest": np.array(json.dumps({"k": 1})),
        }
        xi = symmetrize_one_body(np.arange(9.0).reshape(3, 3))
        if shift:
            members.update(kappa=np.array(0.75), xi=xi)
        np.savez(tmp_path / "v1.npz", **members)
        with pytest.raises(ValueError, match="not a blissdf-factors-v2 archive"):
            load_factor_set(tmp_path / "v1.npz")

    def test_archive_holds_only_the_nonzero_factors(self, tmp_path):
        # Chain N = 32 at R = N^2 has M = 73 nonzero factors of P = 528
        # entries; the zero-padded stack would take 8.39 MB.
        ham = chain_hamiltonian(32, 1)
        fs = initial_double_factorization(ham.g_pairs, 32 * 32)
        assert fs.packed.shape == (73, 528)
        path = tmp_path / "factors.npz"
        save_factor_set(path, fs)
        assert path.stat().st_size <= 8 * 73 * 528 + 4096
        assert load_factor_set(path)[0].factors.tobytes() == fs.factors.tobytes()
        with np.load(path) as archive:
            assert str(archive["format"]) == "blissdf-factors-v2"
            assert archive["factors"].shape == (73, 528)

    def test_trailing_zero_rows_are_cut_on_load(self, tmp_path):
        # Every FactorSet is cut after its last nonzero factor: a hand-written
        # archive whose factors member ends in a zero row reads as its prefix.
        rng = np.random.default_rng(19)
        raw = FactorSet(rng.standard_normal((1, 3)), 3)
        path = tmp_path / "padded.npz"
        save_factor_set(path, raw)
        with np.load(path) as archive:
            kept = {name: archive[name] for name in archive.files}
        kept["factors"] = np.vstack((raw.packed, np.zeros((1, 3))))
        np.savez(path, **kept)
        loaded = load_factor_set(path)[0]
        assert (loaded.effective_rank, loaded.rank) == (raw.effective_rank, raw.rank) == (1, 3)
        h_prime = symmetrize_one_body(rng.standard_normal((2, 2)))
        assert lambda_df(loaded, h_prime).per_factor.tobytes() == lambda_df(raw, h_prime).per_factor.tobytes()
        ham = Hamiltonian(h_prime, random_psd_two_body(2, rng), 0.0, 2)
        costs = [total_cost(ham, (0.1, h_prime, fs), 3.0) for fs in (loaded, raw)]
        assert np.array(costs[0]).tobytes() == np.array(costs[1]).tobytes()

    def test_rejects_foreign_archive(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, data=np.zeros(3))
        with pytest.raises(ValueError, match="archive"):
            load_factor_set(path)
