import gc
import warnings
import zipfile

import numpy as np
import pytest

from blissdf import (
    FactorSet,
    IndefiniteTensorError,
    eigen_rank1,
    frobenius_error,
    initial_double_factorization,
    lambda_df,
    load_factor_set,
    nuclear_norm,
    reconstruct_two_body,
    save_factor_set,
)
from blissdf.factorization import nuclear_norms, sign_subgradients
from blissdf.hamiltonian import symmetrize_one_body

from conftest import random_psd_two_body


def random_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


class TestFactorSet:
    def test_symmetrizes_and_freezes(self):
        rng = np.random.default_rng(0)
        fs = FactorSet(factors=rng.standard_normal((2, 3, 3)))
        assert np.array_equal(fs.factors, fs.factors.transpose(0, 2, 1))
        with pytest.raises(ValueError):
            fs.factors[0, 0, 0] = 1.0
        assert fs.rank == 2
        assert fs.n_orbitals == 3
        assert len(fs) == 2

    def test_rejects_rank_beyond_n_squared(self):
        with pytest.raises(ValueError, match="exceeds"):
            FactorSet(factors=np.zeros((5, 2, 2)))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            FactorSet(factors=np.zeros((2, 3, 4)))

    def test_empty_factor_set_allowed(self):
        fs = FactorSet(factors=np.zeros((0, 3, 3)))
        assert fs.rank == 0

    def test_symmetric_input_is_copied_not_aliased(self):
        rng = np.random.default_rng(2)
        factors = rng.standard_normal((3, 4, 4))
        factors = factors + factors.transpose(0, 2, 1)
        fs = FactorSet(factors=factors)
        assert fs.factors.tobytes() == factors.tobytes()
        assert not np.shares_memory(fs.factors, factors)
        assert factors.flags.writeable


class TestInitialDoubleFactorization:
    def test_rank_one_input_recovered_up_to_sign(self):
        rng = np.random.default_rng(1)
        a = symmetrize_one_body(rng.standard_normal((3, 3)))
        g = reconstruct_two_body(a[None])
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
        g = reconstruct_two_body(terms) + reconstruct_two_body(terms[1:])
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
        g = reconstruct_two_body(0.5 * (terms + terms.transpose(0, 2, 1)))
        fs = initial_double_factorization(g, n * n)
        nonzero = np.any(fs.factors != 0.0, axis=(1, 2))
        assert nonzero.tolist() == [True, True] + [False] * (n * n - 2)
        assert fs.effective_rank == 2
        assert frobenius_error(g, fs) <= 1e-20 * float(np.sum(g * g))

    @pytest.mark.parametrize("n", [3, 6])
    def test_zero_padding_keeps_the_bits(self, n):
        # Sums over factors stop at the last nonzero one, so a padded set
        # reports exactly what its unpadded prefix does.
        rng = np.random.default_rng(21 + n)
        g = random_psd_two_body(n, rng)
        pairs = n * (n + 1) // 2
        full = initial_double_factorization(g, n * n)
        prefix = FactorSet(factors=full.factors[:pairs])
        h_prime = symmetrize_one_body(rng.standard_normal((n, n)))
        b_full, b_prefix = lambda_df(full, h_prime), lambda_df(prefix, h_prime)
        assert b_full.lambda_total == b_prefix.lambda_total
        assert b_full.two_body_part == b_prefix.two_body_part
        assert b_full.per_factor.tolist() == b_prefix.per_factor.tolist() + [0.0] * (
            n * n - pairs
        )
        assert frobenius_error(g, full) == frobenius_error(g, prefix)

    def test_effective_rank_counts_up_to_last_nonzero(self):
        factors = np.zeros((4, 2, 2))
        assert FactorSet(factors=factors).effective_rank == 0
        factors[1, 0, 1] = 1.0
        assert FactorSet(factors=factors).effective_rank == 2
        assert FactorSet(factors=np.zeros((0, 2, 2))).effective_rank == 0


class TestEigenRank1:
    def test_identity(self):
        decomp = eigen_rank1(np.eye(3))
        assert np.allclose(decomp.eigenvalues, [1.0, 1.0, 1.0])
        assert np.max(np.abs(decomp.reconstruct() - np.eye(3))) < 1e-12

    def test_ordering_by_absolute_value(self):
        decomp = eigen_rank1(np.diag([3.0, -4.0]))
        assert list(decomp.eigenvalues) == [-4.0, 3.0]

    def test_tie_broken_by_signed_value(self):
        decomp = eigen_rank1(np.diag([-2.0, 2.0]))
        assert list(decomp.eigenvalues) == [2.0, -2.0]

    def test_sign_fixing(self):
        rng = np.random.default_rng(7)
        a = symmetrize_one_body(rng.standard_normal((4, 4)))
        for vec in eigen_rank1(a).vectors:
            first = vec[np.flatnonzero(vec)[0]]
            assert first > 0

    def test_reconstruction_and_trace(self):
        rng = np.random.default_rng(8)
        a = symmetrize_one_body(rng.standard_normal((5, 5)))
        decomp = eigen_rank1(a)
        assert np.max(np.abs(decomp.reconstruct() - a)) < 1e-10
        assert abs(decomp.eigenvalues.sum() - np.trace(a)) < 1e-10
        norms = np.linalg.norm(decomp.vectors, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        a = symmetrize_one_body(rng.standard_normal((4, 4)))
        d1, d2 = eigen_rank1(a), eigen_rank1(np.array(a))
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.vectors, d2.vectors)

    def test_matches_the_sorted_pair_loop(self):
        # The vectorized sign flip and lexsort give the bits of the former
        # per-vector sign fix and tuple sort, also on ties and degenerate,
        # zero and sparse spectra.
        def loop_eigen_rank1(a):
            def fix_sign(vec):
                for entry in vec:
                    if entry != 0.0:
                        return -vec if entry < 0.0 else vec
                return vec

            eigvals, eigvecs = np.linalg.eigh(symmetrize_one_body(a))
            pairs = [(eigvals[t], fix_sign(eigvecs[:, t])) for t in range(len(eigvals))]
            pairs.sort(key=lambda p: (-abs(p[0]), -p[0], tuple(p[1])))
            return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])

        rng = np.random.default_rng(10)
        mats = [np.zeros((0, 0)), np.zeros((3, 3)), np.eye(4), -np.eye(2)]
        mats.append(np.diag([-2.0, 2.0, 0.0, 2.0]))
        for n in list(range(1, 8)) * 10:
            mats.append(symmetrize_one_body(rng.standard_normal((n, n))))
            mats.append(symmetrize_one_body(rng.integers(-2, 3, (n, n)).astype(float)))
            mats.append(np.diag(rng.integers(-2, 3, n).astype(float)))
            q = random_orthogonal(n, rng)
            mats.append((q * rng.choice([-1.0, 0.0, 1.0], n)) @ q.T)
        for a in mats:
            values, vectors = loop_eigen_rank1(a)
            decomp = eigen_rank1(a)
            assert decomp.eigenvalues.tobytes() == values.tobytes()
            assert decomp.vectors.tobytes() == vectors.tobytes()


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
        norms, eigvals, eigvecs = nuclear_norms(mats)
        subs = sign_subgradients(eigvals, eigvecs)
        for a, norm, sub in zip(mats, norms, subs):
            eigvals, eigvecs = np.linalg.eigh(a)
            assert norm == float(np.abs(eigvals).sum())
            assert np.array_equal(sub, (eigvecs * np.sign(eigvals)) @ eigvecs.T)
        assert np.array_equal(nuclear_norms(mats)[0], norms)

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
        fs = FactorSet(factors=np.eye(2)[None])
        breakdown = lambda_df(fs, np.zeros((2, 2)))
        assert breakdown.lambda_total == pytest.approx(2.0, abs=1e-12)
        assert breakdown.two_body_part == pytest.approx(2.0, abs=1e-12)
        assert breakdown.one_body_part == 0.0
        assert list(breakdown.per_factor) == pytest.approx([2.0], abs=1e-12)

    def test_empty_factors(self):
        fs = FactorSet(factors=np.zeros((0, 2, 2)))
        breakdown = lambda_df(fs, np.diag([1.0, -1.0]))
        assert breakdown.lambda_total == pytest.approx(2.0, abs=1e-12)
        assert breakdown.two_body_part == 0.0

    def test_parts_sum_to_total(self):
        rng = np.random.default_rng(14)
        factors = rng.standard_normal((3, 4, 4))
        fs = FactorSet(factors=factors)
        h_prime = symmetrize_one_body(rng.standard_normal((4, 4)))
        breakdown = lambda_df(fs, h_prime)
        total = breakdown.two_body_part + breakdown.one_body_part
        assert abs(breakdown.lambda_total - total) <= 1e-12 * abs(total)
        # The batched norms must match the single-matrix ones bit for bit.
        assert breakdown.per_factor.tolist() == [nuclear_norm(a) for a in fs]

    def test_dimension_mismatch(self):
        fs = FactorSet(factors=np.zeros((1, 2, 2)))
        with pytest.raises(ValueError, match="match"):
            lambda_df(fs, np.zeros((3, 3)))


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(15)
        fs = FactorSet(factors=rng.standard_normal((3, 4, 4)))
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

    def test_roundtrip_without_shift(self, tmp_path):
        fs = FactorSet(factors=np.zeros((1, 2, 2)))
        path = tmp_path / "plain.npz"
        save_factor_set(path, fs)
        loaded, kappa, xi, manifest = load_factor_set(path)
        assert kappa is None
        assert xi is None
        assert manifest == {}
        assert loaded.rank == 1

    def test_identical_content_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(16)
        fs = FactorSet(factors=rng.standard_normal((2, 3, 3)))
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        save_factor_set(p1, fs, manifest={"k": 1})
        save_factor_set(p2, fs, manifest={"k": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_archive_closes_its_file(self, tmp_path):
        path = tmp_path / "cut.npz"
        save_factor_set(path, FactorSet(factors=np.ones((2, 3, 3))))
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

    def test_rejects_foreign_archive(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, data=np.zeros(3))
        with pytest.raises(ValueError, match="archive"):
            load_factor_set(path)
