import numpy as np
import pytest

from blissdf import Hamiltonian, reconstruct_two_body
from blissdf.fermi_oracle import (
    MAX_ORBITALS,
    b_operator,
    ladder_operator,
    sector_eigenvalues,
    sector_hamiltonian,
    sector_one_body,
    sector_states,
    verify_one_body_identity,
)
from blissdf.hamiltonian import symmetrize_one_body

from conftest import packed_factors, random_hamiltonian


def spin_orbitals(n):
    return [(j, sigma) for sigma in (0, 1) for j in range(n)]


def one_body_hamiltonian(a):
    n = a.shape[0]
    return Hamiltonian(h=a, g=np.zeros((n, n, n, n)))


def excitation(i, j, n, n_e):
    unit = np.zeros((n, n))
    unit[i, j] = 1.0
    return sector_one_body(unit, n_e)


def full_spectrum(ham):
    n = ham.n_orbitals
    return np.sort(
        np.concatenate([sector_eigenvalues(ham, n_e) for n_e in range(2 * n + 1)])
    )


def ladder_excitation(i, j, n):
    return sum(
        ladder_operator(i, sigma, True, n) @ ladder_operator(j, sigma, False, n)
        for sigma in (0, 1)
    )


class TestLadderAlgebra:
    def test_canonical_anticommutation_exact(self):
        # Matrix entries are products of 0 and +-1, so the relations hold
        # exactly, not just to rounding.
        n = 2
        dim = 4**n
        eye = np.eye(dim)
        for p in spin_orbitals(n):
            a_p = ladder_operator(*p, dagger=False, n=n)
            for q in spin_orbitals(n):
                a_q = ladder_operator(*q, dagger=False, n=n)
                c_q = ladder_operator(*q, dagger=True, n=n)
                anti = a_p @ a_q + a_q @ a_p
                assert np.array_equal(anti, np.zeros((dim, dim)))
                mixed = a_p @ c_q + c_q @ a_p
                expected = eye if p == q else np.zeros((dim, dim))
                assert np.array_equal(mixed, expected)

    def test_nilpotency(self):
        a = ladder_operator(1, 1, dagger=False, n=2)
        assert np.array_equal(a @ a, np.zeros_like(a))

    def test_dagger_is_adjoint(self):
        a = ladder_operator(0, 1, dagger=False, n=2)
        c = ladder_operator(0, 1, dagger=True, n=2)
        assert a.dtype == np.float64
        assert np.array_equal(c, a.T)

    def test_index_validation(self):
        with pytest.raises(ValueError, match=r"^j must be in \[0, 1\], got 2$"):
            ladder_operator(2, 0, dagger=False, n=2)
        with pytest.raises(ValueError, match=r"^j must be in \[0, 1\], got -1$"):
            ladder_operator(-1, 0, dagger=False, n=2)
        with pytest.raises(ValueError, match=r"^sigma must be in \[0, 1\], got 2$"):
            ladder_operator(0, 2, dagger=False, n=2)
        with pytest.raises(ValueError, match=r"^n must be in \[1, 6\], got 7$"):
            ladder_operator(0, 0, dagger=False, n=MAX_ORBITALS + 1)
        with pytest.raises(ValueError, match=r"^n must be in \[1, 6\], got 0$"):
            sector_states(0, 0)
        with pytest.raises(ValueError, match=r"^n must be in \[1, 6\], got 7$"):
            sector_states(MAX_ORBITALS + 1, 1)

    def test_mode_order_and_sign_rule(self):
        # Mode q = j + N * sigma is bit q of the label; a_q picks up one
        # minus sign per occupied mode below q.
        n = 2
        assert np.array_equal(sector_states(n, 1), [1, 2, 4, 8])
        a = ladder_operator(1, 1, dagger=False, n=n)  # mode 3
        assert a[0b0111, 0b1111] == -1.0
        assert a[0b0110, 0b1110] == 1.0
        assert a[0b0000, 0b1000] == 1.0
        assert np.count_nonzero(a) == 8


class TestExcitations:
    def test_adjoint_symmetry(self):
        for n_e in range(5):
            e01 = excitation(0, 1, 2, n_e)
            e10 = excitation(1, 0, 2, n_e)
            assert np.array_equal(e01.T, e10)

    def test_number_operator_is_sum_of_diagonal_excitations(self):
        n = 2
        for n_e in range(2 * n + 1):
            total = sum(excitation(i, i, n, n_e) for i in range(n))
            assert np.array_equal(total, n_e * np.eye(len(sector_states(n, n_e))))

    def test_one_body_matches_excitation_sum(self):
        rng = np.random.default_rng(40)
        a = symmetrize_one_body(rng.standard_normal((2, 2)))
        for n_e in range(5):
            direct = sum(
                a[i, j] * excitation(i, j, 2, n_e)
                for i in range(2)
                for j in range(2)
            )
            got = sector_hamiltonian(one_body_hamiltonian(a), n_e)
            assert np.max(np.abs(got - direct)) < 1e-14


class TestLadderCrossCheck:
    """The sector oracle against products of full-Fock ladder operators."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sector_excitations_equal_ladder_products(self, n):
        # Entries are 0, +-1 and 2, so equality is exact.
        for i in range(n):
            for j in range(n):
                full = ladder_excitation(i, j, n)
                for n_e in range(2 * n + 1):
                    states = sector_states(n, n_e)
                    assert np.array_equal(
                        excitation(i, j, n, n_e), full[np.ix_(states, states)]
                    )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sector_hamiltonian_matches_ladder_construction(self, n):
        rng = np.random.default_rng(46 + n)
        ham = random_hamiltonian(n, rng)
        exc = {(i, j): ladder_excitation(i, j, n) for i in range(n) for j in range(n)}
        full = ham.core_constant * np.eye(4**n)
        for (i, j), e_ij in exc.items():
            full += ham.h[i, j] * e_ij
            full += e_ij @ sum(ham.g[i, j, k, l] * e_kl for (k, l), e_kl in exc.items())
        for n_e in range(2 * n + 1):
            states = sector_states(n, n_e)
            block = sector_hamiltonian(ham, n_e)
            assert block.dtype == np.float64
            assert np.max(np.abs(block - full[np.ix_(states, states)])) < 1e-12

    def test_sectors_partition_fock_space(self):
        n = 3
        labels = np.concatenate([sector_states(n, n_e) for n_e in range(2 * n + 1)])
        assert np.array_equal(np.sort(labels), np.arange(4**n))
        for n_e in range(2 * n + 1):
            assert np.all(np.diff(sector_states(n, n_e)) > 0)


class TestSpectra:
    def test_single_orbital_one_body_spectrum(self):
        eps = 0.37
        ham = Hamiltonian(h=np.array([[eps]]), g=np.zeros((1, 1, 1, 1)))
        eigs = full_spectrum(ham)
        assert np.allclose(eigs, sorted([0.0, eps, eps, 2 * eps]), atol=1e-12)

    def test_single_orbital_two_body_spectrum(self):
        # H = gamma * E_00 E_00 acts as gamma * (n_up + n_down)^2, giving
        # eigenvalues {0, gamma, gamma, 4 gamma} on the four Fock states.
        gamma = 0.21
        g = np.full((1, 1, 1, 1), gamma)
        ham = Hamiltonian(h=np.zeros((1, 1)), g=g)

        for n_e in range(3):
            e00 = excitation(0, 0, 1, n_e)
            block = sector_hamiltonian(ham, n_e)
            assert np.max(np.abs(block - gamma * (e00 @ e00))) < 1e-14

        eigs = full_spectrum(ham)
        assert np.allclose(eigs, sorted([0.0, gamma, gamma, 4 * gamma]), atol=1e-12)

    def test_dense_matches_operator_level_construction(self):
        # For g built from factor matrices the two-body term must equal
        # sum_r One(A_r)^2; this exercises the full tensor contraction path
        # against an independent operator-product construction.
        rng = np.random.default_rng(41)
        n = 2
        factors = rng.standard_normal((2, n, n))
        factors = 0.5 * (factors + factors.transpose(0, 2, 1))
        h = symmetrize_one_body(rng.standard_normal((n, n)))
        core = 0.6
        ham = Hamiltonian(
            h=h, g=reconstruct_two_body(packed_factors(factors)), core_constant=core
        )

        for n_e in range(2 * n + 1):
            block = sector_hamiltonian(ham, n_e)
            reference = core * np.eye(len(block)) + sector_one_body(h, n_e)
            for a in factors:
                op = sector_one_body(a, n_e)
                reference += op @ op
            assert np.max(np.abs(block - reference)) < 1e-9


class TestBOperator:
    def test_basis_vector_reduces_to_ladder(self):
        u = np.array([1.0, 0.0, 0.0])
        b = b_operator(u, 1, 3)
        a = ladder_operator(0, 1, dagger=False, n=3)
        assert np.array_equal(b, a)

    def test_identities_random_rotation(self):
        rng = np.random.default_rng(42)
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        b = b_operator(u, 0, 3)
        dim = b.shape[0]

        assert np.max(np.abs(b @ b)) < 1e-12
        anti = b @ b.T + b.T @ b
        assert np.max(np.abs(anti - np.eye(dim))) < 1e-12

        v = 2.0 * (b.T @ b) - np.eye(dim)
        assert np.max(np.abs(v @ v.T - np.eye(dim))) < 1e-10

    def test_rejects_non_unit_vector(self):
        with pytest.raises(ValueError, match="unit norm"):
            b_operator(np.array([1.0, 1.0]), 0, 2)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            b_operator(np.array([1.0, 0.0]), 0, 3)


class TestOneBodyIdentity:
    def test_identity_matrix_gives_number_operator(self):
        for n_e in range(5):
            lhs = sector_hamiltonian(one_body_hamiltonian(np.eye(2)), n_e)
            assert np.array_equal(lhs, n_e * np.eye(len(lhs)))
        assert verify_one_body_identity(np.eye(2)) <= 1e-12

    def test_diagonal(self):
        assert verify_one_body_identity(np.diag([0.5, -1.5])) <= 1e-12

    def test_random_dense(self):
        rng = np.random.default_rng(43)
        a = symmetrize_one_body(rng.standard_normal((3, 3)))
        assert verify_one_body_identity(a) <= 1e-9

    def test_rotated_form_built_explicitly(self):
        rng = np.random.default_rng(44)
        a = symmetrize_one_body(rng.standard_normal((2, 2)))
        eigvals, eigvecs = np.linalg.eigh(a)
        rhs = np.zeros((16, 16))
        for lam, vec in zip(eigvals, eigvecs.T):
            for sigma in (0, 1):
                b = b_operator(vec, sigma, 2)
                rhs += lam * (b.T @ b)
        for n_e in range(5):
            states = sector_states(2, n_e)
            lhs = sector_hamiltonian(one_body_hamiltonian(a), n_e)
            assert np.max(np.abs(lhs - rhs[np.ix_(states, states)])) < 1e-12


class TestSectorEigenvalues:
    def test_number_operator_sectors(self):
        ham = one_body_hamiltonian(np.eye(2))
        for n_e in range(5):
            eigs = sector_eigenvalues(ham, n_e)
            assert np.allclose(eigs, n_e, atol=1e-14)

    def test_number_shifted_hamiltonian(self):
        # Adding 5 (N_e - n_e) leaves the n_e sector untouched while moving
        # every other sector.
        rng = np.random.default_rng(45)
        ham = random_hamiltonian(2, rng, n_electrons=2)
        shifted = Hamiltonian(
            h=ham.h + 5.0 * np.eye(2),
            g=ham.g,
            core_constant=ham.core_constant - 5.0 * 2.0,
            n_electrons=2,
        )

        same = sector_eigenvalues(ham, 2)
        assert np.max(np.abs(same - sector_eigenvalues(shifted, 2))) < 1e-10
        full_ref = full_spectrum(ham)
        full_shift = full_spectrum(shifted)
        assert np.max(np.abs(full_ref - full_shift)) > 1.0

    def test_sector_sizes_partition_fock_space(self):
        ham = one_body_hamiltonian(np.eye(2))
        sizes = [len(sector_eigenvalues(ham, n_e)) for n_e in range(5)]
        assert sizes == [1, 4, 6, 4, 1]

    def test_range_validation(self):
        ham = one_body_hamiltonian(np.eye(1))
        with pytest.raises(ValueError, match="n_e"):
            sector_eigenvalues(ham, 3)
        with pytest.raises(ValueError, match="n_e"):
            sector_eigenvalues(ham, -1)
