"""Exact many-body operators for verifying fermionic algebra at tiny sizes.

Spin-orbital (j, sigma) is mode q = j + N * sigma, so the sigma = 0 orbitals
take modes 0 .. N-1 and the sigma = 1 orbitals modes N .. 2N-1. A Fock basis
state is labeled little-endian by the integer b whose bit q is the occupation
of mode q, so the particle number of |b> is the popcount of b. Every operator
here follows from one bit-string rule (the Jordan-Wigner ordering):
annihilating an occupied mode q from |b> gives |b ^ (1 << q)> with sign
(-1)^popcount(b & ((1 << q) - 1)), and creating an empty one flips the same
bit with the same sign.

The Hamiltonian conserves particle number, so it is built one sector at a
time: ``sector_hamiltonian`` is its block on the C(2N, n_e) basis states of
``sector_states``, where each E_ij acts as a signed index map. No function
builds a full-Fock Hamiltonian; the full spectrum is the union of the 2N + 1
sector spectra. Only ``ladder_operator`` and ``b_operator`` span the whole
4^N-dimensional Fock space, for the operator-algebra checks at N <= 3.
Everything is real float64.

The orbital count is capped at N <= 6: the half-filled N=6 sector has 924
states, and its Hamiltonian builds and diagonalizes in well under a second.
The point is brute-force verification of the identities that the
factorization and shift machinery relies on, not scalable simulation.
"""

from __future__ import annotations

import numpy as np

from blissdf.hamiltonian import Hamiltonian, _as_real, pair_space, symmetrize_one_body

MAX_ORBITALS = 6


def _check_orbital_count(n: int):
    if not 1 <= n <= MAX_ORBITALS:
        raise ValueError(f"orbital count N={n} outside [1, {MAX_ORBITALS}]")


def _popcount(labels: np.ndarray) -> np.ndarray:
    """Set bits of each label below bit 2 * MAX_ORBITALS."""
    return sum((labels >> bit) & 1 for bit in range(2 * MAX_ORBITALS))


def _ladder(labels: np.ndarray, mode, dagger: bool) -> tuple[np.ndarray, np.ndarray]:
    """a_mode (a+_mode if dagger) on basis states: new labels and signs, 0 where it vanishes."""
    can_act = ((labels >> mode) & 1) != dagger
    parity = _popcount(labels & ((1 << mode) - 1)) & 1
    return labels ^ (1 << mode), np.where(can_act, 1 - 2 * parity, 0)


def sector_states(n: int, n_e: int) -> np.ndarray:
    """Ascending labels of the basis states with n_e electrons in n orbitals.

    This is the basis order of every sector matrix here, so a full-Fock matrix
    M restricts to the sector as M[np.ix_(states, states)].

    Raises:
        ValueError: If n or n_e is out of range.
    """
    _check_orbital_count(n)
    if not 0 <= n_e <= 2 * n:
        raise ValueError(f"n_e={n_e} outside [0, {2 * n}]")
    labels = np.arange(4**n)
    return labels[_popcount(labels) == n_e]


def _excitation_maps(n: int, n_e: int) -> tuple[np.ndarray, np.ndarray]:
    """Signed index maps (rows, signs), each (N, N, 2, d), of the spin parts of E_ij.

    Column c of a+_(i, sigma) a_(j, sigma) on the n_e sector has the single
    entry signs[i, j, sigma, c] at row rows[i, j, sigma, c]; the sign is 0
    where the column vanishes. E_kl conserves particle number, so no entry
    leaves the sector.
    """
    states = sector_states(n, n_e)
    position = np.zeros(4**n, dtype=np.intp)
    position[states] = np.arange(states.size)
    orbital, spin = np.arange(n)[:, None, None], n * np.arange(2)[:, None]
    moved, annihilated = _ladder(states, orbital + spin, dagger=False)
    targets, created = _ladder(moved, orbital[:, None] + spin, dagger=True)
    return position[targets], (annihilated * created).astype(np.float64)


def _one_body(a: np.ndarray, rows: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Sum_ij a_ij E_ij as a dense sector matrix, from the maps of _excitation_maps."""
    dim = rows.shape[-1]
    flat = (rows * dim + np.arange(dim)).ravel()
    weights = (a[:, :, None, None] * signs).ravel()
    return np.bincount(flat, weights, minlength=dim * dim).reshape(dim, dim)


def sector_one_body(a: np.ndarray, n_e: int) -> np.ndarray:
    """One(A) = sum_ij A_ij E_ij on the n_e sector, for any real N x N A.

    A is not symmetrized, so the unit matrix at (i, j) gives E_ij itself.
    """
    a = _as_real("a", a, (None, None))
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"coefficient matrix must be square, got {a.shape}")
    return _one_body(a, *_excitation_maps(a.shape[0], n_e))


def sector_hamiltonian(ham: Hamiltonian, n_e: int) -> np.ndarray:
    """Real symmetric block of c + sum_ij h_ij E_ij + sum_ijkl g_ijkl E_ij E_kl.

    The block acts on the C(2N, n_e) states of sector_states(N, n_e), in
    that order. Each g_ij.. is a row of ham.g_pairs, unpacked by PairSpace.
    """
    n, space = ham.n_orbitals, pair_space(ham.n_orbitals)
    rows, signs = _excitation_maps(n, n_e)
    mat = ham.core_constant * np.eye(rows.shape[-1]) + _one_body(ham.h, rows, signs)
    for i in range(n):
        for j in range(n):
            inner = _one_body(space.unpack(ham.g_pairs[space.unpack_index[i * n + j]]), rows, signs)
            # E_ij is the transpose of E_ji, so row r of E_ij @ inner is
            # row rows[j, i, sigma, r] of inner times its sign, per spin.
            for sign, row in zip(signs[j, i], rows[j, i]):
                hit = np.flatnonzero(sign)
                mat[hit] += sign[hit, None] * inner[row[hit]]
    return mat


def sector_eigenvalues(ham: Hamiltonian, n_e: int) -> np.ndarray:
    """Ascending eigenvalues of the Hamiltonian on the n_e-electron sector.

    Raises:
        ValueError: If n_e is outside [0, 2N].
    """
    return np.linalg.eigvalsh(sector_hamiltonian(ham, n_e))


def ladder_operator(j: int, sigma: int, dagger: bool, n: int) -> np.ndarray:
    """Annihilation (or creation) operator for (j, sigma) on the full Fock space.

    Args:
        j: Orbital index, 0 <= j < n.
        sigma: Spin, 0 or 1; spin-orbital (j, sigma) is mode j + n * sigma.
        dagger: If True, return the creation operator.
        n: Total orbital count, n <= 6.

    Returns:
        Real 4^n x 4^n matrix with entries 0 and +-1.

    Raises:
        ValueError: Index or orbital count out of range.
    """
    _check_orbital_count(n)
    if not 0 <= j < n:
        raise ValueError(f"orbital index {j} outside [0, {n})")
    if sigma not in (0, 1):
        raise ValueError(f"spin must be 0 or 1, got {sigma}")
    labels = np.arange(4**n)
    targets, signs = _ladder(labels, j + n * sigma, dagger)
    mat = np.zeros((4**n, 4**n))
    mat[targets, labels] = signs
    return mat


def b_operator(u: np.ndarray, sigma: int, n: int) -> np.ndarray:
    """Rotated annihilation operator B = sum_j u_j a_js for a unit vector u.

    B satisfies B^2 = 0 and {B, B+} = I, so 2 B+ B - I is unitary; these are
    the identities the block-encoding construction leans on.

    Raises:
        ValueError: If hamiltonian._as_real refuses u as (n,), u is not unit
            norm within 1e-12, or indices are bad.
    """
    _check_orbital_count(n)
    u = _as_real("u", u, (n,))
    norm = float(np.linalg.norm(u))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"u must be unit norm, got |u| = {norm!r}")
    return sum(u[j] * ladder_operator(j, sigma, False, n) for j in range(n))


def verify_one_body_identity(a: np.ndarray) -> float:
    """Max deviation of One(A) from its rotated-basis form, over all sectors.

    Eigendecomposes the symmetric part A = sum_t lambda_t u_t u_t^T and
    compares sector_one_body against sum_t,sigma lambda_t B+_(u_t,sigma)
    B_(u_t,sigma), built from ladder operators and restricted to each sector;
    the sum depends on neither the order nor the signs of the eigenpairs. The
    two agree identically in exact arithmetic; the returned value is the
    max-norm of the numerical difference (expected <= 1e-9).
    """
    a = _as_real("a", a, (None, None))
    n = a.shape[0]
    eigvals, eigvecs = np.linalg.eigh(symmetrize_one_body(a))
    rhs = np.zeros((4**n, 4**n))
    for lam, vec in zip(eigvals, eigvecs.T):
        for sigma in (0, 1):
            b_mat = b_operator(vec, sigma, n)
            rhs += lam * (b_mat.T @ b_mat)
    worst = 0.0
    for n_e in range(2 * n + 1):
        states = sector_states(n, n_e)
        lhs = sector_one_body(a, n_e)
        worst = max(worst, float(np.max(np.abs(lhs - rhs[np.ix_(states, states)]))))
    return worst
