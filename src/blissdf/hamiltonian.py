"""Electronic Hamiltonian data model and symmetry-shift algebra.

The Hamiltonian is stored in the "excitation-ordered" convention

    H = c + sum_ij h_ij E_ij + sum_ijkl g_ijkl E_ij E_kl,

where E_ij = sum_sigma a+_{i sigma} a_{j sigma} are spin-summed orbital
excitation operators, h is real symmetric and g carries the standard 8-fold
index symmetry. All energies are in Hartree.
"""

from __future__ import annotations

import dataclasses

import numpy as np


def symmetrize_one_body(mat: np.ndarray) -> np.ndarray:
    """Return the symmetric part (mat + mat.T) / 2 as a float64 array."""
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return 0.5 * (mat + mat.T)


def symmetrize_two_body(g: np.ndarray) -> np.ndarray:
    """Project a rank-4 tensor onto its 8-fold symmetric part.

    The result satisfies g[i,j,k,l] == g[j,i,k,l] == g[i,j,l,k] == g[k,l,i,j]
    bit-exactly: each pairwise average below produces bitwise-identical
    entries across the orbit, and later averages preserve earlier ones.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 4 or len(set(g.shape)) != 1:
        raise ValueError(f"expected an N^4 tensor, got shape {g.shape}")
    g = 0.5 * (g + g.transpose(1, 0, 2, 3))
    g = 0.5 * (g + g.transpose(0, 1, 3, 2))
    g = 0.5 * (g + g.transpose(2, 3, 0, 1))
    return g


def check_two_body_symmetry(g: np.ndarray, tol: float = 0.0) -> float:
    """Return the largest deviation of g from 8-fold index symmetry.

    Raises ValueError if the deviation exceeds ``tol``.
    """
    g = np.asarray(g, dtype=np.float64)
    dev = 0.0
    for axes in [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)]:
        dev = max(dev, float(np.abs(g - g.transpose(axes)).max()))
    if dev > tol:
        raise ValueError(f"two-body tensor violates 8-fold symmetry by {dev:.3e}")
    return dev


def _frozen_array(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclasses.dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Electronic Hamiltonian in the excitation-ordered convention.

    Attributes:
        h: Real symmetric N x N one-body coefficient matrix (Hartree).
        g: Real N x N x N x N two-body coefficient tensor with 8-fold index
            symmetry (Hartree), stored dense.
        core_constant: Scalar term (Hartree).
        n_electrons: Electron count of the physical sector, 0 <= n_e <= 2N.

    Construction symmetrizes ``h`` and ``g`` exactly and freezes the arrays;
    instances are immutable and safe to share across threads.
    """

    h: np.ndarray
    g: np.ndarray
    core_constant: float = 0.0
    n_electrons: int = 0

    def __post_init__(self):
        h = symmetrize_one_body(self.h)
        g = symmetrize_two_body(self.g)
        if h.shape[0] != g.shape[0]:
            raise ValueError(
                f"one-body matrix is {h.shape[0]} orbitals but two-body tensor "
                f"is {g.shape[0]}"
            )
        if not (np.isfinite(h).all() and np.isfinite(g).all()):
            raise ValueError("Hamiltonian coefficients must be finite")
        if not np.isfinite(self.core_constant):
            raise ValueError("core constant must be finite")
        n = h.shape[0]
        n_e = int(self.n_electrons)
        if not 0 <= n_e <= 2 * n:
            raise ValueError(f"n_electrons={n_e} outside [0, {2 * n}]")
        object.__setattr__(self, "h", _frozen_array(h))
        object.__setattr__(self, "g", _frozen_array(g))
        object.__setattr__(self, "core_constant", float(self.core_constant))
        object.__setattr__(self, "n_electrons", n_e)

    @property
    def n_orbitals(self) -> int:
        return self.h.shape[0]


@dataclasses.dataclass(frozen=True, eq=False)
class ShiftParams:
    """Parameters (kappa, xi, n_e) of a block-invariant symmetry shift.

    The shift adds (sum_ij xi_ij E_ij + kappa)(N_e - n_e) to the Hamiltonian,
    which annihilates every state with exactly ``n_e`` electrons. ``xi`` is
    symmetrized on construction.
    """

    kappa: float
    xi: np.ndarray
    n_e: int

    def __post_init__(self):
        xi = symmetrize_one_body(self.xi)
        if not np.isfinite(xi).all() or not np.isfinite(self.kappa):
            raise ValueError("shift parameters must be finite")
        if int(self.n_e) < 0:
            raise ValueError("n_e must be nonnegative")
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "xi", _frozen_array(xi))
        object.__setattr__(self, "n_e", int(self.n_e))

    @classmethod
    def zero(cls, n_orbitals: int, n_e: int) -> "ShiftParams":
        return cls(kappa=0.0, xi=np.zeros((n_orbitals, n_orbitals)), n_e=n_e)


def apply_symmetry_shift(ham: Hamiltonian, shift: ShiftParams) -> Hamiltonian:
    """Apply a block-invariant symmetry shift, returning the shifted Hamiltonian.

    The shifted coefficients keep the original form:

        h~_ij = h_ij - n_e xi_ij + kappa delta_ij
        g~_ijkl = g_ijkl + (xi_ij delta_kl + delta_ij xi_kl) / 2
        c~ = c - kappa n_e

    The output two-body tensor retains full 8-fold symmetry. On any state with
    exactly ``shift.n_e`` electrons the shifted Hamiltonian acts identically to
    the original.

    Raises:
        ValueError: If the shift dimension does not match the Hamiltonian.
    """
    n = ham.n_orbitals
    if shift.xi.shape[0] != n:
        raise ValueError(
            f"shift is {shift.xi.shape[0]} orbitals but Hamiltonian is {n}"
        )
    return Hamiltonian(
        h=ham.h - shift.n_e * shift.xi + shift.kappa * np.eye(n),
        g=shifted_two_body(ham.g, shift.xi),
        core_constant=ham.core_constant - shift.kappa * shift.n_e,
        n_electrons=ham.n_electrons,
    )


def shifted_two_body(g: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """g_ijkl + (xi_ij delta_kl + delta_ij xi_kl) / 2 as a fresh, writable array."""
    eye = np.eye(g.shape[0])
    return g + 0.5 * (
        np.einsum("ij,kl->ijkl", xi, eye) + np.einsum("ij,kl->ijkl", eye, xi)
    )


def effective_one_body(ham: Hamiltonian) -> np.ndarray:
    """Return the effective one-body matrix h'_ij = h_ij + 2 sum_k g_ijkk.

    This is the one-body matrix whose nuclear norm enters the block-encoding
    scaling constant after the two-body trace terms are folded in.
    """
    return ham.h + 2.0 * np.einsum("ijkk->ij", ham.g)


def shifted_effective_one_body(
    ham: Hamiltonian, kappa: float, xi: np.ndarray
) -> np.ndarray:
    """h'_ij + (N - n_e) xi_ij + (kappa + tr xi) delta_ij, the shifted h'.

    Equals effective_one_body(apply_symmetry_shift(...)) up to round-off,
    without building the shifted two-body tensor.
    """
    n = ham.n_orbitals
    return (
        effective_one_body(ham)
        + (n - ham.n_electrons) * xi
        + (kappa + float(np.trace(xi))) * np.eye(n)
    )


def effective_rank(factors: np.ndarray) -> int:
    """Number of factors left once the trailing exactly-zero ones are dropped.

    Trailing zero factors add nothing to sum_r A_r (x) A_r or to lambda, so
    every sum over factors stops here: a zero-padded stack then gives the
    same bits as its unpadded prefix.
    """
    nonzero = np.flatnonzero(np.asarray(factors).any(axis=(1, 2)))
    return int(nonzero[-1]) + 1 if nonzero.size else 0


def reconstruct_two_body(factors: np.ndarray) -> np.ndarray:
    """Assemble sum_r A_r (x) A_r from a stack of symmetric factor matrices.

    Args:
        factors: Array of shape (R, N, N) or a FactorSet; R may be zero.
            Trailing exactly-zero factors are skipped (see effective_rank).

    Returns:
        The N^4 tensor with entries sum_r A[r,i,j] * A[r,k,l]. The result is
        8-fold symmetric because each factor is.
    """
    factors = np.asarray(getattr(factors, "factors", factors), dtype=np.float64)
    if factors.ndim != 3 or factors.shape[1] != factors.shape[2]:
        raise ValueError(f"expected factors of shape (R, N, N), got {factors.shape}")
    n = factors.shape[1]
    rank = effective_rank(factors)
    if rank == 0:
        return np.zeros((n, n, n, n))
    flat = factors[:rank].reshape(rank, n * n)
    return (flat.T @ flat).reshape(n, n, n, n)


def frobenius_error(g_target: np.ndarray, factors: np.ndarray) -> float:
    """Squared Frobenius residual between a tensor and its factorization.

    Returns sum_ijkl (g_target - sum_r A_r (x) A_r)^2. Note this is the
    squared norm, not its square root.
    """
    g_target = np.asarray(g_target, dtype=np.float64)
    recon = reconstruct_two_body(factors)
    if recon.shape != g_target.shape:
        raise ValueError(
            f"factor dimension {recon.shape[0]} does not match tensor "
            f"dimension {g_target.shape[0]}"
        )
    diff = g_target - recon
    return float(np.vdot(diff, diff))
