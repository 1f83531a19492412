"""Double factorization of the two-body tensor and lambda accounting.

The two-body tensor g is first decomposed as a sum of Kronecker squares,

    g_ijkl ~ sum_r A_rij A_rkl,

by eigendecomposing its reshape over symmetric index pairs (exact at full
rank when the reshape is positive semidefinite). Because g is symmetric in
i <-> j and k <-> l, its N^2 x N^2 reshape vanishes on the antisymmetric
pairs, so at most P = N(N+1)/2 factors are nonzero: the effective rank M is
the number of pair-space eigenvalues above d_max * P * eps, and a request for
R > M factors (up to N^2) gets the M nonzero ones followed by R - M exact
zeros. Each symmetric factor A_r then admits an
eigendecomposition A_r = sum_t lambda_rt u_rt u_rt^T, whose absolute
eigenvalue sum is the nuclear norm ||A_r||_*. The block-encoding scaling
constant assembled from these pieces is

    lambda = 1/2 * sum_r ||A_r||_*^2 + ||h'||_*,

with h' the effective one-body matrix. The nuclear norm is the provable
minimum of sum_t |lambda_t| over all rank-1 decompositions, which is why
eigendecomposition is the only rank-2 -> rank-1 step offered.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from blissdf.hamiltonian import (
    _frozen_array,
    _symmetric_part,
    effective_rank,
    pair_space,
    symmetrize_one_body,
)

ARCHIVE_FORMAT = "blissdf-factors-v1"

# Matrices per product in sign_subgradients.
_SUBGRADIENT_CHUNK = 64


class IndefiniteTensorError(ValueError):
    """The reshaped two-body tensor has significantly negative eigenvalues.

    Such a tensor is not representable as sum_r A_r (x) A_r over the reals,
    so the first factorization step cannot proceed. This indicates corrupt
    or unphysical integral data rather than numerical noise.
    """


@dataclass(frozen=True, eq=False)
class FactorSet:
    """An ordered collection of R symmetric N x N factor matrices.

    Attributes:
        factors: Array of shape (R, N, N); each slice is stored exactly
            symmetrized. R = 0 is allowed (an empty factorization); R is
            capped at N^2 since further factors cannot add anything.
    """

    factors: np.ndarray

    def __post_init__(self):
        factors = np.asarray(self.factors, dtype=np.float64)
        if factors.ndim != 3 or factors.shape[1] != factors.shape[2]:
            raise ValueError(f"factors must have shape (R, N, N), got {factors.shape}")
        rank, n = factors.shape[0], factors.shape[1]
        if rank > n * n:
            raise ValueError(f"R={rank} exceeds N^2={n * n}")
        if factors.size and not np.all(np.isfinite(factors)):
            raise ValueError("factors contain non-finite entries")
        factors = _symmetric_part(factors, ((0, 2, 1),))
        object.__setattr__(self, "factors", _frozen_array(factors))

    @property
    def rank(self) -> int:
        return self.factors.shape[0]

    @property
    def n_orbitals(self) -> int:
        return self.factors.shape[1]

    @property
    def effective_rank(self) -> int:
        """Number of factors before the trailing exactly-zero ones."""
        return effective_rank(self.factors)

    def __iter__(self):
        return iter(self.factors)

    def __len__(self) -> int:
        return self.rank


@dataclass(frozen=True, eq=False)
class Rank1Decomposition:
    """Eigenpairs of a symmetric matrix, deterministically ordered.

    Attributes:
        eigenvalues: Shape (N,), sorted by descending absolute value; ties
            broken by descending signed value, then by the lexicographically
            smallest sign-fixed eigenvector.
        vectors: Shape (N, N); ``vectors[t]`` is the unit eigenvector for
            ``eigenvalues[t]``, sign-fixed so its first nonzero entry is
            positive.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "eigenvalues", _frozen_array(np.asarray(self.eigenvalues))
        )
        object.__setattr__(self, "vectors", _frozen_array(np.asarray(self.vectors)))

    def reconstruct(self) -> np.ndarray:
        """Return sum_t lambda_t u_t u_t^T."""
        return np.einsum("t,ti,tj->ij", self.eigenvalues, self.vectors, self.vectors)


@dataclass(frozen=True)
class LambdaBreakdown:
    """The block-encoding scaling constant and its additive parts.

    lambda_total = two_body_part + one_body_part, where two_body_part is
    1/2 * sum_r Lambda_r^2 and one_body_part is the nuclear norm of the
    effective one-body matrix.
    """

    lambda_total: float
    two_body_part: float
    one_body_part: float
    per_factor: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "per_factor", _frozen_array(np.asarray(self.per_factor))
        )

    @classmethod
    def from_norms(cls, factor_norms: np.ndarray, one_body: float, rank: int) -> "LambdaBreakdown":
        """The breakdown of R factors whose nonzero prefix has nuclear norms ``factor_norms``.

        ``one_body`` is ||h'||_*; per_factor is padded with zeros to ``rank``.
        """
        per_factor = np.zeros(rank)
        per_factor[: len(factor_norms)] = factor_norms
        return cls(*lambda_parts(factor_norms, one_body), per_factor)


def lambda_parts(factor_norms: np.ndarray, one_body: float) -> tuple[float, float, float]:
    """(lambda, 1/2 * sum_r Lambda_r^2, ||h'||_*) from the factors' nuclear norms and ||h'||_*."""
    two_body, one_body = float(0.5 * np.sum(factor_norms**2)), float(one_body)
    return two_body + one_body, two_body, one_body


def _leading_signs(rows: np.ndarray) -> np.ndarray:
    """Per row of a (K, L) array, the +-1 that makes its first nonzero entry positive."""
    if not rows.size:  # argmax has no answer over empty rows
        return np.ones(len(rows))
    lead = rows[np.arange(len(rows)), np.argmax(rows != 0.0, axis=1)]
    return np.where(lead < 0.0, -1.0, 1.0)


def eigen_rank1(a: np.ndarray) -> Rank1Decomposition:
    """Eigendecompose a symmetric matrix into ordered rank-1 terms.

    The ordering (descending |lambda|, ties by descending signed value, then
    lexicographically smallest sign-fixed vector) is deterministic so that
    downstream serialized results are reproducible.

    Args:
        a: Symmetric N x N matrix.

    Returns:
        Rank1Decomposition with unit-norm, sign-fixed eigenvectors such that
        sum_t lambda_t u_t u_t^T reconstructs the input.
    """
    a = symmetrize_one_body(np.asarray(a, dtype=np.float64))
    eigvals, eigvecs = np.linalg.eigh(a)
    vectors = eigvecs.T * _leading_signs(eigvecs.T)[:, None]
    # lexsort's last key is its primary one; the vectors compare entry by entry.
    order = np.lexsort((*vectors.T[::-1], -eigvals, -np.abs(eigvals)))
    return Rank1Decomposition(eigenvalues=eigvals[order], vectors=vectors[order])


def nuclear_norms(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nuclear norms of symmetric matrices (..., N, N) from one batched eigh.

    Returns (norms, eigvals, eigvecs), the last two for sign_subgradients.
    eigh rather than eigvalsh: every nuclear norm in the package comes from
    this one LAPACK path, so recomputed norms match the optimizer's trace bitwise.
    """
    eigvals, eigvecs = np.linalg.eigh(mats)
    return np.abs(eigvals).sum(axis=-1), eigvals, eigvecs


def sign_subgradients(eigvals: np.ndarray, eigvecs: np.ndarray) -> np.ndarray:
    """Each matrix's U sign(D) U^T (sign(0) = 0), written over its eigenvectors U.

    The product overwrites U a few matrices at a time, so no temporary is as
    large as the whole stack. Returns ``eigvecs``.
    """
    n = eigvecs.shape[-1]
    vecs, signs = eigvecs.reshape(-1, n, n), np.sign(eigvals).reshape(-1, 1, n)
    for lo in range(0, len(vecs), _SUBGRADIENT_CHUNK):
        part = vecs[lo : lo + _SUBGRADIENT_CHUNK]
        part[...] = (part * signs[lo : lo + _SUBGRADIENT_CHUNK]) @ part.swapaxes(-1, -2)
    return eigvecs


def nuclear_norm(a: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a symmetric matrix.

    For symmetric matrices this equals the singular-value sum, and it is the
    minimum of sum_t |lambda_t| over all decompositions into rank-1 terms
    with unit vectors.
    """
    return float(nuclear_norms(symmetrize_one_body(a))[0])


def initial_double_factorization(g: np.ndarray, rank: int) -> FactorSet:
    """Factor the two-body tensor into Kronecker squares of symmetric matrices.

    Eigendecomposes the P x P pair-space matrix G_(ij),(kl) =
    g_ijkl * w_ij * w_kl over the pairs i <= j (P = N(N+1)/2, w = sqrt(2)
    off the diagonal and 1 on it), the symmetric block of the N^2 x N^2
    reshape; the antisymmetric block is exactly zero and is never formed.
    Each eigenvector v unpacks to A_ij = A_ji = v_(ij) / w_ij, and the
    factors are A_r = sqrt(d_r) * A for the ``rank`` largest eigenvalues d_r.
    Every factor whose eigenvalue is at most d_max * P * eps (the
    ``matrix_rank`` tolerance) is an exact 0.0, so the result is the M
    nonzero factors (M = effective rank, at most P) followed by exact zeros.
    With rank >= M and a positive semidefinite reshape the reconstruction is
    exact; truncation keeps the dominant factors and the residual error is
    non-increasing in ``rank``.

    Args:
        g: Two-body tensor with the full 8-fold symmetry, shape (N, N, N, N).
        rank: Number of factors R to keep, 1 <= R <= N^2.

    Returns:
        FactorSet of R symmetric matrices ordered by descending eigenvalue.

    Raises:
        IndefiniteTensorError: If the reshape has an eigenvalue below
            -1e-8 * max(d); such a g has no real factorization of this form.
        ValueError: If rank is out of range or g has the wrong shape.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 4 or len(set(g.shape)) != 1:
        raise ValueError(f"g must have shape (N, N, N, N), got {g.shape}")
    n = g.shape[0]
    if not 1 <= rank <= n * n:
        raise ValueError(f"rank must be in [1, {n * n}], got {rank}")

    space = pair_space(n)
    weights = np.sqrt(space.mult)
    big = space.block(g) * np.outer(weights, weights)
    big = 0.5 * (big + big.T)
    eigvals, eigvecs = np.linalg.eigh(big)
    # The full reshape's spectrum is this one plus exact zeros.
    d_max = max(float(eigvals[-1]), 0.0)
    if eigvals[0] < -1e-8 * d_max:
        raise IndefiniteTensorError(
            f"reshaped two-body tensor has eigenvalue {eigvals[0]:.6e} below "
            f"-1e-8 * max eigenvalue ({d_max:.6e}); no real symmetric "
            "factorization exists"
        )
    tol = d_max * len(weights) * np.finfo(np.float64).eps

    order = np.argsort(eigvals)[::-1][:rank]
    order = order[eigvals[order] > tol]  # a prefix, as the order is descending
    packed = eigvecs[:, order].T / weights
    # Sign-fix each factor on its first nonzero entry, which is the same in
    # row-major order of the symmetric matrix as in pair order.
    packed *= (np.sqrt(eigvals[order]) * _leading_signs(packed))[:, None]
    factors = np.zeros((rank, n, n))
    space.unpack(packed, out=factors[: len(order)])
    return FactorSet(factors=factors)


def lambda_df(factor_set: FactorSet, h_prime: np.ndarray) -> LambdaBreakdown:
    """Assemble the block-encoding scaling constant from its two sources.

    Args:
        factor_set: Factors of the (shifted) two-body tensor.
        h_prime: Effective one-body matrix of the (shifted) Hamiltonian.

    Returns:
        LambdaBreakdown with lambda_total = 1/2 * sum_r Lambda_r^2 +
        ||h_prime||_*, where Lambda_r = ||A_r||_*. Trailing exactly-zero
        factors get Lambda_r = 0 and stay out of the sum, so zero padding
        does not change the bits.

    Raises:
        ValueError: If h_prime's dimension disagrees with the factors'.
    """
    h_prime = np.asarray(h_prime, dtype=np.float64)
    n = factor_set.n_orbitals
    if h_prime.shape != (n, n):
        raise ValueError(f"h_prime shape {h_prime.shape} does not match N={n} factors")
    factors = factor_set.factors[: factor_set.effective_rank]
    return LambdaBreakdown.from_norms(nuclear_norms(factors)[0], nuclear_norm(h_prime), factor_set.rank)


def save_factor_set(
    path: str | Path,
    factor_set: FactorSet,
    manifest: dict | None = None,
    kappa: float | None = None,
    xi: np.ndarray | None = None,
) -> None:
    """Serialize a FactorSet (and optionally its shift) to an npz archive.

    The archive is a standard npz (readable by numpy) written with fixed zip
    header timestamps, so identical content produces identical bytes and the
    float64 payload round-trips exactly. ``manifest`` may carry provenance
    such as the source-file checksum.
    """
    payload = {
        "format": np.array(ARCHIVE_FORMAT),
        "n_orbitals": np.array(factor_set.n_orbitals, dtype=np.int64),
        "rank": np.array(factor_set.rank, dtype=np.int64),
        "factors": np.asarray(factor_set.factors),
        "manifest": np.array(json.dumps(manifest or {}, sort_keys=True)),
    }
    if kappa is not None:
        payload["kappa"] = np.array(float(kappa))
    if xi is not None:
        payload["xi"] = np.asarray(xi, dtype=np.float64)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for name, arr in payload.items():
            arr = np.asarray(arr)
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            # Streamed into the member, with no in-memory copy of the .npy
            # bytes; the zip64 rule is the one writestr applies to its data.
            with archive.open(info, "w", force_zip64=arr.nbytes * 1.05 > zipfile.ZIP64_LIMIT) as member:
                np.lib.format.write_array(member, arr, allow_pickle=False)


def load_factor_set(
    path: str | Path,
) -> tuple[FactorSet, float | None, np.ndarray | None, dict]:
    """Load an archive written by save_factor_set.

    Returns:
        Tuple (factor_set, kappa, xi, manifest); kappa and xi are None when
        the archive holds a plain factorization without a symmetry shift.

    Raises:
        ValueError: If the archive format tag is missing or unrecognized.
    """
    # np.load leaves a file it opened itself open when the zip is corrupt.
    with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as archive:
        if "format" not in archive or str(archive["format"]) != ARCHIVE_FORMAT:
            raise ValueError(f"{path}: not a {ARCHIVE_FORMAT} archive")
        factors = archive["factors"]
        expected = (int(archive["rank"]), int(archive["n_orbitals"]))
        if factors.shape[:2] != expected or factors.ndim != 3:
            raise ValueError(
                f"{path}: factor array shape {factors.shape} disagrees with "
                f"recorded (R, N) = {expected}"
            )
        kappa = float(archive["kappa"]) if "kappa" in archive else None
        xi = archive["xi"] if "xi" in archive else None
        manifest = json.loads(str(archive["manifest"]))
    return FactorSet(factors=factors), kappa, xi, manifest
