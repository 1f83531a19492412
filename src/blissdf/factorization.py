"""The factor format end to end: double factorization, lambda accounting and archives.

The two-body tensor g is first decomposed as a sum of Kronecker squares,

    g_ijkl ~ sum_r A_rij A_rkl,

by eigendecomposing its reshape over symmetric index pairs (exact at full
rank when the reshape is positive semidefinite). Because g is symmetric in
i <-> j and k <-> l, its N^2 x N^2 reshape vanishes on the antisymmetric
pairs, so at most P = N(N+1)/2 factors are nonzero: the effective rank M is
the number of pair-space eigenvalues above d_max * P * eps. A FactorSet and
its archive store these M factors packed, (M, P), with the requested count
R <= N^2: the other R - M are exact zeros. Each symmetric factor A_r has an
eigendecomposition A_r = sum_t lambda_rt u_rt u_rt^T, whose absolute
eigenvalue sum is the nuclear norm ||A_r||_*. The block-encoding scaling
constant assembled from these pieces is

    lambda = 1/2 * sum_r ||A_r||_*^2 + ||h'||_*,

with h' the effective one-body matrix. The nuclear norm is the provable
minimum of sum_t |lambda_t| over all rank-1 decompositions, so lambda needs
each factor's eigenvalues only, never the rank-1 terms themselves.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from blissdf._parallel import one_blas_thread, run_blocks
from blissdf.hamiltonian import (
    _as_int,
    _as_real,
    _frozen_array,
    _pair_orbitals,
    _symmetric_part,
    pair_space,
    two_body_block,
)

ARCHIVE_FORMAT = "blissdf-factors-v2"


class IndefiniteTensorError(ValueError):
    """The reshaped two-body tensor has significantly negative eigenvalues.

    Such a tensor is not representable as sum_r A_r (x) A_r over the reals,
    so the first factorization step cannot proceed. This indicates corrupt
    or unphysical integral data rather than numerical noise.
    """


@dataclass(frozen=True, eq=False, init=False)
class FactorSet:
    """R symmetric N x N factor matrices A_r, stored as the packed upper triangles of the nonzero ones.

    Attributes:
        packed: Read-only (M, P) rows, P = N(N+1)/2: row r is
            A_r[np.triu_indices(N)] (PairSpace.pack order); the other R - M
            factors are exact zeros.
        rank: R, from 0 (an empty factorization) up to N^2.

    ``FactorSet(packed, rank)``, the one way in, takes (M, P) rows that pass
    hamiltonian._as_real and an R that passes _as_int in [M, N^2], else
    ValueError. It cuts the rows after the last nonzero one (M = 0 or row
    M - 1 is nonzero), so zero padding gives the bits of its prefix. It keeps a
    read-only view of the rows, or a copy of the cut ones; the caller's
    array stays writable and must not change.
    ``factors``, ``__iter__`` and ``__len__``, the dense views that stay for
    the benchmark, unpack the zero-padded (R, N, N) stack afresh on each
    access, N^4 at R = N^2: keep them out of loops.
    """

    packed: np.ndarray
    rank: int

    def __init__(self, packed: np.ndarray, rank: int):
        packed = _as_real("packed", packed, np.shape(packed))
        n = _pair_orbitals(packed.shape[1]) if packed.ndim == 2 else -1
        if n < 0:
            raise ValueError(f"packed must be (M, N(N+1)/2) rows A_r[np.triu_indices(N)], got shape {packed.shape}")
        rank = _as_int("rank", rank, len(packed), n * n)
        stop = np.flatnonzero(packed.any(axis=1)).max(initial=-1) + 1  # the one prefix rule
        packed = packed.view() if stop == len(packed) else packed[:stop].copy()  # no zero rows stay allocated
        object.__setattr__(self, "packed", _frozen_array(packed))
        object.__setattr__(self, "rank", rank)

    @property
    def factors(self) -> np.ndarray:
        """The (R, N, N) factor matrices, zero-padded, unpacked into a fresh read-only array."""
        n = self.n_orbitals
        factors = np.zeros((self.rank, n, n))
        factors[: self.effective_rank] = pair_space(n).unpack(self.packed)
        return _frozen_array(factors)

    @property
    def n_orbitals(self) -> int:
        return _pair_orbitals(self.packed.shape[1])

    @property
    def effective_rank(self) -> int:
        """M, the number of stored factors; the others are exact zeros."""
        return len(self.packed)

    def __iter__(self):
        return iter(self.factors)

    def __len__(self) -> int:
        return self.rank


def _checked(factor_set: FactorSet, n: int | None = None) -> FactorSet:
    """``factor_set``; TypeError for anything but a FactorSet, ValueError for one not of N = ``n`` if given."""
    if not isinstance(factor_set, FactorSet):
        name = type(factor_set).__name__
        raise TypeError(f"expected a FactorSet, got {name}: use FactorSet(packed, rank), rows A_r[np.triu_indices(N)]")
    if n is not None and factor_set.n_orbitals != n:
        raise ValueError(f"factors are of dimension N={factor_set.n_orbitals}, not N={n}")
    return factor_set


@one_blas_thread()
def reconstruct_two_body(factor_set: FactorSet) -> np.ndarray:
    """Assemble sum_r A_r (x) A_r of a FactorSet as a dense N^4 tensor.

    Returns the tensor with entries sum_r A[r,i,j] * A[r,k,l], unpacked from
    the pair-space Gram matrix F^T F of the packed factors F; R may be zero.
    Anything but a FactorSet raises TypeError. A dense view, public for the
    benchmark; nothing in the package forms it.
    """
    factor_set = _checked(factor_set)
    return pair_space(factor_set.n_orbitals).tensor(factor_set.packed.T @ factor_set.packed)


@one_blas_thread()
def frobenius_error(g_target: np.ndarray, factor_set: FactorSet) -> float:
    """Squared Frobenius residual between a tensor and its factorization.

    Returns sum_ijkl (g_target - sum_r A_r (x) A_r)^2, the squared norm, not
    its square root, for an N^4 ``g_target`` or its pair block (two_body_block)
    and a FactorSet, in pair space. Anything but a FactorSet raises TypeError,
    and a g_target that hamiltonian._as_real refuses or of another N, ValueError.
    """
    g_pairs = two_body_block(g_target, "g_target")
    n = _checked(factor_set, _pair_orbitals(len(g_pairs))).n_orbitals
    return pair_space(n).residual(g_pairs, factor_set.packed)[0]


@dataclass(frozen=True)
class LambdaBreakdown:
    """The block-encoding scaling constant and its additive parts.

    lambda_total = two_body_part + one_body_part, where two_body_part is
    1/2 * sum_r Lambda_r^2 and one_body_part is the nuclear norm of the
    effective one-body matrix. per_factor holds Lambda_r = ||A_r||_* of the
    M stored factors, up to the last nonzero one; the other R - M factors
    are exact zeros with Lambda_r = 0.
    """

    lambda_total: float
    two_body_part: float
    one_body_part: float
    per_factor: np.ndarray = field(repr=False)

    def __post_init__(self):  # a read-only copy: the caller's array stays its own
        object.__setattr__(self, "per_factor", _frozen_array(np.array(self.per_factor)))

    @classmethod
    def from_norms(cls, factor_norms: np.ndarray, one_body: float) -> "LambdaBreakdown":
        """The breakdown of factors with nuclear norms ``factor_norms`` and ||h'||_* = ``one_body``.

        per_factor is a read-only copy of ``factor_norms``.
        """
        return cls(*lambda_parts(factor_norms, one_body), factor_norms)


def lambda_parts(factor_norms: np.ndarray, one_body: float) -> tuple[float, float, float]:
    """(lambda, 1/2 * sum_r Lambda_r^2, ||h'||_*) from the factors' nuclear norms and ||h'||_*."""
    two_body, one_body = 0.5 * float(np.add.reduce(np.square(factor_norms))), float(one_body)
    return two_body + one_body, two_body, one_body


def eigenvalue_norms(eigvals: np.ndarray) -> np.ndarray:
    """Nuclear norms sum_t |d_t| of symmetric matrices from their eigenvalues (..., N)."""
    return np.add.reduce(np.abs(eigvals), axis=-1)


def _leading_signs(rows: np.ndarray) -> np.ndarray:
    """Per row of a (K, L) array, the +-1 that makes its first nonzero entry positive."""
    if not rows.size:  # argmax has no answer over empty rows
        return np.ones(len(rows))
    lead = rows[np.arange(len(rows)), np.argmax(rows != 0.0, axis=1)]
    return np.where(lead < 0.0, -1.0, 1.0)


@one_blas_thread()
def nuclear_norms(mats: np.ndarray) -> np.ndarray:
    """Nuclear norms of symmetric matrices (..., N, N) from eigh over fixed blocks.

    BLAS runs at one thread, and run_blocks spreads one batched eigh per
    block over the CPUs; each block holds its eigenvectors only while it
    runs. eigh rather than eigvalsh: a matrix's eigenpairs do not depend on
    its block, so these norms match the optimizer's eigh stack bit for bit.
    """
    n, count = mats.shape[-1], math.prod(mats.shape[:-2])  # reshape cannot infer a count at N = 0
    eigvals = np.empty(mats.shape[:-1])
    flat, vals = mats.reshape(count, n, n), eigvals.reshape(count, n)

    def block(part):
        vals[part] = np.linalg.eigh(flat[part])[0]

    run_blocks(block, len(flat))
    return eigenvalue_norms(eigvals)


def nuclear_norm(a: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a symmetric matrix.

    For symmetric matrices this equals the singular-value sum, and it is the
    minimum of sum_t |lambda_t| over all decompositions into rank-1 terms
    with unit vectors; 0.0 for a 0 x 0 matrix. ValueError unless
    hamiltonian._as_real accepts ``a`` as a square matrix.
    """
    return float(nuclear_norms(_symmetric_part(_as_real("a", a, (None, None)))))


@one_blas_thread()
def initial_double_factorization(g: np.ndarray, rank: int) -> FactorSet:
    """Factor the two-body tensor into Kronecker squares of symmetric matrices.

    Eigendecomposes the P x P pair-space matrix G_(ij),(kl) =
    g_ijkl * w_ij * w_kl over the pairs i <= j (P = N(N+1)/2, w = sqrt(2)
    off the diagonal and 1 on it), the symmetric block of the N^2 x N^2
    reshape; the antisymmetric block is exactly zero and is never formed.
    Each eigenvector v unpacks to A_ij = A_ji = v_(ij) / w_ij, and the
    factors are A_r = sqrt(d_r) * A for the ``rank`` largest eigenvalues d_r.
    Every factor whose eigenvalue is at most d_max * P * eps (the
    ``matrix_rank`` tolerance) is an exact 0.0, so the result stores the M
    nonzero factors (M = effective rank, at most P) as its packed rows.
    With rank >= M and a positive semidefinite reshape the reconstruction is
    exact; truncation keeps the dominant factors and the residual error is
    non-increasing in ``rank``.

    Args:
        g: Two-body tensor (N, N, N, N) or its pair block (see two_body_block).
        rank: Number of factors R to keep, an integer 1 <= R <= N^2.

    Returns:
        FactorSet of R symmetric matrices ordered by descending eigenvalue.

    Raises:
        IndefiniteTensorError: If the reshape has an eigenvalue below
            -1e-8 * max(d); such a g has no real factorization of this form.
        ValueError: Before any eigh, if hamiltonian._as_real refuses g or
            _as_int refuses rank in [1, N^2].
    """
    big = two_body_block(g)
    n = _pair_orbitals(big.shape[0])
    rank = _as_int("rank", rank, 1, n * n)

    weights = np.sqrt(pair_space(n).mult)
    big *= np.outer(weights, weights)  # stays exactly symmetric
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
    return FactorSet(packed, rank)


def lambda_df(factor_set: FactorSet, h_prime: np.ndarray) -> LambdaBreakdown:
    """Assemble the block-encoding scaling constant from its two sources.

    Args:
        factor_set: Factors of the (shifted) two-body tensor.
        h_prime: Effective one-body matrix of the (shifted) Hamiltonian.

    Returns:
        LambdaBreakdown with lambda_total = 1/2 * sum_r Lambda_r^2 +
        ||h_prime||_*, where Lambda_r = ||A_r||_*. per_factor lists the M
        factors up to the last nonzero one; the R - M zero factors have
        Lambda_r = 0 and stay out of it and of the sum.

    Raises:
        TypeError: If factor_set is not a FactorSet.
        ValueError: Unless hamiltonian._as_real accepts h_prime as (N, N).
    """
    n = _checked(factor_set).n_orbitals
    h_prime = _symmetric_part(_as_real("h_prime", h_prime, (n, n)))
    return LambdaBreakdown.from_norms(nuclear_norms(pair_space(n).unpack(factor_set.packed)), nuclear_norms(h_prime))


def save_factor_set(
    path: str | Path,
    factor_set: FactorSet,
    manifest: dict | None = None,
    kappa: float | None = None,
    xi: np.ndarray | None = None,
) -> None:
    """Serialize a FactorSet (and optionally its shift) to a blissdf-factors-v2 npz archive.

    Its members are ``format``, ``n_orbitals``, ``rank``, ``factors`` (the
    (M, P) FactorSet.packed rows), ``manifest`` and, if given, ``kappa`` and
    ``xi``. The archive is a standard npz written with fixed zip header
    timestamps, so identical content produces identical bytes and the
    float64 payload round-trips exactly. ``manifest`` may carry provenance
    such as the source-file checksum.

    Raises, before the file is opened:
        TypeError: If factor_set is not a FactorSet.
        ValueError: If hamiltonian._as_real refuses kappa as shape () or xi
            as (N, N), as load_factor_set does.
    """
    n = _checked(factor_set).n_orbitals
    payload = {
        "format": np.array(ARCHIVE_FORMAT),
        "n_orbitals": np.array(n, dtype=np.int64),
        "rank": np.array(factor_set.rank, dtype=np.int64),
        "factors": factor_set.packed,
        "manifest": np.array(json.dumps(manifest or {}, sort_keys=True)),
    }
    for name, value, shape in (("kappa", kappa, ()), ("xi", xi, (n, n))):
        if value is not None:
            payload[name] = _as_real(f"{path}: {name}", value, shape)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for name, arr in payload.items():
            arr = np.asarray(arr, order="C")
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            # write_array's header, then the array's own buffer: write_array copies the
            # data through tobytes() into a zip member. The zip64 rule is writestr's.
            with archive.open(info, "w", force_zip64=arr.nbytes * 1.05 > zipfile.ZIP64_LIMIT) as member:
                np.lib.format.write_array_header_1_0(member, np.lib.format.header_data_from_array_1_0(arr))
                member.write(arr.reshape(-1).view(np.uint8))


def load_factor_set(
    path: str | Path,
) -> tuple[FactorSet, float | None, np.ndarray | None, dict]:
    """Load a blissdf-factors-v2 archive written by save_factor_set.

    Returns:
        Tuple (factor_set, kappa, xi, manifest); kappa and xi are None when
        the archive holds a plain factorization without a symmetry shift.

    Raises:
        ValueError: If the archive format tag is missing or is not
            blissdf-factors-v2 (the v1 archives of schema_version 4 and below
            included), a member other than kappa and xi is missing, _as_int
            refuses n_orbitals in [0, inf) or rank in [M, N^2], _as_real
            refuses factors as M rows of N(N+1)/2 entries, kappa of shape ()
            or xi of shape (N, N), or json.loads refuses the manifest. Each
            message names the file and the member.
    """
    # np.load leaves a file it opened itself open when the zip is corrupt.
    with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as archive:
        tag = str(archive["format"]) if "format" in archive else None
        if tag != ARCHIVE_FORMAT:
            raise ValueError(f"{path}: not a {ARCHIVE_FORMAT} archive")
        missing = [name for name in ("n_orbitals", "rank", "factors", "manifest") if name not in archive]
        if missing:
            raise ValueError(f"{path}: archive has no {', '.join(missing)} member")
        n = _as_int(f"{path}: n_orbitals member", archive["n_orbitals"][()], 0)
        packed = _as_real(f"{path}: factors member", archive["factors"], (None, n * (n + 1) // 2))
        m = len(packed)
        rank = _as_int(f"{path}: rank member, for a factors member of {m} rows,", archive["rank"][()], m, n * n)
        factor_set = FactorSet(packed, rank)
        kappa, xi = (
            _as_real(f"{path}: {name} member", archive[name], shape) if name in archive else None
            for name, shape in (("kappa", ()), ("xi", (n, n)))
        )
        kappa = None if kappa is None else float(kappa)
        try:
            manifest = json.loads(str(archive["manifest"]))
        except ValueError as exc:
            raise ValueError(f"{path}: manifest member is not valid JSON ({exc})") from exc
    return factor_set, kappa, xi, manifest
