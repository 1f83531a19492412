"""Electronic Hamiltonian data model, symmetry-shift algebra and pair space.

The Hamiltonian is stored in the "excitation-ordered" convention

    H = c + sum_ij h_ij E_ij + sum_ijkl g_ijkl E_ij E_kl,

where E_ij = sum_sigma a+_{i sigma} a_{j sigma} are spin-summed orbital
excitation operators, h is real symmetric and g carries the standard 8-fold
index symmetry. All energies are in Hartree.

As g_ijkl is symmetric in i <-> j and in k <-> l, the kernels work in pair
space, whose one owner is PairSpace: the P = N(N+1)/2 pairs i <= j, with
multiplicity c = 1 if i = j, else 2. A symmetric matrix packs to its P upper
entries, g to its P x P block, the one two-body array a Hamiltonian stores,
and an 8-fold-symmetric D has squared norm sum_pq c_p c_q D_pq^2. The
factors of g are factorization's.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys

import numpy as np

_CHUNK = 32  # rows per pass of a chunked average, whose temporaries stay small beside its output


def _average(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0.5 * a + 0.5 * b, into ``out`` if given: the one rule for every symmetric part.

    Halving first keeps the average of two finite floats finite. It gives the
    bits of 0.5 * (a + b) wherever that is finite, except that a result below
    2^-1021 in magnitude may move by one unit in the last place.
    """
    out = np.multiply(a, 0.5, out=out)
    out += np.multiply(b, 0.5, order="C")  # for a transposed b, faster than b's own order
    return out


def symmetrize_one_body(mat: np.ndarray) -> np.ndarray:
    """Return the symmetric part 0.5 * mat + 0.5 * mat.T of a square ``mat`` (_as_real) as a fresh float64 array.

    Every finite input stays finite (see _average); an exactly symmetric one
    keeps its bits, except that an entry below 2^-1021 in magnitude may move
    by one unit in the last place.
    """
    return _symmetric_part(_as_real("mat", mat, (None, None)))


def _symmetric_part(mat: np.ndarray) -> np.ndarray:
    """symmetrize_one_body of a square float64 ``mat`` already read, by chunks of rows."""
    out = np.empty(mat.shape)
    for start in range(0, len(mat), _CHUNK):
        rows = slice(start, start + _CHUNK)
        _average(mat[rows], mat[:, rows].T, out[rows])
    return out


def _pair_orbitals(pairs: int) -> int:
    """N such that N(N+1)/2 == pairs, or -1 if there is none."""
    n = (math.isqrt(8 * pairs + 1) - 1) // 2
    return n if n * (n + 1) // 2 == pairs else -1


def two_body_block(g: np.ndarray, name: str = "g") -> np.ndarray:
    """The P x P pair block g_(ij),(kl), i <= j and k <= l, as a fresh, exactly symmetric array.

    The one reader of both two-body forms: ``g`` is an (N, N, N, N) tensor,
    projected onto its 8-fold symmetric part by three averages (_average),
    over i <-> j, then k <-> l, then the pairs, or a (P, P) block with
    P = N(N+1)/2, averaged with its transpose (symmetrize_one_body); either
    way with the bits rule of _average. It is read by _as_real as ``name``;
    any other shape raises ValueError.
    """
    g = _as_real(name, g, np.shape(g))
    if g.ndim == 4 and len(set(g.shape)) == 1:
        space = pair_space(g.shape[0])
        flat, upper, lower = g.reshape(space.n**2, space.n**2), space.upper, space.lower
        # The i <-> j average on a chunk of pair rows, then the k <-> l one on its pair
        # columns: the bits of averaging the whole tensor, with no temporary above a chunk.
        block = np.empty((len(upper), len(upper)))
        for start in range(0, len(upper), _CHUNK):
            pairs = slice(start, start + _CHUNK)
            half = flat[upper[pairs]]
            _average(half, flat[lower[pairs]], half)
            _average(half[:, upper], half[:, lower], block[pairs])
        return _symmetric_part(block)
    if g.ndim == 2 and g.shape[0] == g.shape[1] and _pair_orbitals(g.shape[0]) >= 0:
        return _symmetric_part(g)
    raise ValueError(f"{name} must be an N^4 tensor or a P x P pair block, got shape {g.shape}")


def _frozen_array(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _as_int(name: str, value, lo: int, hi: int | None = None, error: type[ValueError] = ValueError) -> int:
    """``value`` by the one integer rule, else ``error`` naming ``name``.

    A Python or numpy integer, not a bool, in [lo, hi] (hi None: no upper
    end), returned as an int; out of range, "rank must be in [1, 4], got 0".
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < lo or (hi is not None and value > hi):
        raise error(f"{name} must be in [{lo}, {'inf)' if hi is None else f'{hi}]'}, got {value}")
    return value


def _as_real(name: str, value, shape: tuple | None = None, error: type[ValueError] = ValueError):
    """``value`` by the one rule for real arguments, else ``error`` naming ``name`` and what failed.

    Without ``shape``, a Python or numpy int or float, not a bool, finite as
    a float64, returned as a Python number. With it, an array of a float or
    integer dtype and that shape, where every None stands for one shared
    length n ((None, None): a square matrix), with finite entries, returned
    as float64, copied only to cast.
    """
    if shape is None:
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise error(f"{name} must be a number, got {value!r}")
        # A Python number: it stays JSON, and abs() below cannot overflow in numpy.
        value = int(value) if isinstance(value, (int, np.integer)) else float(value)
        if not abs(value) <= sys.float_info.max:
            raise error(f"{name} must be finite, got {value!r}")
        return value
    wanted = str(shape).replace("None", "n")
    value, rule = np.asarray(value), f"{name} must be a finite real array of shape {wanted}, got"
    n = next((got for want, got in zip(shape, value.shape) if want is None), None)  # the one shared length
    fits = value.ndim == len(shape) and value.shape == tuple(n if want is None else want for want in shape)
    if not fits or value.dtype.kind not in "fiu":
        raise error(f"{rule} {value.dtype} of shape {value.shape}")
    value = value.astype(np.float64, copy=False)
    if not np.isfinite(value).all():
        raise error(f"{rule} a non-finite entry")
    return value


@dataclasses.dataclass(frozen=True, eq=False, init=False)
class Hamiltonian:
    """Electronic Hamiltonian in the excitation-ordered convention.

    Attributes:
        h: Real symmetric N x N one-body coefficient matrix (Hartree).
        g_pairs: The P x P pair block of the 8-fold symmetric two-body
            tensor (Hartree); ``g`` unpacks the N^4 tensor on each access.
        core_constant: Scalar term (Hartree).
        n_electrons: Electron count of the physical sector, 0 <= n_e <= 2N.

    The constructor takes ``g`` as an N^4 tensor or as its pair block (see
    two_body_block), projects ``h`` and ``g`` onto their symmetric parts by the
    bits rule of symmetrize_one_body, and freezes the arrays; instances are
    immutable and safe to share across threads. It reads each argument once
    and raises ValueError naming it if _as_real refuses h as N x N, g or
    core_constant, or _as_int refuses n_electrons in [0, 2N].
    """

    h: np.ndarray
    g_pairs: np.ndarray
    core_constant: float = 0.0
    n_electrons: int = 0

    def __init__(self, h: np.ndarray, g: np.ndarray, core_constant: float = 0.0, n_electrons: int = 0):
        g_pairs = two_body_block(g)
        n = _pair_orbitals(len(g_pairs))
        h = _symmetric_part(_as_real("h", h, (n, n)))
        core_constant = float(_as_real("core_constant", core_constant))
        n_e = _as_int("n_electrons", n_electrons, 0, 2 * n)
        object.__setattr__(self, "h", _frozen_array(h))
        object.__setattr__(self, "g_pairs", _frozen_array(g_pairs))
        object.__setattr__(self, "core_constant", core_constant)
        object.__setattr__(self, "n_electrons", n_e)

    @property
    def n_orbitals(self) -> int:
        return self.h.shape[0]

    @property
    def g(self) -> np.ndarray:
        """The dense (N, N, N, N) two-body tensor, unpacked from g_pairs into a fresh frozen array."""
        return _frozen_array(pair_space(self.n_orbitals).tensor(self.g_pairs))


@dataclasses.dataclass(frozen=True, eq=False)
class ShiftParams:
    """Parameters (kappa, xi, n_e) of a block-invariant symmetry shift.

    The shift adds (sum_ij xi_ij E_ij + kappa)(N_e - n_e) to the Hamiltonian,
    which annihilates every state with exactly ``n_e`` electrons. ``xi`` is
    symmetrized on construction. Raises ValueError naming the argument if
    _as_real refuses kappa or xi as a square matrix, or _as_int refuses n_e
    in [0, inf).
    """

    kappa: float
    xi: np.ndarray
    n_e: int

    def __post_init__(self):
        xi, kappa = _symmetric_part(_as_real("xi", self.xi, (None, None))), _as_real("kappa", self.kappa)
        n_e = _as_int("n_e", self.n_e, 0)
        object.__setattr__(self, "kappa", float(kappa))
        object.__setattr__(self, "xi", _frozen_array(xi))
        object.__setattr__(self, "n_e", n_e)

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
        ValueError: If the shift dimension does not match the Hamiltonian,
            or the shifted h, pair block or core constant leaves the float64
            range; no overflow warning is raised.
    """
    n = ham.n_orbitals
    if shift.xi.shape[0] != n:
        raise ValueError(f"shift is {shift.xi.shape[0]} orbitals but Hamiltonian is {n}")
    space = pair_space(n)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below, as the shift's
        h = ham.h - shift.n_e * shift.xi + shift.kappa * np.eye(n)
        g = space.shifted(ham.g_pairs, space.pack(shift.xi))
    core_constant = ham.core_constant - shift.kappa * shift.n_e
    try:  # every argument is valid but for finiteness, which Hamiltonian checks in its one read
        return Hamiltonian(h=h, g=g, core_constant=core_constant, n_electrons=ham.n_electrons)
    except ValueError as exc:
        raise ValueError(f"shift (kappa={shift.kappa!r}, n_e={shift.n_e}) overflows h, g or the core constant") from exc


def effective_one_body(ham: Hamiltonian) -> np.ndarray:
    """Return the effective one-body matrix h'_ij = h_ij + 2 sum_k g_ijkk.

    This is the one-body matrix whose nuclear norm enters the block-encoding
    scaling constant after the two-body trace terms are folded in.
    """
    space = pair_space(ham.n_orbitals)
    return ham.h + 2.0 * space.unpack(space.diagonal_sum(ham.g_pairs))


class PairSpace:
    """The pair layout's index maps, its one pack and unpack, and the shift's adjoint diagonal_sum; see pair_space.

    The P = N(N+1)/2 pairs i <= j are numbered in np.triu_indices order.
    ``upper`` holds each pair's flat position i * N + j, ``lower`` its
    transposed one j * N + i, ``pair_index`` the (N, N) pair numbers of all
    entries, ``diagonal`` the pairs (k, k), and ``mult`` the multiplicities c.
    """

    def __init__(self, n: int):
        rows, cols = np.triu_indices(n)
        index = np.empty((n, n), dtype=np.intp)
        index[rows, cols] = index[cols, rows] = np.arange(rows.size)
        self.n, self.upper, self.lower, self.pair_index = n, rows * n + cols, cols * n + rows, index
        self.diagonal, self.mult = np.diagonal(index), np.where(rows == cols, 1.0, 2.0)
        for shared in (self.upper, self.lower, self.pair_index, self.mult):  # one instance per N
            shared.setflags(write=False)

    def pack(self, mats: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Upper triangles (..., P) of symmetric matrices (..., N, N), into ``out`` if given."""
        flat = mats.reshape(mats.shape[:-2] + (self.n**2,))
        return flat.take(self.upper, axis=-1, out=out, mode="clip")  # clip: no buffered copy of out

    def unpack(self, packed: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Symmetric matrices (..., N, N) from upper triangles (..., P), into ``out`` if given."""
        return packed.take(self.pair_index, axis=-1, out=out, mode="clip")

    def tensor(self, block: np.ndarray) -> np.ndarray:
        """The (N, N, N, N) tensor of a P x P pair block, as a fresh array."""
        return block[self.pair_index[:, :, None, None], self.pair_index]

    def shifted(self, g_pairs: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """A copy of the pair block ``g_pairs`` plus (xi_ij delta_kl + delta_ij xi_kl) / 2, for xi packed (pack)."""
        shifted, half = g_pairs.copy(), 0.5 * xi
        shifted[:, self.diagonal] += half[:, None]
        shifted[self.diagonal, :] += half
        return shifted

    def diagonal_sum(self, block: np.ndarray) -> np.ndarray:
        """The packed sum_k block[:, (k, k)] of a P x P pair block: the adjoint of shifted's term."""
        return block[:, self.diagonal].sum(axis=1)

    def residual(self, target: np.ndarray, packed_factors: np.ndarray) -> tuple[float, np.ndarray]:
        """Err = sum_pq c_p c_q D_pq^2 and D = target - F^T F, written over ``target``.

        F is the (M, P) stack of packed factors.
        """
        gram = packed_factors.T @ packed_factors
        target -= gram
        return float(self.mult @ np.multiply(target, target, out=gram) @ self.mult), target


pair_space = functools.lru_cache(maxsize=8)(PairSpace)

