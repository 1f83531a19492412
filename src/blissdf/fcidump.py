r"""FCIDUMP integral file ingestion and emission.

FCIDUMP files store chemists'-notation integrals (ij|kl) for the
normal-ordered Hamiltonian

    H = E_core + sum_ij t_ij a+_is a_js
        + 1/2 sum_ijkl (ij|kl) a+_is a+_kt a_lt a_js.

The loader converts to the excitation-ordered convention used throughout
this package:

    g_ijkl = (ij|kl) / 2,    h_ij = t_ij - 1/2 sum_k (ik|kj),

which reproduces the source operator identically on every particle-number
sector (an exact operator identity, verified by the dense oracle tests).
The integral convention is recorded as ``INTEGRAL_CONVENTION`` and echoed in
all run reports, since upstream integral files do not declare theirs.

Format accepted: a namelist header ``&FCI NORB=...,NELEC=...,MS2=...,``
that ends at the first ``&END`` or ``/`` (possibly spanning several lines;
NORB and NELEC set once each, other keys ignored, as is the rest of its last
line), followed by whitespace-separated records ``value i j k l`` with
1-based indices. ``i j 0 0`` is a one-body entry, ``0 0 0 0`` the core
constant, anything else a two-body entry. A line ends at ``\r\n``, ``\r``
or ``\n``, as in numpy's parser; the other breaks of str.splitlines(), such
as ``\x0c`` or U+2028, are whitespace. The writer emits only the canonical
representative of each 8-fold orbit.

The loader is an array pipeline with no Python object per record. It reads
the file once as bytes and decodes only the header. One pass of numpy's C
text parser over the bytes, or over a copy with ``D`` exponents translated
to ``E`` if the data have any, fills a value and four index columns, which
are reduced to an orbit key and a value each. One sort of the keys groups
the records. Each orbit's values, scaled by 2^-k with 2^k at least the
largest count so that no sum overflows, are added in file order and divided
by their count and by 2^-k: the bits of sum / count wherever the scaled
values and means stay above 2^-1022 in magnitude. The mean is written at
the two entries of g's P x P pair block (no N^4 tensor) that its key names.
The traced peak is under 4 times the file size. If the C parser rejects the
data (a non-ASCII byte or a bare ``\r``, say) or a mask flags a record,
each line is decoded and read by ``_check_record``, the one definition of
an error, which accepts what Python's ``float``/``int`` accept and raises
on the first bad line (_decode does on a byte that is not UTF-8). Orbit
conflicts come last: one-body first, each kind by first appearance.
"""

from __future__ import annotations

import io
import re
import warnings
from pathlib import Path

import numpy as np

from blissdf.hamiltonian import Hamiltonian, pair_space

INTEGRAL_CONVENTION = "fcidump-chemist-halved"

# Relative disagreement allowed between records of the same symmetry orbit;
# larger asymmetry is treated as corrupt input, smaller is averaged away.
ASYMMETRY_RTOL = 1e-10

_FLOAT_FORMAT = "%.17g"
_RECORD = np.dtype([("value", "f8"), ("i", "i8"), ("j", "i8"), ("k", "i8"), ("l", "i8")])
# bytes.splitlines()'s line breaks, the ones numpy's parser ends a line at.
_LINE_BREAK = re.compile(rb"\r\n|[\r\n]")
_EXPONENTS = bytes.maketrans(b"Dd", b"Ee")
# The namelist ends at its first terminator.
_TERMINATOR = re.compile(rb"&END|/", re.IGNORECASE)


class FcidumpError(ValueError):
    """Malformed FCIDUMP content; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _decode(raw: bytes, line: int) -> str:
    """``raw``, whose first line is ``line``, as UTF-8; an invalid byte raises FcidumpError at its line."""
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        line += len(_LINE_BREAK.findall(raw, 0, exc.start))
        raise FcidumpError(f"not UTF-8: {exc.reason} at byte {raw[exc.start]:#04x}", line=line) from None


def _parse_header(head: bytes, term: re.Match | None) -> tuple[int, int, int]:
    """(norb, nelec, lines) of the &FCI namelist: the lines ``head`` up to ``term``, the first terminator or None."""
    if not head:
        raise FcidumpError("empty file", line=1)
    start = re.match(rb"[^\S\r\n]*&FCI", head, flags=re.IGNORECASE)
    if start is None:
        raise FcidumpError("header must start with &FCI", line=1)
    lines = len(head.splitlines())
    if term is None:
        raise FcidumpError("header not terminated by &END or /", line=lines)
    header = _decode(head[start.end() : term.start()], 1)
    _decode(head[term.start() :], lines)  # the rest of the terminator's line is ignored, but must be UTF-8 too

    def read_int(key: str) -> int:
        found = re.findall(rf"(?<!\w){key}\s*=\s*([+-]?\d+)", header, flags=re.IGNORECASE)
        if len(found) != 1:
            problem = f"sets {key} {len(found)} times" if found else f"is missing {key}"
            raise FcidumpError(f"header {problem}", line=lines)
        return int(found[0])

    norb = read_int("NORB")
    nelec = read_int("NELEC")
    if norb < 1:
        raise FcidumpError(f"NORB={norb} must be positive", line=lines)
    if not 0 <= nelec <= 2 * norb:
        raise FcidumpError(f"NELEC={nelec} outside [0, {2 * norb}]", line=lines)
    return norb, nelec, lines


def _check_record(raw: str, n: int, norb: int) -> tuple[float, int, int, int, int]:
    """Read data line ``n`` by the reference rules; raise FcidumpError if it is bad."""
    tokens = raw.split()
    if len(tokens) != 5:
        raise FcidumpError(f"expected 'value i j k l', got {len(tokens)} fields", line=n)
    try:
        value = float(tokens[0].upper().replace("D", "E"))
    except ValueError:
        raise FcidumpError(f"unparseable value {tokens[0]!r}", line=n)
    if not np.isfinite(value):
        raise FcidumpError(f"non-finite value {tokens[0]!r}", line=n)
    try:
        i, j, k, l = (int(t) for t in tokens[1:])
    except ValueError:
        raise FcidumpError(f"unparseable orbital indices {tokens[1:]!r}", line=n)
    shown = (i, j) if k == l == 0 else (i, j, k, l)  # 0 0 0 0 is the core constant
    if any(shown) and not all(1 <= x <= norb for x in shown):
        kind = "one-body" if len(shown) == 2 else "two-body"
        raise FcidumpError(f"{kind} indices {shown} outside 1..{norb}", line=n)
    return value, i, j, k, l


def _data_lines(data: bytes, start: int, first: int):
    """(number, line) of the data section data[start:], whose first line is ``first``.

    Each line is decoded (_decode) as it is read, so invalid UTF-8 raises at its line.
    """
    return ((n, _decode(line, n)) for n, line in enumerate(data[start:].splitlines(), first))


def _parse_data(data: bytes, start: int, first: int, norb: int) -> np.ndarray:
    """Records of the data section data[start:], whose first line is ``first``."""
    # A translated copy of the file only if the data have a D exponent.
    stream = io.BytesIO(data.translate(_EXPONENTS) if any(data.find(c, start) >= 0 for c in b"Dd") else data)
    stream.seek(start)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy < 2 warns on an index "1.0"
            rec = np.loadtxt(stream, _RECORD, comments=None, ndmin=1, encoding="ascii")
    except (ValueError, Warning):  # a non-ASCII byte raises UnicodeDecodeError, a ValueError
        pass
    else:
        inside = [(rec[x] >= 1) & (rec[x] <= norb) for x in "ijkl"]
        zero = [rec[x] == 0 for x in "ijkl"]
        core_or_one = zero[2] & zero[3] & (zero[0] & zero[1] | inside[0] & inside[1])
        valid = core_or_one | np.all(inside, axis=0)
        if valid.all() and np.isfinite(rec["value"]).all():
            return rec
    finally:
        del stream  # and with it any translated copy of the file
    return np.array([_check_record(s, n, norb) for n, s in _data_lines(data, start, first) if s.split()], _RECORD)


def _exchange(v_pairs: np.ndarray, n: int) -> np.ndarray:
    """sum_k v_ikkj, in einsum("ikkj->ij")'s order, from the P x P pair block of an N-orbital v."""
    index = pair_space(n).unpack_index.reshape(n, n)
    return np.einsum("ikj->ij", v_pairs[index[:, :, None], index[None, :, :]])


def _excitation_order(t_mat: np.ndarray, v_pairs: np.ndarray) -> np.ndarray:
    """h of chemists' integrals (t, v), with v the P x P pair block, which is halved in place.

    Reordering a+a+aa -> a+a a+a moves the contraction term into the one-body
    matrix, h = t - 1/2 sum_k v_ikkj, and halves the two-body coefficient.
    """
    h = t_mat - 0.5 * _exchange(v_pairs, len(t_mat))
    v_pairs *= 0.5
    return h


def _read(data: bytes) -> tuple[np.ndarray, np.ndarray, float, int]:
    """(h, P x P pair block of g, core constant, NELEC) of an FCIDUMP's UTF-8 bytes."""
    # The header is every line up to the one that holds the first terminator.
    term = _TERMINATOR.search(data)
    brk = _LINE_BREAK.search(data, term.end()) if term else None
    head, start = (data[: brk.start()], brk.end()) if brk else (data, len(data))
    norb, nelec, first_data = _parse_header(head, term)
    rec = _parse_data(data, start, first_data + 1, norb)
    # Orbit key: the larger and smaller of the pair codes max(i, j) * base + min(i, j) of {i, j}, {k, l}.
    base = norb + 1
    ij, kl = (np.maximum(rec[p], rec[q]) * base + np.minimum(rec[p], rec[q]) for p, q in ("ij", "kl"))
    keys = np.maximum(ij, kl) * base**2 + np.minimum(ij, kl)
    values = rec["value"].copy()
    del rec, ij, kl  # the 40-byte records, reduced to their keys and values
    orbits, inverse = np.unique(keys, return_inverse=True)
    high, low = np.divmod(orbits, base**2)  # pair codes; low is 0 in one-body orbits, both in the core's
    del keys, orbits
    lo, hi = np.full(high.size, np.inf), np.full(high.size, -np.inf)
    np.minimum.at(lo, inverse, values)
    np.maximum.at(hi, inverse, values)
    scale = np.maximum(np.abs(lo), np.abs(hi))
    with np.errstate(over="ignore"):  # hi - lo overflows to inf only on opposite signs, still a conflict
        bad = (high > 0) & (scale > 0.0) & (hi - lo > ASYMMETRY_RTOL * scale)
    del lo, hi, scale
    if bad.any():
        rows = np.flatnonzero(bad[inverse])  # report the first in file order, one-body orbits first
        orbit = inverse[min(rows, key=lambda r: (low[inverse[r]] > 0, r))]
        rows = np.flatnonzero(inverse == orbit)
        lines = [n for n, s in _data_lines(data, start, first_data + 1) if s.split()]
        lines, found = [lines[r] for r in rows], values[rows].tolist()
        (a, b), (c, d) = (divmod(int(x[orbit]), base) for x in (high, low))
        kind, name = ("two-body", (a, b, c, d)) if c else ("one-body", (a, b))
        raise FcidumpError(
            f"conflicting {kind} entries for orbit {name}: values {min(found)!r} and "
            f"{max(found)!r} disagree beyond relative tolerance {ASYMMETRY_RTOL:g} "
            f"(lines {lines})", line=lines[-1])
    # bincount adds in file order; scaled by 2^-k, with 2^k above every count, no sum overflows.
    counts = np.bincount(inverse)
    scale = 0.5 ** int(counts.max(initial=0)).bit_length()
    means = np.bincount(inverse, weights=np.multiply(values, scale, out=values)) / counts / scale
    del values, inverse, bad, counts  # the per-record arrays, before the pair block
    core = means[0] if high.size and high[0] == 0 else 0.0
    space, pair = pair_space(norb), np.zeros(base**2, np.intp)  # pair[code]: the pair index of a pair code
    pair.reshape(base, base)[1:, 1:] = space.unpack_index.reshape(norb, norb)
    one, two = (low == 0) & (high > 0), low > 0
    t_pairs, v_pairs = np.zeros(space.mult.size), np.zeros((space.mult.size,) * 2)
    t_pairs[pair[high[one]]] = means[one]
    pq, rs = pair[high[two]], pair[low[two]]
    v_pairs[pq, rs] = v_pairs[rs, pq] = means[two]
    return _excitation_order(space.unpack(t_pairs), v_pairs), v_pairs, core, nelec


def load_integrals(path: str | Path) -> Hamiltonian:
    """Load an FCIDUMP file and convert to the excitation-ordered convention.

    Args:
        path: Location of the FCIDUMP text file.

    Returns:
        Hamiltonian with symmetrized h and g, the scalar integral as
        ``core_constant``, and ``n_electrons`` from the header NELEC.

    Raises:
        FcidumpError: On a malformed header (NORB or NELEC missing or set
            twice), a byte that is not UTF-8, non-numeric or non-finite values,
            indices outside 1..NORB, or orbit entries that disagree beyond
            the asymmetry tolerance. The message names the offending line.
        FileNotFoundError: If the file does not exist.
    """
    return Hamiltonian(*_read(Path(path).read_bytes()))


def write_integrals(path: str | Path, ham: Hamiltonian) -> None:
    """Write a Hamiltonian as an FCIDUMP file with MS2=0, inverting the load conversion.

    Only the canonical representative of each 8-fold orbit is emitted, and
    exact zeros are skipped. Values are printed with 17 significant digits so
    they parse back to the same double. If (ij|kl) = 2g or t overflows
    float64, it raises ValueError and writes nothing.
    """
    path = Path(path)
    n = ham.n_orbitals
    with np.errstate(over="ignore", invalid="ignore"):
        v_pairs = 2.0 * ham.g_pairs
        t_mat = ham.h + 0.5 * _exchange(v_pairs, n)
    if not (np.isfinite(v_pairs).all() and np.isfinite(t_mat).all()):
        raise ValueError("the FCIDUMP integrals (ij|kl) = 2g or t overflow float64")
    pairs = [(i, j) for i in range(n) for j in range(i + 1)]  # i >= j, in emission order
    order = pair_space(n).unpack_index[[i * n + j for i, j in pairs]]
    v_ordered = v_pairs[np.ix_(order, order)]  # rows and columns in emission order

    with path.open("w") as out:  # line by line: no list of the file's lines
        out.write(f" &FCI NORB={n},NELEC={ham.n_electrons},MS2=0,\n &END\n")
        for a, (i, j) in enumerate(pairs):  # (k, l) <= (i, j)
            row = zip(pairs[: a + 1], v_ordered[a].tolist())
            out.writelines(f"{_FLOAT_FORMAT % v} {i + 1} {j + 1} {k + 1} {l + 1}\n" for (k, l), v in row if v != 0.0)
        out.writelines(f"{_FLOAT_FORMAT % t_mat[i, j]} {i + 1} {j + 1} 0 0\n" for i, j in pairs if t_mat[i, j] != 0.0)
        out.write(f"{_FLOAT_FORMAT % ham.core_constant} 0 0 0 0\n")
