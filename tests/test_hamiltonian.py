import math
import re
import tracemalloc
import warnings
from collections import Counter
from functools import partial

import numpy as np
import pytest

from blissdf import (
    ConfigError,
    FactorSet,
    Hamiltonian,
    OptimizationConfig,
    ShiftParams,
    apply_symmetry_shift,
    effective_one_body,
    frobenius_error,
    gradient,
    lambda_df,
    load_factor_set,
    load_integrals,
    nuclear_norm,
    reconstruct_two_body,
    save_factor_set,
    total_cost,
    write_integrals,
)
from blissdf import factorization, fermi_oracle, hamiltonian, optimizer
from blissdf.factorization import initial_double_factorization
from blissdf.fermi_oracle import (
    b_operator,
    ladder_operator,
    sector_eigenvalues,
    sector_one_body,
    sector_states,
    verify_one_body_identity,
)
from blissdf.hamiltonian import pair_space, symmetrize_one_body, two_body_block
from blissdf.optimizer import _pack
from blissdf.verify import chain_hamiltonian

from conftest import packed_factors, random_hamiltonian, random_psd_two_body


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


class TestSymmetrization:
    def test_two_body_symmetrization_is_exact(self):
        rng = np.random.default_rng(0)
        g = Hamiltonian(np.zeros((4, 4)), rng.standard_normal((4, 4, 4, 4))).g
        for axes in [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1),
                     (1, 0, 3, 2), (3, 2, 1, 0), (2, 3, 1, 0), (3, 2, 0, 1)]:
            assert np.array_equal(g, g.transpose(axes))

    def test_symmetric_input_unchanged(self):
        rng = np.random.default_rng(1)
        ham = Hamiltonian(np.zeros((3, 3)), rng.standard_normal((3, 3, 3, 3)))
        assert two_body_block(ham.g).tobytes() == ham.g_pairs.tobytes()
        # Halving before the sum gives x back for x = 1e308, 1e-300 and -0.0:
        # only entries below 2^-1021 in magnitude may move, by one unit.
        space = pair_space(3)
        h = symmetrize_one_body(rng.standard_normal((3, 3)))
        h[0, 0], h[0, 1], h[1, 0], h[1, 2], h[2, 1] = 1e308, 1e-300, 1e-300, -0.0, -0.0
        block = symmetrize_one_body(rng.standard_normal((6, 6)))
        block[0, 0], block[1, 4], block[4, 1], block[2, 3], block[3, 2] = 1e308, 1e-300, 1e-300, -0.0, -0.0
        g = block[np.ix_(space.unpack_index, space.unpack_index)].reshape(3, 3, 3, 3)
        assert symmetrize_one_body(h).tobytes() == h.tobytes()
        assert ShiftParams(kappa=0.0, xi=h, n_e=1).xi.tobytes() == h.tobytes()
        assert two_body_block(block).tobytes() == two_body_block(g).tobytes() == block.tobytes()

    def test_check_two_body_symmetry_raises(self):
        g = np.zeros((2, 2, 2, 2))
        g[0, 1, 0, 0] = 1.0
        with pytest.raises(ValueError, match="8-fold"):
            check_two_body_symmetry(g)

    def test_one_body_rejects_rectangular(self):
        with pytest.raises(ValueError, match=r"^mat must be .* of shape \(n, n\), got float64 of shape \(2, 3\)$"):
            symmetrize_one_body(np.zeros((2, 3)))


class TestHamiltonian:
    def test_construction_symmetrizes_and_freezes(self):
        rng = np.random.default_rng(2)
        ham = Hamiltonian(
            h=rng.standard_normal((3, 3)),
            g=rng.standard_normal((3, 3, 3, 3)),
            n_electrons=2,
        )
        assert np.array_equal(ham.h, ham.h.T)
        check_two_body_symmetry(ham.g)
        with pytest.raises(ValueError):
            ham.h[0, 0] = 1.0
        assert ham.n_orbitals == 3

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"^h must be .* of shape \(3, 3\), got float64 of shape \(2, 2\)$"):
            Hamiltonian(h=np.zeros((2, 2)), g=np.zeros((3, 3, 3, 3)))

    def test_rejects_nonfinite(self):
        h = np.zeros((2, 2))
        h[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Hamiltonian(h=h, g=np.zeros((2, 2, 2, 2)))

    def test_rejects_bad_electron_count(self):
        with pytest.raises(ValueError, match="n_electrons"):
            Hamiltonian(h=np.zeros((2, 2)), g=np.zeros((2, 2, 2, 2)), n_electrons=5)

    def test_electron_count_must_be_an_integer(self):
        # 2.7 must not be stored as 2; numpy integers are counts too.
        for value in (2.7, 2.0, "2", True, None):
            with pytest.raises(ValueError, match=re.escape(f"n_electrons must be an integer, got {value!r}")):
                Hamiltonian(h=np.zeros((2, 2)), g=np.zeros((2, 2, 2, 2)), n_electrons=value)
        for value in (3, np.int64(3), np.uint8(3)):
            ham = Hamiltonian(h=np.zeros((2, 2)), g=np.zeros((2, 2, 2, 2)), n_electrons=value)
            assert type(ham.n_electrons) is int and ham.n_electrons == 3

    def test_symmetric_input_is_copied_not_aliased(self):
        rng = np.random.default_rng(3)
        g = random_psd_two_body(3, rng)
        check_two_body_symmetry(g)
        ham = Hamiltonian(h=np.eye(3), g=g)
        assert ham.g.tobytes() == g.tobytes()
        assert not np.shares_memory(ham.g, g)
        assert g.flags.writeable
        g[0, 0, 0, 0] = 7.0
        assert ham.g[0, 0, 0, 0] != 7.0

    def test_mirrored_signed_zeros_are_averaged(self):
        # 0.0 == -0.0, but the bits differ: such a g takes the averaging
        # path, which stores +0.0 at both entries.
        g = np.zeros((2, 2, 2, 2))
        g[0, 1, 0, 0] = -0.0
        ham = Hamiltonian(h=np.zeros((2, 2)), g=g)
        assert not np.signbit(ham.g).any()

    def test_huge_symmetric_entry_is_kept(self):
        # 0.5 * (x + x) overflows to inf above DBL_MAX / 2; the average
        # 0.5 * x + 0.5 * x halves first and gives back x.
        g = np.zeros((1, 1, 1, 1))
        g[0, 0, 0, 0] = 1.5e308
        assert Hamiltonian(h=np.zeros((1, 1)), g=g).g[0, 0, 0, 0] == 1.5e308

    def test_huge_symmetric_one_body_entry_is_kept(self):
        # The same rule holds for h: 0.5 * (x + x) at 1e308 would overflow
        # to inf, and the Hamiltonian would then reject h as non-finite.
        h = np.array([[1e308, 0.0], [0.0, 1.0]])
        ham = Hamiltonian(h=h, g=np.zeros((2, 2, 2, 2)))
        assert ham.h.tobytes() == h.tobytes()
        assert not np.shares_memory(ham.h, h)

    def test_huge_mirrored_pair_is_averaged(self):
        # 1.5e308 + 1.6e308 overflows, but their average 1.55e308 is finite:
        # h, an N^4 g, a pair block and xi each store it at both entries.
        pair = np.array([[0.0, 1.5e308], [1.6e308, 0.0]])
        want = np.array([[0.0, 1.55e308], [1.55e308, 0.0]])
        assert Hamiltonian(h=pair, g=np.zeros((2, 2, 2, 2))).h.tobytes() == want.tobytes()
        g = np.zeros((2, 2, 2, 2))
        g[0, 1, 0, 0], g[1, 0, 0, 0] = g[0, 0, 0, 1], g[0, 0, 1, 0] = 1.5e308, 1.6e308
        stored = Hamiltonian(h=np.zeros((2, 2)), g=g).g
        assert stored[0, 1, 0, 0] == stored[1, 0, 0, 0] == stored[0, 0, 1, 0] == 1.55e308
        block = np.zeros((3, 3))
        block[0, 1], block[1, 0] = 1.5e308, 1.6e308
        assert Hamiltonian(h=np.zeros((2, 2)), g=block).g_pairs[:2, :2].tobytes() == want.tobytes()
        assert ShiftParams(kappa=0.0, xi=pair, n_e=1).xi.tobytes() == want.tobytes()


def _ham() -> Hamiltonian:
    return random_hamiltonian(2, np.random.default_rng(0))


def _factors() -> FactorSet:
    return FactorSet(np.ones((1, 3)), 1)


# Entry point -> (argument name, a valid value, call with a value in its place and an
# output path). Every array argument of a public entry point is read by _as_real.
REAL_ARRAYS = {
    "Hamiltonian-h": ("h", np.eye(2), lambda x, out: Hamiltonian(x, np.eye(3))),
    "Hamiltonian-g": ("g", np.eye(3), lambda x, out: Hamiltonian(np.eye(2), x)),
    "ShiftParams-xi": ("xi", np.eye(2), lambda x, out: ShiftParams(0.0, x, 1)),
    "FactorSet-packed": ("packed", np.ones((1, 3)), lambda x, out: FactorSet(x, 1)),
    "symmetrize_one_body-mat": ("mat", np.eye(2), lambda x, out: symmetrize_one_body(x)),
    "nuclear_norm-a": ("a", np.eye(2), lambda x, out: nuclear_norm(x)),
    "lambda_df-h_prime": ("h_prime", np.eye(2), lambda x, out: lambda_df(_factors(), x)),
    "frobenius_error-g_target": ("g_target", np.eye(3), lambda x, out: frobenius_error(x, _factors())),
    "initial_double_factorization-g": ("g", np.eye(3), lambda x, out: initial_double_factorization(x, 1)),
    "total_cost-xi": ("xi", np.eye(2), lambda x, out: total_cost(_ham(), (0.0, x, _factors()), 1.0)),
    "gradient-xi": ("xi", np.eye(2), lambda x, out: gradient(_ham(), (0.0, x, _factors()), 1.0)),
    "save_factor_set-kappa": ("kappa", np.array(0.5), lambda x, out: save_factor_set(out, _factors(), kappa=x)),
    "save_factor_set-xi": ("xi", np.eye(2), lambda x, out: save_factor_set(out, _factors(), xi=x)),
    "sector_one_body-a": ("a", np.eye(2), lambda x, out: sector_one_body(x, 1)),
    "b_operator-u": ("u", np.array([1.0, 0.0]), lambda x, out: b_operator(x, 0, 2)),
    "verify_one_body_identity-a": ("a", np.eye(2), lambda x, out: verify_one_body_identity(x)),
}

# The same for the number arguments; the config raises ConfigError.
REAL_NUMBERS = {
    "Hamiltonian-core_constant": ("core_constant", lambda x: Hamiltonian(np.eye(2), np.eye(3), x)),
    "ShiftParams-kappa": ("kappa", lambda x: ShiftParams(x, np.eye(2), 1)),
    "total_cost-kappa": ("kappa", lambda x: total_cost(_ham(), (x, np.eye(2), _factors()), 1.0)),
    "total_cost-c_approx": ("c_approx", lambda x: total_cost(_ham(), (0.0, np.eye(2), _factors()), x)),
    "gradient-kappa": ("kappa", lambda x: gradient(_ham(), (x, np.eye(2), _factors()), 1.0)),
    "gradient-c_approx": ("c_approx", lambda x: gradient(_ham(), (0.0, np.eye(2), _factors()), x)),
    "OptimizationConfig-learning_rate": ("learning_rate", lambda x: OptimizationConfig(learning_rate=x)),
}


def _with_first_entry(value, x):
    x = np.array(x, dtype=np.float64)
    x.flat[0] = value
    return x


_BAD_ARRAYS = {
    "complex": lambda x: x + 1j,
    "nan": lambda x: _with_first_entry(np.nan, x),
    "inf": lambda x: _with_first_entry(np.inf, x),
    "-inf": lambda x: _with_first_entry(-np.inf, x),
    "shape": lambda x: x[..., None],
}
_BAD_NUMBERS = {
    "bool": True,
    "str": "1.0",
    "None": None,
    "complex": 1j,
    "10**400": 10**400,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
}
REAL_ARGUMENT_ROWS = [
    pytest.param(
        name, lambda out, call=call, bad=bad, good=good: call(bad(good), out), ValueError, id=f"{entry}-{kind}"
    )
    for entry, (name, good, call) in REAL_ARRAYS.items()
    for kind, bad in _BAD_ARRAYS.items()
] + [
    pytest.param(
        name,
        lambda out, call=call, value=value: call(value),
        ConfigError if entry.startswith("OptimizationConfig") else ValueError,
        id=f"{entry}-{kind}",
    )
    for entry, (name, call) in REAL_NUMBERS.items()
    for kind, value in _BAD_NUMBERS.items()
]


class TestRealArguments:
    """The one rule for real arguments (hamiltonian._as_real), at every public entry point."""

    @pytest.mark.parametrize("name, call, error", REAL_ARGUMENT_ROWS)
    def test_refused_by_name_before_any_eigh_and_without_warnings(self, name, call, error, tmp_path, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        out = tmp_path / "factors.npz"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=rf"(^|: ){name} must be "):
                call(out)
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("entry", REAL_ARRAYS)
    def test_valid_values_pass(self, entry, tmp_path):
        _, good, call = REAL_ARRAYS[entry]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call(good, tmp_path / "factors.npz")

    def test_takes_numpy_numbers_and_integer_arrays(self):
        # What callers pass today: the FCIDUMP reader's numpy-float core constant
        # and integer arrays, as an archive may hold them.
        ham = Hamiltonian(np.eye(2, dtype=np.int64), np.eye(3, dtype=np.int32), np.float64(1.5))
        assert type(ham.core_constant) is float and ham.h.dtype == ham.g_pairs.dtype == np.float64
        assert ham.g_pairs.tolist() == Hamiltonian(np.eye(2), np.eye(3), 1.5).g_pairs.tolist()
        shift = ShiftParams(np.int64(2), np.eye(2, dtype=np.uint8), 1)
        assert type(shift.kappa) is float and shift.kappa == 2.0
        rows = np.ones((1, 3))
        assert FactorSet(rows.astype(np.int16), 1).packed.tolist() == rows.tolist()
        assert np.shares_memory(FactorSet(rows, 1).packed, rows)  # float64 is not copied


def _archive_with(member, value, out):
    """An archive of two factors at N=3 whose ``member`` is replaced by ``value``, loaded back."""
    save_factor_set(out, FactorSet(np.ones((2, 6)), 2))
    with np.load(out) as archive:
        kept = {name: archive[name] for name in archive.files}
    np.savez(out, **{**kept, member: value})
    return load_factor_set(out)


# Entry point -> (argument name, call with a value in its place and a scratch path,
# [lo, hi] with None for no upper end). Every integer argument is read by _as_int.
INTEGER_ARGUMENTS = {
    "FactorSet-rank": ("rank", lambda x, out: FactorSet(np.ones((1, 3)), x), 1, 4),
    "initial_double_factorization-rank": ("rank", lambda x, out: initial_double_factorization(np.eye(3), x), 1, 4),
    "Hamiltonian-n_electrons": ("n_electrons", lambda x, out: Hamiltonian(np.eye(2), np.eye(3), 0.0, x), 0, 4),
    "ShiftParams-n_e": ("n_e", lambda x, out: ShiftParams(0.0, np.eye(2), x), 0, None),
    "OptimizationConfig-max_iters": ("max_iters", lambda x, out: OptimizationConfig(max_iters=x), 1, None),
    "OptimizationConfig-patience": ("patience", lambda x, out: OptimizationConfig(patience=x), 1, None),
    "load_factor_set-rank": ("rank member, for a factors member of 2 rows,", partial(_archive_with, "rank"), 2, 9),
    "load_factor_set-n_orbitals": ("n_orbitals member", partial(_archive_with, "n_orbitals"), 0, None),
    "sector_states-n": ("n", lambda x, out: sector_states(x, 1), 1, 6),
    "sector_states-n_e": ("n_e", lambda x, out: sector_states(2, x), 0, 4),
    "sector_one_body-n_e": ("n_e", lambda x, out: sector_one_body(np.eye(2), x), 0, 4),
    "ladder_operator-j": ("j", lambda x, out: ladder_operator(x, 0, False, 2), 0, 1),
    "ladder_operator-sigma": ("sigma", lambda x, out: ladder_operator(0, x, False, 2), 0, 1),
    "ladder_operator-n": ("n", lambda x, out: ladder_operator(0, 0, False, x), 1, 6),
    "b_operator-sigma": ("sigma", lambda x, out: b_operator(np.array([1.0, 0.0]), x, 2), 0, 1),
    "b_operator-n": ("n", lambda x, out: b_operator(np.array([1.0, 0.0]), 0, x), 1, 6),
}


def _integer_rows():
    for entry, (name, call, lo, hi) in INTEGER_ARGUMENTS.items():
        error = ConfigError if entry.startswith("OptimizationConfig") else ValueError
        span = f"[{lo}, {'inf)' if hi is None else f'{hi}]'}"
        rows = {"bool": (True, "an integer, got "), "float": (2.0, "an integer, got ")}
        rows["below"] = (lo - 1, f"in {span}, got {lo - 1}")
        rows.update({"above": (hi + 1, f"in {span}, got {hi + 1}")} if hi is not None else {})
        for kind, (value, rule) in rows.items():
            match = rf"(^|: ){re.escape(f'{name} must be {rule}')}"
            yield pytest.param(call, value, error, match, id=f"{entry}-{kind}")


class TestIntegerArguments:
    """The one integer rule (hamiltonian._as_int), with its range, at every public entry point."""

    @pytest.mark.parametrize("call, value, error, match", list(_integer_rows()))
    def test_refused_by_name_before_any_eigh_and_without_warnings(
        self, call, value, error, match, tmp_path, monkeypatch
    ):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=match):
                call(value, tmp_path / "factors.npz")
        assert calls == []


class TestOneReadPerArgument:
    """Each public call reads each argument through _as_real once, at chain N=8 (oracle calls: N=3)."""

    @pytest.fixture(scope="class")
    def inputs(self):
        ham = chain_hamiltonian(8, 1)
        xi = symmetrize_one_body(np.random.default_rng(3).standard_normal((8, 8)))
        return ham, xi, initial_double_factorization(ham.g_pairs, 16)

    @pytest.mark.parametrize(
        "call, reads",
        [
            (lambda ham, xi, fs: Hamiltonian(ham.h, ham.g_pairs, ham.core_constant, 8), {"g", "h", "core_constant"}),
            (lambda ham, xi, fs: two_body_block(ham.g_pairs), {"g"}),
            (lambda ham, xi, fs: two_body_block(ham.g), {"g"}),
            (lambda ham, xi, fs: symmetrize_one_body(xi), {"mat"}),
            (lambda ham, xi, fs: ShiftParams(0.5, xi, 8), {"kappa", "xi"}),
            (lambda ham, xi, fs: nuclear_norm(xi), {"a"}),
            (lambda ham, xi, fs: lambda_df(fs, xi), {"h_prime"}),
            # packed is the result's own rows, read once by FactorSet.
            (lambda ham, xi, fs: initial_double_factorization(ham.g_pairs, 16), {"g", "packed"}),
            (lambda ham, xi, fs: frobenius_error(ham.g_pairs, fs), {"g_target"}),
            (lambda ham, xi, fs: _pack(ham, (0.5, xi, fs)), {"kappa", "xi"}),
            (lambda ham, xi, fs: total_cost(ham, (0.5, xi, fs), 1.0), {"kappa", "xi", "c_approx"}),
            (lambda ham, xi, fs: gradient(ham, (0.5, xi, fs), 1.0), {"kappa", "xi", "c_approx"}),
            (lambda ham, xi, fs: sector_one_body(xi[:3, :3], 2), {"a"}),
            # b_operator reads each of the 3 eigenvectors once per spin.
            (lambda ham, xi, fs: verify_one_body_identity(xi[:3, :3]), {"a": 1, "u": 6}),
        ],
        ids=[
            "Hamiltonian", "two_body_block-pairs", "two_body_block-tensor", "symmetrize_one_body", "ShiftParams",
            "nuclear_norm", "lambda_df", "initial_double_factorization", "frobenius_error", "_pack", "total_cost",
            "gradient", "sector_one_body", "verify_one_body_identity",
        ],
    )
    def test_each_argument_is_read_once(self, call, reads, inputs, monkeypatch):
        names = []
        read = hamiltonian._as_real
        for module in (hamiltonian, factorization, optimizer, fermi_oracle):
            monkeypatch.setattr(module, "_as_real", lambda name, *a, **k: names.append(name) or read(name, *a, **k))
        call(*inputs)
        assert Counter(names) == Counter(reads)

    @pytest.mark.parametrize(
        "name, call",
        [
            ("xi", lambda x: ShiftParams(0.0, x, 1)),
            ("a", nuclear_norm),
            ("a", lambda x: sector_one_body(x, 1)),
            ("a", verify_one_body_identity),
        ],
        ids=["ShiftParams", "nuclear_norm", "sector_one_body", "verify_one_body_identity"],
    )
    def test_a_rectangular_matrix_is_named(self, name, call):
        with pytest.raises(ValueError, match=rf"^{name} must be .* of shape \(n, n\), got float64 of shape \(2, 3\)$"):
            call(np.zeros((2, 3)))


class TestPairBlockStorage:
    """The P x P pair block is the one two-body array a Hamiltonian holds."""

    def test_holds_only_h_and_the_pair_block(self):
        ham = random_hamiltonian(4, np.random.default_rng(20))
        arrays = {name: value.shape for name, value in vars(ham).items() if isinstance(value, np.ndarray)}
        assert arrays == {"h": (4, 4), "g_pairs": (10, 10)}
        assert not ham.g_pairs.flags.writeable

    def test_g_is_unpacked_fresh_and_frozen(self):
        g = random_psd_two_body(3, np.random.default_rng(21))
        ham = Hamiltonian(h=np.eye(3), g=g)
        first, second = ham.g, ham.g
        assert first.tobytes() == g.tobytes()
        assert not np.shares_memory(first, second)
        assert not first.flags.writeable

    def test_block_and_tensor_give_the_same_bits(self):
        rng = np.random.default_rng(22)
        g = random_psd_two_body(4, rng)
        h = symmetrize_one_body(rng.standard_normal((4, 4)))
        dense, packed = Hamiltonian(h, g, 0.5, 3), Hamiltonian(h, two_body_block(g), 0.5, 3)
        assert packed.g_pairs.tobytes() == dense.g_pairs.tobytes()
        assert packed.g.tobytes() == dense.g.tobytes() == g.tobytes()
        assert effective_one_body(packed).tobytes() == effective_one_body(dense).tobytes()
        factors = initial_double_factorization(g, 16)
        assert initial_double_factorization(packed.g_pairs, 16).factors.tobytes() == factors.factors.tobytes()
        prefix = FactorSet(factors.packed[:5], 5)
        assert frobenius_error(packed.g_pairs, prefix) == frobenius_error(g, prefix)

    def test_asymmetric_block_is_symmetrized(self):
        # Each reader gives the bits of the averages 0.5 * (x + y) on every
        # finite input that does not overflow them: one-body matrices, pair
        # blocks and N^4 tensors, the latter by the
        # whole tensor's three averages, over i <-> j, then k <-> l, then
        # the pairs.
        rng = np.random.default_rng(23)
        block = rng.standard_normal((6, 6))
        ham = Hamiltonian(h=np.zeros((3, 3)), g=block)
        assert ham.g_pairs.tobytes() == (0.5 * (block + block.T)).tobytes()
        check_two_body_symmetry(ham.g)
        for n in (1, 2, 3, 8, 16):
            mat = rng.standard_normal((n, n))
            assert symmetrize_one_body(mat).tobytes() == (0.5 * (mat + mat.T)).tobytes()
            pairs = n * (n + 1) // 2
            block = rng.standard_normal((pairs, pairs))
            assert two_body_block(block).tobytes() == (0.5 * (block + block.T)).tobytes()
            g = want = rng.standard_normal((n, n, n, n))
            for axes in [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)]:
                want = 0.5 * (want + want.transpose(axes))
            upper = np.flatnonzero(np.triu(np.ones((n, n))))
            assert pair_space(n).lower.tobytes() == np.arange(n * n).reshape(n, n).T.ravel()[upper].tobytes()
            assert pair_space(n).tensor(two_body_block(g)).tobytes() == want.tobytes()
            want = want.reshape(n * n, n * n)[np.ix_(upper, upper)]
            assert two_body_block(g).tobytes() == want.tobytes()

    def test_asymmetric_tensor_keeps_no_full_size_temporary(self):
        # The averages run on a few pair rows at a time and then on the
        # P x P block: about two blocks, near g.nbytes / 2, for a bitwise
        # symmetric tensor as for an asymmetric one, where averaging the
        # whole tensor held two N^4 temporaries at once. A pair block's read
        # holds little beside the block it returns.
        rng = np.random.default_rng(24)
        ham = Hamiltonian(np.zeros((32, 32)), rng.standard_normal((528, 528)))
        for g, bound in ((ham.g, 0.6), (rng.standard_normal((32, 32, 32, 32)), 0.6), (ham.g_pairs, 1.25)):
            two_body_block(g)
            tracemalloc.start()
            try:
                two_body_block(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * g.nbytes

    @pytest.mark.parametrize("shape", [(5, 5), (4, 4), (6, 3), (2, 2, 2, 3), (2, 2, 2), (36,)])
    def test_format_helper_rejects_other_shapes(self, shape):
        # (5, 5) and (4, 4) are square but 5 and 4 are not N(N+1)/2.
        with pytest.raises(ValueError, match="pair block"):
            two_body_block(np.zeros(shape))
        with pytest.raises(ValueError, match="pair block"):
            Hamiltonian(h=np.zeros((2, 2)), g=np.zeros(shape))

    def test_shift_matches_the_dense_formula(self):
        # g~_ijkl = g_ijkl + (xi_ij delta_kl + delta_ij xi_kl) / 2, built as an
        # N^4 tensor and symmetrized, gives the pair-space shift's bits.
        rng = np.random.default_rng(24)
        ham = random_hamiltonian(4, rng)
        xi, eye = symmetrize_one_body(rng.standard_normal((4, 4))), np.eye(4)
        dense = ham.g + np.einsum("ij,kl->ijkl", 0.5 * xi, eye)
        dense += np.einsum("ij,kl->ijkl", eye, 0.5 * xi)
        shifted = apply_symmetry_shift(ham, ShiftParams(0.0, xi, ham.n_electrons))
        assert shifted.g.tobytes() == Hamiltonian(np.zeros((4, 4)), dense).g.tobytes()


class TestSymmetryShift:
    def test_identity_shift_is_exact(self):
        rng = np.random.default_rng(3)
        ham = random_hamiltonian(3, rng)
        shifted = apply_symmetry_shift(ham, ShiftParams.zero(3, ham.n_electrons))
        assert np.array_equal(shifted.h, ham.h)
        assert np.array_equal(shifted.g, ham.g)
        assert shifted.core_constant == ham.core_constant

    def test_kappa_only_shift(self):
        rng = np.random.default_rng(4)
        ham = random_hamiltonian(2, rng, n_electrons=2)
        c = 0.8125
        shifted = apply_symmetry_shift(
            ham, ShiftParams(kappa=c, xi=np.zeros((2, 2)), n_e=2)
        )
        assert np.array_equal(shifted.g, ham.g)
        assert np.allclose(shifted.h, ham.h + c * np.eye(2), atol=0, rtol=0)
        assert shifted.core_constant == ham.core_constant - c * 2

    def test_output_retains_eightfold_symmetry(self):
        rng = np.random.default_rng(5)
        ham = random_hamiltonian(4, rng)
        shift = ShiftParams(
            kappa=float(rng.standard_normal()),
            xi=rng.standard_normal((4, 4)),
            n_e=3,
        )
        check_two_body_symmetry(apply_symmetry_shift(ham, shift).g)

    def test_shift_composition_is_affine(self):
        rng = np.random.default_rng(6)
        ham = random_hamiltonian(3, rng)
        k1, k2 = 0.7, -1.2
        x1 = symmetrize_one_body(rng.standard_normal((3, 3)))
        x2 = symmetrize_one_body(rng.standard_normal((3, 3)))
        n_e = ham.n_electrons
        twice = apply_symmetry_shift(
            apply_symmetry_shift(ham, ShiftParams(k1, x1, n_e)),
            ShiftParams(k2, x2, n_e),
        )
        once = apply_symmetry_shift(ham, ShiftParams(k1 + k2, x1 + x2, n_e))
        assert np.allclose(twice.h, once.h, atol=1e-12)
        assert np.allclose(twice.g, once.g, atol=1e-12)
        assert abs(twice.core_constant - once.core_constant) < 1e-12

    def test_electron_count_must_be_an_integer(self):
        # n_e = 1.9 stored as 1 would annihilate the wrong sector.
        for value in (1.9, 1.0, np.float64(1.0), False):
            with pytest.raises(ValueError, match=re.escape(f"n_e must be an integer, got {value!r}")):
                ShiftParams(0.0, np.zeros((2, 2)), n_e=value)
        for value in (1, np.int32(1)):
            assert type(ShiftParams(0.0, np.zeros((2, 2)), n_e=value).n_e) is int

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(7)
        ham = random_hamiltonian(2, rng)
        with pytest.raises(ValueError, match="orbitals"):
            apply_symmetry_shift(ham, ShiftParams.zero(3, 2))

    @pytest.mark.parametrize(
        "ham, shift",
        [
            (Hamiltonian(1e308 * np.eye(2), np.eye(3), 0.0, 2), ShiftParams(1e308, np.zeros((2, 2)), 2)),
            (Hamiltonian(np.eye(2), np.eye(3), 1e308, 2), ShiftParams(-1e308, np.zeros((2, 2)), 2)),
            (Hamiltonian(np.zeros((2, 2)), 1e308 * np.eye(3), 0.0, 0), ShiftParams(0.0, 1.7e308 * np.eye(2), 0)),
        ],
        ids=["h", "core_constant", "g"],
    )
    def test_overflowing_shift_is_one_value_error(self, ham, shift):
        # Finite inputs whose shifted sum leaves float64: one ValueError that
        # names the shift, not numpy's overflow warning or a message about h.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^shift \(kappa=.*, n_e=\d\) overflows "):
                apply_symmetry_shift(ham, shift)

    def test_sector_spectrum_invariant_dense(self):
        # The defining property: on the n_e-electron sector the shifted
        # Hamiltonian acts identically, verified by dense diagonalization.
        rng = np.random.default_rng(8)
        for n in (2, 3):
            ham = random_hamiltonian(n, rng)
            shift = ShiftParams(
                kappa=float(rng.standard_normal()),
                xi=symmetrize_one_body(rng.standard_normal((n, n))),
                n_e=ham.n_electrons,
            )
            shifted = apply_symmetry_shift(ham, shift)
            spec_orig = sector_eigenvalues(ham, ham.n_electrons)
            spec_shift = sector_eigenvalues(shifted, ham.n_electrons)
            assert np.max(np.abs(spec_orig - spec_shift)) < 1e-10


class TestEffectiveOneBody:
    def test_zero_two_body(self):
        rng = np.random.default_rng(9)
        h = symmetrize_one_body(rng.standard_normal((3, 3)))
        ham = Hamiltonian(h=h, g=np.zeros((3, 3, 3, 3)))
        assert np.array_equal(effective_one_body(ham), h)

    def test_delta_tensor(self):
        n = 3
        g = np.einsum("ij,kl->ijkl", np.eye(n), np.eye(n))
        h = np.zeros((n, n))
        ham = Hamiltonian(h=h, g=g)
        assert np.allclose(effective_one_body(ham), 2 * n * np.eye(n), atol=1e-15)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        ham = random_hamiltonian(4, rng)
        expected = np.array(ham.h)
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    expected[i, j] += 2.0 * ham.g[i, j, k, k]
        assert np.allclose(effective_one_body(ham), expected, atol=1e-12)

    def test_shifted_effective_matches_brute_force(self):
        # h~' computed from the shifted Hamiltonian equals the definition
        # h~_ij + 2 sum_k g~_ijkk evaluated by explicit loops.
        rng = np.random.default_rng(11)
        ham = random_hamiltonian(3, rng)
        shift = ShiftParams(
            kappa=0.3,
            xi=symmetrize_one_body(rng.standard_normal((3, 3))),
            n_e=ham.n_electrons,
        )
        shifted = apply_symmetry_shift(ham, shift)
        expected = np.array(shifted.h)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    expected[i, j] += 2.0 * shifted.g[i, j, k, k]
        assert np.allclose(effective_one_body(shifted), expected, atol=1e-12)


class TestReconstruction:
    def test_empty_factor_set(self):
        assert np.array_equal(
            reconstruct_two_body(FactorSet(np.zeros((0, 6)), 0)), np.zeros((3, 3, 3, 3))
        )

    def test_single_factor(self):
        rng = np.random.default_rng(12)
        a = symmetrize_one_body(rng.standard_normal((3, 3)))
        recon = reconstruct_two_body(packed_factors(a[None]))
        assert np.allclose(recon, np.einsum("ij,kl->ijkl", a, a), atol=1e-15)

    def test_matches_quadruple_loop(self):
        rng = np.random.default_rng(13)
        factors = rng.standard_normal((3, 4, 4))
        factors = 0.5 * (factors + factors.transpose(0, 2, 1))
        recon = reconstruct_two_body(packed_factors(factors))
        n = 4
        expected = np.zeros((n, n, n, n))
        for r in range(3):
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        for l in range(n):
                            expected[i, j, k, l] += (
                                factors[r, i, j] * factors[r, k, l]
                            )
        assert np.allclose(recon, expected, atol=1e-12)


class TestFrobeniusError:
    def test_exact_factorization_gives_zero(self):
        rng = np.random.default_rng(14)
        a = symmetrize_one_body(rng.standard_normal((3, 3)))
        fs = packed_factors(a[None])
        assert frobenius_error(reconstruct_two_body(fs), fs) == 0.0

    def test_identity_factor_against_zero_target(self):
        assert frobenius_error(np.zeros((2, 2, 2, 2)), packed_factors(np.eye(2)[None])) == 4.0

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(15)
        n = 3
        g = random_psd_two_body(n, rng)
        factors = rng.standard_normal((2, n, n))
        factors = 0.5 * (factors + factors.transpose(0, 2, 1))
        recon = reconstruct_two_body(packed_factors(factors))
        expected = 0.0
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        expected += (g[i, j, k, l] - recon[i, j, k, l]) ** 2
        assert abs(frobenius_error(g, packed_factors(factors)) - expected) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            frobenius_error(np.zeros((3, 3, 3, 3)), FactorSet(np.zeros((1, 3)), 1))


class TestChainHamiltonian:
    """The molecule-shaped generator: a low Cholesky rank, exact symmetry and an exact file round trip."""

    def test_eight_fold_symmetric_and_factorizable(self):
        ham = chain_hamiltonian(8, 1)
        assert ham.n_electrons == 8
        assert check_two_body_symmetry(ham.g) == 0.0
        init = initial_double_factorization(ham.g_pairs, 64)  # no IndefiniteTensorError
        assert frobenius_error(ham.g_pairs, init) <= 1e-24

    def test_rank_is_of_order_n(self):
        ham = chain_hamiltonian(32, 1)
        pairs = 32 * 33 // 2
        assert initial_double_factorization(ham.g_pairs, 32 * 32).effective_rank < pairs / 4

    def test_fcidump_round_trip_is_bit_exact(self, tmp_path):
        ham = chain_hamiltonian(16, 3)
        path = tmp_path / "chain.fcidump"
        write_integrals(path, ham)
        back = load_integrals(path)
        assert back.h.tobytes() == ham.h.tobytes()
        assert back.g_pairs.tobytes() == ham.g_pairs.tobytes()
        assert back.core_constant == ham.core_constant
        assert back.n_electrons == ham.n_electrons

    def test_deterministic_from_the_seed(self):
        first, again, other = chain_hamiltonian(6, 2), chain_hamiltonian(6, 2), chain_hamiltonian(6, 5)
        assert first.h.tobytes() == again.h.tobytes()
        assert first.g_pairs.tobytes() == again.g_pairs.tobytes()
        assert first.h.tobytes() != other.h.tobytes()

    @pytest.mark.parametrize("n", [0, 3])
    def test_needs_an_even_orbital_count(self, n):
        with pytest.raises(ValueError, match="even"):
            chain_hamiltonian(n, 1)
