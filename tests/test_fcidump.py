import itertools
import tracemalloc

import numpy as np
import pytest

from blissdf import (
    FcidumpError,
    Hamiltonian,
    OptimizationConfig,
    effective_one_body,
    fcidump,
    load_integrals,
    optimize,
    write_integrals,
)
from blissdf.fcidump import INTEGRAL_CONVENTION
from blissdf.fermi_oracle import ladder_operator, sector_hamiltonian, sector_states
from blissdf.hamiltonian import symmetrize_one_body

from conftest import random_hamiltonian


def write_lines(tmp_path, lines, name="test.fcidump"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestHeaderParsing:
    def test_amp_end_terminator(self, tmp_path):
        path = write_lines(
            tmp_path, [" &FCI NORB=2,NELEC=2,MS2=0,", " &END", "1.5 1 1 0 0"]
        )
        ham = load_integrals(path)
        assert ham.n_orbitals == 2
        assert ham.n_electrons == 2

    def test_slash_terminator(self, tmp_path):
        path = write_lines(tmp_path, ["&FCI NORB=3,NELEC=4,MS2=0 /", "0.5 1 1 0 0"])
        assert load_integrals(path).n_orbitals == 3

    def test_multiline_header_with_extra_keys(self, tmp_path):
        path = write_lines(
            tmp_path,
            [
                "&FCI NORB=2,NELEC=2,",
                "  MS2=0, ORBSYM=1,1,",
                "  ISYM=1",
                " &END",
                "1.0 1 1 0 0",
            ],
        )
        assert load_integrals(path).n_orbitals == 2

    def test_missing_norb(self, tmp_path):
        path = write_lines(tmp_path, ["&FCI NELEC=2, &END", "1.0 1 1 0 0"])
        with pytest.raises(FcidumpError, match="NORB"):
            load_integrals(path)

    def test_missing_nelec(self, tmp_path):
        path = write_lines(tmp_path, ["&FCI NORB=2, &END", "1.0 1 1 0 0"])
        with pytest.raises(FcidumpError, match="NELEC"):
            load_integrals(path)

    def test_bad_first_line(self, tmp_path):
        path = write_lines(tmp_path, ["NORB=2", "1.0 1 1 0 0"])
        with pytest.raises(FcidumpError, match="line 1"):
            load_integrals(path)

    def test_namelist_ends_at_its_first_terminator(self, tmp_path):
        # NELEC=2 comes after the / that ends the namelist, so the header has none.
        path = write_lines(tmp_path, [" &FCI NORB=1, / NELEC=2, &END", "1.0 1 1 0 0"])
        with pytest.raises(FcidumpError, match="^line 1: header is missing NELEC$"):
            load_integrals(path)

    def test_second_terminator_on_the_line_is_ignored(self, tmp_path):
        path = write_lines(tmp_path, [" &FCI NORB=2,NELEC=2, / &END", "1.0 1 1 0 0"])
        ham = load_integrals(path)
        assert (ham.n_orbitals, ham.n_electrons) == (2, 2)

    def test_unterminated_header(self, tmp_path):
        path = write_lines(tmp_path, ["&FCI NORB=2,NELEC=2,"])
        with pytest.raises(FcidumpError, match="terminated"):
            load_integrals(path)

    def test_nelec_out_of_range(self, tmp_path):
        path = write_lines(tmp_path, ["&FCI NORB=2,NELEC=9, &END", "1.0 1 1 0 0"])
        with pytest.raises(FcidumpError, match="NELEC"):
            load_integrals(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_integrals(tmp_path / "absent.fcidump")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.fcidump"
        path.write_bytes(b"")
        with pytest.raises(FcidumpError, match="^line 1: empty file$"):
            load_integrals(path)

    def test_norb_zero(self, tmp_path):
        path = write_lines(tmp_path, ["&FCI NORB=0,NELEC=0 /"])
        with pytest.raises(FcidumpError, match="^line 1: NORB=0 must be positive$"):
            load_integrals(path)

    @pytest.mark.parametrize("header", ["MYNORB=7,NORB=2,NELEC=2", "NORB=2,XNELEC=4,NELEC=2"])
    def test_keys_are_whole_names(self, tmp_path, header):
        # A key inside a longer name, such as MYNORB, is another key.
        ham = load_integrals(write_lines(tmp_path, [f"&FCI {header} /", "1.0 1 1 0 0"]))
        assert (ham.n_orbitals, ham.n_electrons) == (2, 2)

    @pytest.mark.parametrize("key, header", [("NORB", "NORB=2, NORB=3,NELEC=2"), ("NELEC", "NORB=2,NELEC=2,nelec = 2")])
    def test_key_set_twice_is_refused(self, tmp_path, key, header):
        # Reported at the header's last line, as every header error after the first line.
        path = write_lines(tmp_path, [f"&FCI {header}", "  MS2=0", " &END", "1.0 1 1 0 0"])
        with pytest.raises(FcidumpError, match=f"^line 3: header sets {key} 2 times$"):
            load_integrals(path)

    @pytest.mark.parametrize(
        "content, line",
        [
            (b"&FCI NORB=1,NELEC=1,\n TITLE=\xff\n/\n1.0 1 1 0 0\n", 2),  # in the namelist
            (b"&FCI NORB=1,NELEC=1 / \xe9t\xe9\n1.0 1 1 0 0\n", 1),  # after the terminator, Latin-1
            (b"&FCI \xe9 NORB=1,NELEC=1 /\n1.0 1 1 0 0\n", 1),  # on the first line, Latin-1
            (b"&FCI NORB=1,NELEC=1 /\n1.0 1 1 0 0\n\n2.0 1 1 0 0 \xff\n", 4),  # a data line
            (b"&FCI NORB=1,NELEC=1 /\r1.0 1 1 0 0\r\xc3\r", 3),  # a cut sequence on a bare-CR line
        ],
        ids=["namelist", "after-terminator", "first-line", "data", "cut-sequence"],
    )
    def test_invalid_utf8_is_refused_at_its_line(self, tmp_path, content, line):
        path = tmp_path / "bytes.fcidump"
        path.write_bytes(content)
        with pytest.raises(FcidumpError, match=f"^line {line}: not UTF-8: "):
            load_integrals(path)


class TestRecordParsing:
    def test_single_one_body_entry(self, tmp_path):
        path = write_lines(tmp_path, ["&FCI NORB=2,NELEC=2, &END", "1.5 1 1 0 0"])
        ham = load_integrals(path)
        assert ham.h[0, 0] == 1.5
        assert np.all(ham.g == 0.0)

    def test_off_diagonal_is_symmetrized(self, tmp_path):
        path = write_lines(tmp_path, ["&FCI NORB=2,NELEC=2, &END", "0.7 1 2 0 0"])
        ham = load_integrals(path)
        assert ham.h[0, 1] == 0.7
        assert ham.h[1, 0] == 0.7

    def test_core_constant(self, tmp_path):
        path = write_lines(
            tmp_path, ["&FCI NORB=1,NELEC=1, &END", "-2.25 0 0 0 0"]
        )
        assert load_integrals(path).core_constant == -2.25

    def test_fortran_exponent(self, tmp_path):
        path = write_lines(
            tmp_path, ["&FCI NORB=1,NELEC=1, &END", "2.5D-01 1 1 0 0"]
        )
        assert load_integrals(path).h[0, 0] == 0.25

    def test_blank_lines_skipped(self, tmp_path):
        path = write_lines(
            tmp_path, ["&FCI NORB=1,NELEC=1, &END", "", "1.0 1 1 0 0", ""]
        )
        assert load_integrals(path).h[0, 0] == 1.0

    def test_wrong_field_count(self, tmp_path):
        path = write_lines(tmp_path, ["&FCI NORB=2,NELEC=2, &END", "1.0 1 1 0"])
        with pytest.raises(FcidumpError, match="line 2"):
            load_integrals(path)

    def test_unparseable_value(self, tmp_path):
        path = write_lines(tmp_path, ["&FCI NORB=2,NELEC=2, &END", "abc 1 1 0 0"])
        with pytest.raises(FcidumpError, match="line 2.*value"):
            load_integrals(path)

    def test_nonfinite_value(self, tmp_path):
        path = write_lines(tmp_path, ["&FCI NORB=2,NELEC=2, &END", "inf 1 1 0 0"])
        with pytest.raises(FcidumpError, match="non-finite"):
            load_integrals(path)

    def test_one_body_index_out_of_range(self, tmp_path):
        path = write_lines(tmp_path, ["&FCI NORB=2,NELEC=2, &END", "1.0 3 1 0 0"])
        with pytest.raises(FcidumpError, match="line 2.*outside"):
            load_integrals(path)

    def test_two_body_index_out_of_range(self, tmp_path):
        path = write_lines(
            tmp_path, ["&FCI NORB=2,NELEC=2, &END", "1.0 1 1 2 3"]
        )
        with pytest.raises(FcidumpError, match="line 2.*outside"):
            load_integrals(path)

    def test_non_integer_index(self, tmp_path):
        path = write_lines(
            tmp_path, ["&FCI NORB=2,NELEC=2, &END", "1.0 1 1 1 x"]
        )
        with pytest.raises(FcidumpError, match="indices"):
            load_integrals(path)

    def test_conflicting_orbit_entries(self, tmp_path):
        path = write_lines(
            tmp_path,
            ["&FCI NORB=2,NELEC=2, &END", "1.0 1 2 0 0", "1.1 2 1 0 0"],
        )
        with pytest.raises(FcidumpError, match="conflicting.*line"):
            load_integrals(path)

    def test_consistent_duplicates_averaged(self, tmp_path):
        value = 0.123456789
        noisy = value * (1.0 + 1e-12)
        path = write_lines(
            tmp_path,
            [
                "&FCI NORB=2,NELEC=2, &END",
                f"{value:.17g} 1 2 0 0",
                f"{noisy:.17g} 2 1 0 0",
            ],
        )
        ham = load_integrals(path)
        assert ham.h[0, 1] == pytest.approx(value, rel=1e-11)

    @pytest.mark.parametrize(
        "indices, entry, want",
        [(("1 2 0 0", "2 1 0 0"), "h", 1.5e308), (("1 2 1 1", "2 1 1 1"), "g_pairs", 7.5e307)],
        ids=["one-body", "two-body"],
    )
    def test_mean_of_huge_duplicates_is_finite(self, tmp_path, indices, entry, want):
        # Their sum, 3e308, overflows float64; their mean, 1.5e308, does not (g is half of it).
        path = write_lines(tmp_path, ["&FCI NORB=2,NELEC=2, &END", *(f"1.5e308 {i}" for i in indices)])
        assert getattr(load_integrals(path), entry)[1, 0] == want

    def test_huge_opposite_duplicates_conflict(self, tmp_path):
        # Their difference, 3e308, overflows float64 to inf, which still flags the conflict.
        path = write_lines(tmp_path, ["&FCI NORB=2,NELEC=2, &END", "1.5e308 1 2 1 1", "-1.5e308 2 1 1 1"])
        with pytest.raises(FcidumpError) as err:
            load_integrals(path)
        assert str(err.value) == (
            "line 3: conflicting two-body entries for orbit (2, 1, 1, 1): values "
            "-1.5e+308 and 1.5e+308 disagree beyond relative tolerance 1e-10 (lines [2, 3])"
        )


def orbit_members(i, j, k, l):
    """The index tuples of the symmetry orbit of a record (1-based)."""
    if k == l == 0:
        return [(i, j, 0, 0), (j, i, 0, 0)]
    pairs = [((i, j), (k, l)), ((k, l), (i, j))]
    return [a + b for p, q in pairs for a in (p, p[::-1]) for b in (q, q[::-1])]


def scrambled_copy(canonical, rng):
    """The records of a canonical FCIDUMP rewritten as another valid file.

    Each record becomes a random member of its orbit with a random exponent
    letter (D, d, E or e), some are written twice, the records are shuffled
    and blank lines are mixed in. Every value keeps its 17 significant digits
    and a duplicate is an exact copy, so the file must load bit-equal.
    """
    header, records = canonical[:2], []
    for line in canonical[2:]:
        value, *index = line.split()
        for _ in range(1 + (rng.random() < 0.3)):
            member = orbit_members(*map(int, index))[rng.integers(8 if index[2] != "0" else 2)]
            text = f"{float(value):.16e}".replace("e", str(rng.choice(list("DdEe"))))
            records.append(" ".join([text, *map(str, member)]))
    rng.shuffle(records)
    for _ in range(len(records) // 5 + 1):
        records.insert(int(rng.integers(len(records) + 1)), str(rng.choice(["", "  ", "\t"])))
    return header + records


def dense_load(path) -> Hamiltonian:
    """The N^4 reading of a file without duplicate records.

    Every record is scattered to its whole orbit of an N^4 tensor v, and the
    Hamiltonian is built from h = t - 1/2 sum_k v_ikkj and g = v / 2.
    """
    lines = path.read_text().splitlines()
    header = dict(item.split("=") for item in lines[0].replace("&FCI", "").replace(",", " ").split())
    n = int(header["NORB"])
    t, v, core = np.zeros((n, n)), np.zeros((n, n, n, n)), 0.0
    for line in lines[2:]:
        value, *index = line.split()
        i, j, k, l = map(int, index)
        if i == 0:
            core = float(value)
        elif k == 0:
            t[i - 1, j - 1] = t[j - 1, i - 1] = float(value)
        else:
            for member in orbit_members(i, j, k, l):
                v[tuple(x - 1 for x in member)] = float(value)
    return Hamiltonian(t - 0.5 * np.einsum("ikkj->ij", v), 0.5 * v, core, int(header["NELEC"]))


class TestPairBlockLoad:
    """The loader builds the pair block directly, with the bits of the N^4 reading."""

    @pytest.mark.parametrize("n", [None, 3, 9])
    def test_block_load_matches_the_dense_reading(self, tmp_path, fixture_fcidump, n):
        path = fixture_fcidump
        if n is not None:  # N = 9 sums more than 8 terms in each contraction
            path = tmp_path / f"n{n}.fcidump"
            write_integrals(path, random_hamiltonian(n, np.random.default_rng(60 + n), n_electrons=n))
        loaded, dense = load_integrals(path), dense_load(path)
        for name in ("g_pairs", "h", "g"):
            assert getattr(loaded, name).tobytes() == getattr(dense, name).tobytes()
        assert loaded.core_constant == dense.core_constant
        assert effective_one_body(loaded).tobytes() == effective_one_body(dense).tobytes()
        rank = loaded.n_orbitals**2
        config = OptimizationConfig(max_iters=25, rel_tol=0.0, learning_rate=1e-2)
        got, want = optimize(loaded, rank, config), optimize(dense, rank, config)
        assert got.total_trace.tobytes() == want.total_trace.tobytes()
        assert got.best_iteration == want.best_iteration
        assert got.best_params[0] == want.best_params[0]
        for a, b in zip(got.best_params[1:], want.best_params[1:]):
            assert np.asarray(getattr(a, "factors", a)).tobytes() == np.asarray(getattr(b, "factors", b)).tobytes()


class TestArrayLoader:
    """The loader against its per-record definition, file order and memory."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_scrambled_file_loads_bit_equal(self, tmp_path, monkeypatch, n):
        # Valid files, D exponents included, never take the line-by-line path.
        monkeypatch.setattr(fcidump, "_check_record", None)
        rng = np.random.default_rng(100 + n)
        canonical = tmp_path / "canonical.fcidump"
        write_integrals(canonical, random_hamiltonian(n, rng, n_electrons=n))
        lines = canonical.read_text().splitlines()
        for trial in range(3):
            scrambled = write_lines(tmp_path, scrambled_copy(lines, rng), f"s{trial}.fcidump")
            want, got = load_integrals(canonical), load_integrals(scrambled)
            assert got.h.tobytes() == want.h.tobytes()
            assert got.g.tobytes() == want.g.tobytes()
            assert got.core_constant == want.core_constant
            assert got.n_electrons == want.n_electrons

    BAD_LINES = {
        "fields": ("1.0 1 1 0", "expected 'value i j k l', got 4 fields"),
        "value": ("1.0x 1 1 0 0", "unparseable value '1.0x'"),
        "non-finite": ("nan 1 2 0 0", "non-finite value 'nan'"),
        "indices": ("1.0 1 1.0 0 0", "unparseable orbital indices ['1', '1.0', '0', '0']"),
        "one-body": ("1.0 3 1 0 0", "one-body indices (3, 1) outside 1..2"),
        "two-body": ("1.0 1 1 0 2", "two-body indices (1, 1, 0, 2) outside 1..2"),
    }

    @pytest.mark.parametrize("first", BAD_LINES)
    @pytest.mark.parametrize("second", BAD_LINES)
    def test_first_bad_line_is_reported(self, tmp_path, first, second):
        bad3, message = self.BAD_LINES[first]
        bad5, _ = self.BAD_LINES[second]
        path = write_lines(
            tmp_path,
            ["&FCI NORB=2,NELEC=2 /", "1.0 1 1 0 0", bad3, "0.5 2 2 1 1", bad5],
        )
        with pytest.raises(FcidumpError) as err:
            load_integrals(path)
        assert str(err.value) == f"line 3: {message}"
        assert err.value.line == 3

    def test_first_appearing_conflict_is_reported(self, tmp_path):
        # (2, 1, 1, 1) sorts before (2, 2, 1, 1) but appears after it.
        path = write_lines(
            tmp_path,
            [
                "&FCI NORB=2,NELEC=2 /",
                "1.0 1 1 2 2",
                "3.0 1 2 1 1",
                "4.0 2 1 1 1",
                "2.0 2 2 1 1",
            ],
        )
        with pytest.raises(FcidumpError) as err:
            load_integrals(path)
        assert str(err.value) == (
            "line 5: conflicting two-body entries for orbit (2, 2, 1, 1): values "
            "1.0 and 2.0 disagree beyond relative tolerance 1e-10 (lines [2, 5])"
        )

    def test_one_body_conflict_is_reported_before_two_body(self, tmp_path):
        path = write_lines(
            tmp_path,
            ["&FCI NORB=2,NELEC=2 /", "1.0 1 1 2 2", "2.0 2 2 1 1", "1.0 1 2 0 0", "", "1.5 2 1 0 0"],
        )
        with pytest.raises(FcidumpError, match=r"^line 6: conflicting one-body .*\(2, 1\).*\[4, 6\]"):
            load_integrals(path)

    def test_duplicates_are_added_in_file_order(self, tmp_path):
        # Within the asymmetry tolerance, but their sum depends on the order.
        values = [0.10000000000001, 0.10000000000002002, 0.10000000000005001]
        assert len({(a + b + c) / 3 for a, b, c in itertools.permutations(values)}) > 1
        path = write_lines(
            tmp_path,
            ["&FCI NORB=2,NELEC=2 /"]
            + [f"{v!r} {i} {j} 0 0" for v, (i, j) in zip(values, [(1, 2), (2, 1), (1, 2)])],
        )
        assert load_integrals(path).h[0, 1] == (values[0] + values[1] + values[2]) / 3

    def test_python_number_spellings_still_load(self, tmp_path):
        # The C parser rejects these; the per-record rules accept them.
        plain = write_lines(
            tmp_path, ["&FCI NORB=2,NELEC=2 /", "1000.5 1 1 0 0", "0.25 2 1 2 1"], "plain.fcidump"
        )
        spelled = write_lines(
            tmp_path,
            ["&FCI NORB=2,NELEC=2 /", "1_000.5 +1 01 0 0", "2.5d-1 ２ 1 2 1"],
            "spelled.fcidump",
        )
        want, got = load_integrals(plain), load_integrals(spelled)
        assert got.h.tobytes() == want.h.tobytes()
        assert got.g.tobytes() == want.g.tobytes()

    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\r"], ids=repr)
    def test_only_cr_and_lf_end_a_line(self, tmp_path, brk):
        path = tmp_path / "test.fcidump"
        path.write_bytes(brk.join(["&FCI NORB=2,NELEC=2", "/", "1.0 1 1 0 0", "", "nan 1 1 0 0"]).encode())
        with pytest.raises(FcidumpError, match="^line 5: non-finite"):
            load_integrals(path)

    @pytest.mark.parametrize("space", ["\x0b", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"], ids=repr)
    def test_other_line_breaks_are_spaces(self, tmp_path, space):
        # str.splitlines() would end a line here; numpy and str.split() read
        # a space, so the record keeps its 5 fields and the next line is 3.
        lines = ["&FCI NORB=2,NELEC=2 /", f"1.0 1 1{space}0 0{space}", "nan 1 1 0 0"]
        with pytest.raises(FcidumpError, match="^line 3: non-finite"):
            load_integrals(write_lines(tmp_path, lines))

    @pytest.mark.parametrize("space", [" ", "\t", "\x0b", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"], ids=repr)
    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\r"], ids=repr)
    def test_separators_load_bit_equal(self, tmp_path, monkeypatch, space, brk):
        # ASCII separators with \n or \r\n take numpy's parser; the others,
        # and a bare \r, which numpy rejects, take the per-line path.
        plain = tmp_path / "plain.fcidump"
        write_integrals(plain, random_hamiltonian(4, np.random.default_rng(66), n_electrons=4))
        lines = plain.read_text().splitlines()
        assert lines[1] == " &END"
        spaced = tmp_path / "spaced.fcidump"
        spaced.write_bytes(brk.join([*lines[:2], *(space.join(line.split()) for line in lines[2:]), ""]).encode())
        fast, checked = space.isascii() and brk != "\r", []
        check = None if fast else fcidump._check_record
        monkeypatch.setattr(fcidump, "_check_record", lambda *args: checked.append(args) or check(*args))
        want, got = load_integrals(plain), load_integrals(spaced)
        assert len(checked) == (0 if fast else len(lines) - 2)
        assert got.h.tobytes() == want.h.tobytes()
        assert got.g_pairs.tobytes() == want.g_pairs.tobytes()
        assert got.core_constant == want.core_constant

    def test_non_ascii_header(self, tmp_path):
        # 12 two-byte characters: the data starts 12 bytes after its
        # character offset, where "9.0 1 1 0 0" is header text.
        lines = ["&FCI NORB=2,NELEC=2, TITLE=" + "é" * 12, "&END 9.0 1 1 0 0", "1.0 1 1 0 0"]
        assert load_integrals(write_lines(tmp_path, lines)).h[0, 0] == 1.0

    def test_form_feed_does_not_end_the_header(self, tmp_path):
        # The record after the form feed is on the terminator's line, which is ignored.
        path = write_lines(tmp_path, ["&FCI NORB=1,NELEC=1 /\f1.5 1 1 0 0", "2.5 1 1 0 0"])
        assert load_integrals(path).h[0, 0] == 2.5

    def test_peak_memory_is_a_few_tensors(self, tmp_path):
        path = tmp_path / "n16.fcidump"
        write_integrals(path, random_hamiltonian(16, np.random.default_rng(7), n_electrons=16))
        tracemalloc.start()
        try:
            ham = load_integrals(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * ham.g.nbytes

    def test_peak_memory_is_a_few_file_sizes(self, tmp_path):
        # The file's bytes, the parsed records until their keys and values
        # are taken, then record-sized integer arrays: no translated copy of
        # a file without D exponents, no 40-byte records while grouping.
        path = tmp_path / "n16.fcidump"
        write_integrals(path, random_hamiltonian(16, np.random.default_rng(7), n_electrons=16))
        assert b"D" not in path.read_bytes().partition(b"&END")[2].upper()
        tracemalloc.start()
        try:
            load_integrals(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * path.stat().st_size

    def test_parse_arrays_freed_before_the_tensor(self, tmp_path):
        # The per-record arrays of the parse (about 40 bytes a record, one
        # record per orbit of 8) must be gone when the pair block and its
        # one-body contraction are built. The bound is four N^4 tensors.
        path = tmp_path / "n16.fcidump"
        write_integrals(path, random_hamiltonian(16, np.random.default_rng(7), n_electrons=16))
        data = path.read_bytes()
        tracemalloc.start()
        try:
            _, g_pairs, _, _ = fcidump._read(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g_pairs.shape == (136, 136)
        assert peak <= 4 * 16**4 * 8


def normal_ordered_dense(t, v, core, n):
    """Dense matrix of the chemists'-notation normal-ordered Hamiltonian.

    core + sum_ijs t_ij a+_is a_js
         + 1/2 sum_ijkl,st (ij|kl) a+_is a+_kt a_lt a_js

    built directly from ladder operators: an independent path that never
    touches the loader's convention conversion.
    """
    dim = 4**n
    ladder = {
        (j, s, d): ladder_operator(j, s, d, n)
        for j in range(n)
        for s in (0, 1)
        for d in (False, True)
    }
    out = core * np.eye(dim)
    for i in range(n):
        for j in range(n):
            for s in (0, 1):
                out += t[i, j] * ladder[(i, s, True)] @ ladder[(j, s, False)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if v[i, j, k, l] == 0.0:
                        continue
                    for s in (0, 1):
                        for tau in (0, 1):
                            out += (
                                0.5
                                * v[i, j, k, l]
                                * ladder[(i, s, True)]
                                @ ladder[(k, tau, True)]
                                @ ladder[(l, tau, False)]
                                @ ladder[(j, s, False)]
                            )
    return out


class TestConventionConversion:
    def test_loader_preserves_the_operator(self, tmp_path):
        # Write random normal-ordered integrals, load them, and compare the
        # excitation-ordered sector blocks against an independent full-Fock
        # construction in a+a+aa order, sector by sector. Equality as
        # operators is the whole point of the conversion.
        rng = np.random.default_rng(42)
        n = 2
        t = symmetrize_one_body(rng.standard_normal((n, n)))
        v = Hamiltonian(t, rng.standard_normal((n, n, n, n))).g
        core = float(rng.standard_normal())

        lines = [f" &FCI NORB={n},NELEC=2,MS2=0,", " &END"]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        lines.append(
                            f"{v[i, j, k, l]:.17g} {i + 1} {j + 1} {k + 1} {l + 1}"
                        )
        for i in range(n):
            for j in range(n):
                lines.append(f"{t[i, j]:.17g} {i + 1} {j + 1} 0 0")
        lines.append(f"{core:.17g} 0 0 0 0")
        path = write_lines(tmp_path, lines)

        ham = load_integrals(path)
        source = normal_ordered_dense(t, v, core, n)
        for n_e in range(2 * n + 1):
            states = sector_states(n, n_e)
            converted = sector_hamiltonian(ham, n_e)
            assert np.max(np.abs(converted - source[np.ix_(states, states)])) < 1e-12

    def test_convention_tag(self):
        assert "chemist" in INTEGRAL_CONVENTION


class TestWriter:
    def test_fixture_roundtrip_bit_exact(self, tmp_path, fixture_fcidump):
        ham = load_integrals(fixture_fcidump)
        out = tmp_path / "rewritten.fcidump"
        write_integrals(out, ham)
        assert out.read_bytes() == fixture_fcidump.read_bytes()

    def test_random_roundtrip_close(self, tmp_path):
        rng = np.random.default_rng(43)
        ham = random_hamiltonian(3, rng, n_electrons=4)
        path = tmp_path / "random.fcidump"
        write_integrals(path, ham)
        back = load_integrals(path)
        assert np.allclose(back.h, ham.h, rtol=1e-13, atol=1e-13)
        assert np.allclose(back.g, ham.g, rtol=1e-13, atol=1e-13)
        assert back.core_constant == pytest.approx(ham.core_constant, rel=1e-15)
        assert back.n_electrons == ham.n_electrons

    def test_writer_emits_canonical_representatives_once(self, tmp_path):
        rng = np.random.default_rng(44)
        ham = random_hamiltonian(3, rng, n_electrons=2)
        path = tmp_path / "canon.fcidump"
        write_integrals(path, ham)
        seen = set()
        for line in path.read_text().splitlines()[2:]:
            _value, i, j, k, l = line.split()
            key = (int(i), int(j), int(k), int(l))
            assert key not in seen
            seen.add(key)
            if key[2] == 0:
                continue
            if key == (0, 0, 0, 0):
                continue
            i, j, k, l = key
            assert i >= j and k >= l and (i, j) >= (k, l)

    def test_overflowing_integrals_are_refused(self, tmp_path):
        # (ij|kl) = 2g overflows for g = 1e308: the writer raises before it
        # opens the file, instead of writing an inf that the loader rejects.
        g = np.zeros((1, 1, 1, 1))
        g[0, 0, 0, 0] = 1e308
        path = tmp_path / "huge.fcidump"
        with pytest.raises(ValueError, match="overflow"):
            write_integrals(path, Hamiltonian(np.zeros((1, 1)), g))
        assert not path.exists()

    def test_peak_memory_is_below_two_file_sizes(self, tmp_path):
        # The lines go to the file as they are formatted: a list of them,
        # joined and encoded, took the peak to 6 times the file's bytes.
        ham = random_hamiltonian(16, np.random.default_rng(7), n_electrons=16)
        path = tmp_path / "n16.fcidump"
        tracemalloc.start()
        try:
            write_integrals(path, ham)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * path.stat().st_size

    def test_written_file_loads_via_dense_oracle(self, tmp_path):
        # write -> load -> sector blocks must agree with the original ones
        rng = np.random.default_rng(45)
        ham = random_hamiltonian(2, rng, n_electrons=2)
        path = tmp_path / "oracle.fcidump"
        write_integrals(path, ham)
        back = load_integrals(path)
        for n_e in range(5):
            dev = np.max(np.abs(sector_hamiltonian(ham, n_e) - sector_hamiltonian(back, n_e)))
            assert dev < 1e-11
