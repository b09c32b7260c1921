"""Command-line interface: subcommands, exit codes, report determinism."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import random_pb_frobenius_expanding
from subperron import cli, errors, matrices, spectral, stabilizing_power, words
from subperron.cli import main

FIB = "a -> ab\nb -> a\n"
AAB = "a -> aab\nb -> bb\n"
TM = "a -> ab\nb -> ba\n"
NONEXP = "a -> ab\nb -> b\n"
# a 7-cycle and an 11-cycle of letters under x -> xya, y -> xh: not
# expanding, and the PF root of its principal block is phi**77, about 1.2e16
PERM711 = "".join(
    [f"{c} -> {cycle[(k + 1) % len(cycle)]}\n"
     for cycle in ("abcdefg", "hijklmnopqr") for k, c in enumerate(cycle)]
    + ["x -> xya\n", "y -> xh\n"])
M8_TEXT = (
    "3 1 0 0 0 0 0 0\n1 1 0 0 0 0 0 0\n1 2 2 1 0 0 0 0\n1 1 1 1 0 0 0 0\n"
    "4 0 0 0 3 1 0 0\n1 1 0 0 1 1 0 0\n0 3 1 3 2 3 2 1\n1 1 2 1 0 4 1 1\n"
)


def cycles_feeding(sizes, block, feeds):
    """Rows of cycles of the given sizes followed by the 2x2 ``block``: the
    first index of the k-th cycle feeds row ``feeds[k]`` of the block."""
    n = sum(sizes) + 2
    rows = [[0] * n for _ in range(n)]
    start = 0
    for size, feed in zip(sizes, feeds):
        for r in range(size):
            rows[start + (r + 1) % size][start + r] = 1
        rows[n - 2 + feed][start] = 1
        start += size
    rows[n - 2][n - 2:], rows[n - 1][n - 2:] = block
    return rows


@pytest.fixture
def workdir(tmp_path):
    files = {
        "fib.sub": FIB, "aab.sub": AAB, "tm.sub": TM,
        "nonexp.sub": NONEXP, "m8.txt": M8_TEXT,
        "identity.txt": "1 0\n0 1\n", "garbage.txt": "1 x\n2 3\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyzeMatrix:
    def test_eight_by_eight_json(self, capsys, workdir):
        code, out, _ = run(capsys, "analyze-matrix", workdir / "m8.txt", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["expanding"] is True
        eigs = sorted({b["eigenvalue"] for b in report["blocks"]})
        assert eigs[0] == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-9)
        assert eigs[1] == pytest.approx(2 + math.sqrt(2), abs=1e-9)
        assert [b["growth"]["degree"] for b in report["blocks"]] == [1, 1, 0, 0]
        assert report["order"] == [[1, 2], [1, 3], [1, 4], [2, 4], [3, 4]]
        assert report["dependency"] == {
            "1": [2, 3, 4], "2": [4], "3": [4], "4": []}
        assert report["principal_blocks"] == [3, 4]

    def test_distinct_integer_roots_do_not_tie(self, capsys, tmp_path):
        # 1x1 blocks tie only on equal entries: 10**10 + 1 beats the 10**10
        # it feeds, although the two agree within EIG_TOL
        path = tmp_path / "near.txt"
        path.write_text("10000000001 0\n1 10000000000\n")
        code, out, _ = run(capsys, "analyze-matrix", path, "--json",
                           "--vector", "1,0", "--max-iter", "200")
        assert code == 0
        report = json.loads(out)
        assert [b["growth"]["degree"] for b in report["blocks"]] == [0, 0]
        assert report["principal_blocks"] == [1, 2]
        assert report["limit"]["growth"]["degree"] == 0

    def test_root_beyond_float_range_exits_4(self, capsys, tmp_path):
        # cycles of lengths 7, 11 and 13 each feed [[2, 1], [1, 1]] through
        # one entry: the primitive-Frobenius power is 1001, and its block
        # [[2, 1], [1, 1]]**1001 has entries near 10**418
        n = 7 + 11 + 13 + 2
        rows = [[0] * n for _ in range(n)]
        start = 0
        for size in (7, 11, 13):
            for r in range(size):
                rows[start + (r + 1) % size][start + r] = 1
            rows[n - 2][start] = 1
            start += size
        rows[n - 2][n - 2:] = [2, 1]
        rows[n - 1][n - 2:] = [1, 1]
        path = tmp_path / "cyc7_11_13.txt"
        path.write_text("".join(" ".join(map(str, r)) + "\n" for r in rows))
        code, out, err = run(capsys, "analyze-matrix", path, "--json")
        assert (code, out) == (4, "")
        assert err == ("error: M^1001 (primitive-Frobenius power): block B32 "
                       "has an entry beyond float range\n")

    @pytest.mark.parametrize("sizes, block, feeds, base_root", [
        # cycles14: a 5- and a 7-cycle feed [[2, 1], [3, 1]], t = 35
        ((5, 7), [[2, 1], [3, 1]], (0, 1), (3 + 13**0.5) / 2),
        # cyc7_11: a 7- and an 11-cycle feed [[2, 1], [1, 1]], t = 77
        ((7, 11), [[2, 1], [1, 1]], (0, 0), (3 + 5**0.5) / 2),
    ], ids=["cycles14", "cyc7_11"])
    def test_power_block_takes_the_base_root(self, capsys, tmp_path, sizes,
                                             block, feeds, base_root):
        # the block of M^t over the 2x2 block is its t-th power: root
        # lam**t, near 1.4e18 and 1.5e32, with the 2x2 block's PF vector,
        # where certifying the power's block itself could not close its
        # absolute bracket
        rows = cycles_feeding(sizes, block, feeds)
        path = tmp_path / "cycles.txt"
        path.write_text("".join(" ".join(map(str, r)) + "\n" for r in rows))
        code, out, err = run(capsys, "analyze-matrix", path, "--json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        t = math.lcm(*sizes)
        assert report["primitive_frobenius_exponent"] == t
        assert report["principal_blocks"] == [len(report["blocks"])]
        mt = matrices.ExactMatrix(rows).pow(t).entries
        for pe in report["principal_eigenvectors"]:
            lam, v = pe["eigenvalue"], pe["vector"]
            assert abs(lam - base_root**t) <= 1e-9 * base_root**t
            mv = [math.fsum(float(a) * x for a, x in zip(row, v)) for row in mt]
            residual = math.fsum(abs(y - lam * x) for y, x in zip(mv, v))
            assert residual <= 1e-9 * lam * math.fsum(map(abs, v))

    @pytest.mark.parametrize("extra", [(), ("--vector", "1,0")])
    def test_entry_beyond_float_range_exits_4(self, capsys, tmp_path, extra):
        # the entry 10**400 lies outside the diagonal blocks: the principal
        # eigenvector's float matvec meets it, not the PF certification
        path = tmp_path / "big400.txt"
        path.write_text(f"2 0\n{10**400} 3\n")
        code, out, err = run(capsys, "analyze-matrix", path, *extra)
        assert (code, out) == (4, "")
        assert err == "error: a matrix entry lies beyond float range\n"

    def test_require_expanding_violation(self, capsys, workdir):
        code, _, err = run(capsys, "analyze-matrix", workdir / "identity.txt",
                           "--require-expanding")
        assert (code, err) == (3, "error: matrix is not expanding\n")

    def test_vector_limit(self, capsys, workdir):
        (workdir / "fib.txt").write_text("1 1\n1 0\n")
        code, out, _ = run(capsys, "analyze-matrix", workdir / "fib.txt",
                           "--vector", "1,0", "--json")
        assert code == 0
        limit = json.loads(out)["limit"]
        assert limit["limit"][0] == pytest.approx(0.618033988750, abs=1e-8)
        assert limit["limit"][1] == pytest.approx(0.381966011250, abs=1e-8)
        assert limit["converged"] is True

    def test_parse_error(self, capsys, workdir):
        code, _, err = run(capsys, "analyze-matrix", workdir / "garbage.txt")
        assert code == 2
        assert err

    @pytest.mark.parametrize("text", [
        "[[1.5, 0], [0, 2]]", "[[true, 1], [0, 2]]", "[[1e300, 0], [0, 1]]"])
    def test_json_non_integer_entry(self, capsys, workdir, text):
        (workdir / "bad.json").write_text(text)
        code, out, err = run(capsys, "analyze-matrix", workdir / "bad.json")
        assert (code, out) == (2, "")
        assert "not an integer" in err

    def test_missing_file(self, capsys, workdir):
        code, _, _ = run(capsys, "analyze-matrix", workdir / "nope.txt")
        assert code == 2

    def test_bad_vector_length(self, capsys, workdir):
        code, _, err = run(capsys, "analyze-matrix", workdir / "m8.txt",
                           "--vector", "1,0")
        assert code == 2
        assert "dimension" in err

    def test_zero_vector(self, capsys, workdir):
        (workdir / "fib2.txt").write_text("1 1\n1 0\n")
        code, _, _ = run(capsys, "analyze-matrix", workdir / "fib2.txt",
                         "--vector", "0,0")
        assert code == 2

    def test_degenerate_zero_matrix(self, capsys, workdir):
        (workdir / "zero.txt").write_text("0\n")
        code, out, _ = run(capsys, "analyze-matrix", workdir / "zero.txt",
                           "--json")
        assert code == 0
        report = json.loads(out)
        assert report["expanding"] is False
        assert report["principal_blocks"] is None
        assert "principal_note" in report

    def test_json_round_trip_and_determinism(self, capsys, workdir):
        code, out1, _ = run(capsys, "analyze-matrix", workdir / "m8.txt", "--json")
        assert code == 0
        code, out2, _ = run(capsys, "analyze-matrix", workdir / "m8.txt", "--json")
        assert out1 == out2
        report = json.loads(out1)
        assert json.loads(json.dumps(report)) == report


class TestAnalyzeSubst:
    def test_fibonacci_blowup(self, capsys, workdir):
        code, out, _ = run(capsys, "analyze-subst", workdir / "fib.sub",
                           "--blowup", "2", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["stabilizing_power"] == 1
        assert report["blowup"]["alphabet_size"] == 3
        assert report["blowup"]["primitive"] is True
        assert report["blowup"]["pb_frobenius"] is True

    def test_non_expanding_exits_3(self, capsys, workdir):
        code, _, err = run(capsys, "analyze-subst", workdir / "nonexp.sub")
        assert code == 3
        assert "expanding" in err

    def test_non_expanding_exits_3_before_the_report(self, capsys, tmp_path):
        # the report's principal eigenvector has a residual of about 2.8
        # (2e-16 of its root): the expanding gate decides first
        sub = tmp_path / "perm711.sub"
        sub.write_text(PERM711)
        code, out, err = run(capsys, "analyze-subst", sub, "--json")
        assert (code, out) == (3, "")
        assert "not expanding" in err
        mat = tmp_path / "perm711.mat"
        rows = words.parse_substitution(PERM711).incidence_matrix().entries
        mat.write_text("".join(" ".join(map(str, r)) + "\n" for r in rows))
        code, out, _ = run(capsys, "analyze-matrix", mat, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["expanding"] is False
        assert report["principal_eigenvectors"][0]["eigenvalue"] > 1e16

    def test_reducible_block_order(self, capsys, workdir):
        code, out, _ = run(capsys, "analyze-subst", workdir / "aab.sub", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["stabilizing_power"] == 1
        blocks = report["incidence"]["blocks"]
        assert [b["indices"] for b in blocks] == [["a"], ["b"]]
        assert report["incidence"]["order"] == [[1, 2]]

    def test_text_output(self, capsys, workdir):
        code, out, _ = run(capsys, "analyze-subst", workdir / "fib.sub",
                           "--blowup", "2")
        assert code == 0
        assert "stabilizing power: 1" in out
        assert "alphabet size 3" in out
        assert "primitive: true" in out


class TestFreq:
    def test_fibonacci_pairs(self, capsys, workdir):
        code, out, _ = run(capsys, "freq", workdir / "fib.sub",
                           "--letter", "a", "--max-len", "2", "--tol", "1e-10")
        assert code == 0
        table = json.loads(out)
        assert table["base_letter"] == "a"
        assert table["power_used"] == 1
        assert table["frequencies"]["ab"] == pytest.approx(0.381966011250, abs=1e-6)
        assert table["growth_rate"] == pytest.approx(1.618033988750, abs=1e-6)
        assert table["kirchhoff_max_residual"] <= 1e-6

    def test_thue_morse_letters(self, capsys, workdir):
        code, out, _ = run(capsys, "freq", workdir / "tm.sub",
                           "--letter", "a", "--max-len", "1")
        assert code == 0
        table = json.loads(out)
        assert table["frequencies"] == {"a": 0.5, "b": 0.5}

    def test_reducible_letters(self, capsys, workdir):
        code, out, _ = run(capsys, "freq", workdir / "aab.sub",
                           "--letter", "a", "--max-len", "1")
        assert code == 0
        table = json.loads(out)
        assert table["frequencies"]["a"] == pytest.approx(0.0, abs=2e-3)
        assert table["frequencies"]["b"] == pytest.approx(1.0, abs=2e-3)

    def test_power_block_takes_the_base_root(self, capsys, tmp_path):
        # a growing 8-cycle of letters feeds the block [[3, 1], [1, 1]] of
        # a and b: the stabilizing power is 8, and the block's root there
        # is (2 + sqrt 2)**8, about 18,464
        path = tmp_path / "cyc8.sub"
        path.write_text("a -> a a a b\nb -> a b\nc1 -> c2 c2 a\n" + "".join(
            f"c{k} -> c{k % 8 + 1}\n" for k in range(2, 9)))
        code, out, err = run(capsys, "freq", path, "--letter", "c1",
                             "--max-len", "2")
        assert (code, err) == (0, "")
        table = json.loads(out)
        assert table["power_used"] == 8
        assert table["frequencies"]["a"] == pytest.approx(2**-0.5, abs=1e-6)
        assert table["growth_rate"] == pytest.approx((2 + 2**0.5)**8,
                                                     rel=1e-9)

    def test_budget_exceeded_exits_4(self, capsys, workdir):
        # tol 0 never settles: the run takes its whole budget
        code, _, err = run(capsys, "freq", workdir / "aab.sub",
                           "--letter", "a", "--max-len", "1",
                           "--tol", "0", "--max-iter", "50")
        assert code == 4
        assert err

    def test_non_expanding_exits_3(self, capsys, workdir):
        code, _, _ = run(capsys, "freq", workdir / "nonexp.sub", "--letter", "a")
        assert code == 3

    def test_determinism(self, capsys, workdir):
        args = ("freq", workdir / "fib.sub", "--letter", "a", "--max-len", "2")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestMeasure:
    def test_absent_factor_is_zero(self, capsys, workdir):
        code, out, _ = run(capsys, "measure", workdir / "fib.sub",
                           "--letter", "a", "--word", "bb")
        assert code == 0
        assert float(out) == 0.0

    def test_fibonacci_pair(self, capsys, workdir):
        code, out, _ = run(capsys, "measure", workdir / "fib.sub",
                           "--letter", "a", "--word", "ab", "--tol", "1e-10")
        assert code == 0
        assert float(out) == pytest.approx(0.381966011250, abs=1e-9)
        # 12 significant digits
        mantissa = out.strip().replace("-", "").replace(".", "").lstrip("0")
        assert len(mantissa) == 12

    def test_thue_morse_letter(self, capsys, workdir):
        code, out, _ = run(capsys, "measure", workdir / "tm.sub",
                           "--letter", "b", "--word", "a")
        assert code == 0
        assert float(out) == pytest.approx(0.5, abs=1e-9)

    def test_unknown_letter_exits_2(self, capsys, workdir):
        code, _, err = run(capsys, "measure", workdir / "fib.sub",
                           "--letter", "a", "--word", "ax")
        assert code == 2
        assert "unknown letter" in err


class TestDecomposeOnce:
    """Each command decomposes its matrix once: ``scc_blocks`` is counted in
    every namespace that binds it.  It also certifies each block's PF pair
    once: ``block_eigenvalues`` is counted the same way, and ``certify``
    counts the runs of the certifying computation behind
    ``pf_eigen_block``."""

    INPUTS = Path(__file__).parent / "golden" / "inputs"

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"scc_blocks": 0, "incidence_matrix": 0}
        scc_blocks = matrices.scc_blocks
        incidence_matrix = words.Substitution.incidence_matrix

        def counting_scc_blocks(m):
            counts["scc_blocks"] += 1
            return scc_blocks(m)

        def counting_incidence_matrix(s):
            counts["incidence_matrix"] += 1
            return incidence_matrix(s)

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "subperron"
                    and vars(module).get("scc_blocks") is scc_blocks):
                monkeypatch.setattr(module, "scc_blocks", counting_scc_blocks)
        monkeypatch.setattr(words.Substitution, "incidence_matrix",
                            counting_incidence_matrix)
        return counts

    @pytest.fixture
    def pf_counts(self, monkeypatch):
        pf_counts = {"block_eigenvalues": 0, "certify": 0}
        block_eigenvalues = spectral.block_eigenvalues
        certify = spectral._certify_pf

        def counting_block_eigenvalues(m, dec):
            pf_counts["block_eigenvalues"] += 1
            return block_eigenvalues(m, dec)

        def counting_certify(m, dec, i):
            pf_counts["certify"] += 1
            return certify(m, dec, i)

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "subperron"
                    and vars(module).get("block_eigenvalues")
                    is block_eigenvalues):
                monkeypatch.setattr(module, "block_eigenvalues",
                                    counting_block_eigenvalues)
        monkeypatch.setattr(spectral, "_certify_pf", counting_certify)
        return pf_counts

    def test_analyze_matrix_limit(self, capsys, counts, pf_counts):
        # four 2x2 primitive blocks, each certified once although the
        # report, the limit and two principal eigenvectors all use them
        code, _, _ = run(capsys, "analyze-matrix", self.INPUTS / "m8.mat",
                         "--json", "--vector", "0,0,0,0,1,0,0,0")
        assert code == 0
        assert counts["scc_blocks"] == 1
        assert pf_counts["certify"] == 4

    def test_power_takes_the_pairs_of_the_base(self, capsys, pf_counts):
        # case3's two primitive blocks are certified once, on M, for the
        # report on M^2 and for the limit on M; its two zero/one blocks on
        # M^2
        code, _, _ = run(capsys, "analyze-matrix", self.INPUTS / "case3.mat",
                         "--json", "--vector", "1,0,0,0,0,0")
        assert code == 0
        assert pf_counts["certify"] == 4

    def test_freq(self, capsys, pf_counts):
        code, _, _ = run(capsys, "freq", self.INPUTS / "fibonacci.sub",
                         "--letter", "a", "--max-len", "3")
        assert code == 0
        assert pf_counts == {"block_eigenvalues": 1, "certify": 1}

    @pytest.mark.parametrize("argv", [
        ("freq", "fibonacci.sub", "--letter", "a", "--max-len", "3"),
        ("measure", "fibonacci.sub", "--letter", "a", "--word", "ab"),
    ])
    def test_freq_and_measure_decompose_once(self, capsys, counts, argv):
        # the stabilizing power is 1: its decomposition is the letter limit's
        code, _, _ = run(capsys, argv[0], self.INPUTS / argv[1], *argv[2:])
        assert code == 0
        assert counts == {"scc_blocks": 1, "incidence_matrix": 1}

    def test_no_pair_outlives_its_command(self, capsys, pf_counts):
        m8 = ("analyze-matrix", self.INPUTS / "m8.mat", "--json")
        assert run(capsys, *m8)[0] == 0
        assert run(capsys, *m8)[0] == 0
        assert pf_counts["certify"] == 8
        assert run(capsys, "analyze-matrix", self.INPUTS / "case3.mat")[0] == 0
        assert pf_counts["certify"] > 8

    def test_analyze_matrix(self, capsys, counts):
        code, _, _ = run(capsys, "analyze-matrix", self.INPUTS / "m8.mat",
                         "--json")
        assert code == 0
        assert counts["scc_blocks"] == 1

    def test_analyze_subst(self, capsys, counts):
        code, _, _ = run(capsys, "analyze-subst",
                         self.INPUTS / "fibonacci.sub", "--json")
        assert code == 0
        assert counts == {"scc_blocks": 1, "incidence_matrix": 1}

    def test_analyze_subst_blowup(self, capsys, counts):
        # the letter matrix and the blow-up's: the report has shown the
        # input expanding, so the blow-up runs no gate of its own
        code, _, _ = run(capsys, "analyze-subst", self.INPUTS / "case3.sub",
                         "--json", "--blowup", "3")
        assert code == 0
        assert counts == {"scc_blocks": 2, "incidence_matrix": 2}

    def test_stabilizing_power(self, fib, counts):
        assert stabilizing_power(fib) == 1
        assert counts == {"scc_blocks": 1, "incidence_matrix": 1}


class TestRootsFromTheBaseBlock:
    """The primitive blocks of a power ``M^t`` that are primitive blocks of
    ``M`` take ``lam**t`` and ``M``'s PF vector, where certifying them on
    the power would raise ``MaxIterError`` above a root of about 1e4."""

    #: the reference below certifies the power's blocks only when every
    #: root lies below this: above it, the absolute bracket can stall for
    #: the whole 500,000-step budget
    CERTIFIED_BELOW = 1e4

    def test_seeded_generator_agrees_with_certifying_the_power(self):
        rng = random.Random(7)
        powers = compared = 0
        for _ in range(300):
            m = random_pb_frobenius_expanding(rng, max_n=9, max_entry=4)
            dec0 = matrices.scc_blocks(m)
            t, mt, dec = matrices._frobenius_power(m, dec0, split_cyclic=True)
            if t == 1:
                continue
            powers += 1
            report = cli._matrix_report(m, dec0)  # raises no MaxIterError
            roots = [b["eigenvalue"] for b in report["blocks"]]
            if max(roots) >= self.CERTIFIED_BELOW:
                continue
            compared += 1
            eig = [spectral._certify_pf(mt, dec, i)[0]
                   for i in range(dec.num_blocks)]
            for root, lam in zip(roots, eig):
                assert abs(root - lam) <= spectral.EIG_TOL * lam
            assert [b["growth"]["degree"] for b in report["blocks"]] == [
                spectral.growth_type(dec, eig, i).degree
                for i in range(dec.num_blocks)]
            try:
                principal = [i + 1 for i in
                             sorted(spectral.principal_blocks(dec, eig))]
            except errors.ZeroColumnError:
                principal = None
            assert report["principal_blocks"] == principal
        assert (powers, compared) == (77, 71)


class TestFrobeniusExponent:
    def test_pb_exponent_takes_no_power(self, capsys, monkeypatch):
        # the antidiagonal fixture's PB-Frobenius exponent is 2; only the
        # primitive-Frobenius refinement needs the power of the matrix
        calls = []
        pow_ = matrices.ExactMatrix.pow

        def counting_pow(m, t):
            calls.append(t)
            return pow_(m, t)

        monkeypatch.setattr(matrices.ExactMatrix, "pow", counting_pow)
        code, out, _ = run(capsys, "analyze-matrix",
                           TestDecomposeOnce.INPUTS / "antidiag4.mat")
        assert code == 0
        assert "pb-frobenius exponent: 2" in out
        assert len(calls) == 1


class TestParserReuse:
    """``main`` builds its parser once per process; parsing leaves it as it
    was, and the handler is looked up by name at each call."""

    INPUTS = TestDecomposeOnce.INPUTS

    @staticmethod
    def fresh(*argv):
        """Exit code, stdout and stderr of the command in a new interpreter."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "subperron.cli", *map(str, argv)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=path))
        return done.returncode, done.stdout, done.stderr

    def test_calls_print_what_fresh_calls_print(self, capsys):
        freq = ("freq", self.INPUTS / "fibonacci.sub", "--letter", "a",
                "--max-len", "3")
        bad = ("freq", self.INPUTS / "fibonacci.sub", "--max-len", "x")
        report = ("analyze-matrix", self.INPUTS / "m8.mat", "--json")
        for argv in (freq, bad, report, freq):
            try:
                got = run(capsys, *argv)
            except SystemExit as exc:
                captured = capsys.readouterr()
                got = (exc.code, captured.out, captured.err)
            assert got == self.fresh(*argv), argv
        assert got[0] == 0 and got[1]

    def test_handler_replaced_after_first_call_runs(self, capsys,
                                                    monkeypatch):
        argv = ("freq", self.INPUTS / "fibonacci.sub", "--letter", "a")
        assert run(capsys, *argv)[0] == 0
        calls = []
        cmd_freq = cli.cmd_freq

        def wrapped(args):
            calls.append(args.letter)
            return cmd_freq(args)

        monkeypatch.setattr(cli, "cmd_freq", wrapped)
        assert run(capsys, *argv)[0] == 0
        assert calls == ["a"]


class TestExitCodes:
    """``main`` prints each error as ``error: ...`` and exits with the code
    of its class; an unreadable file or invalid value exits 2."""

    @pytest.mark.parametrize("exc, code", [
        (errors.SubperronError, 1), (errors.SingularSystemError, 1),
        (errors.NotPrincipalError, 1), (errors.ParseError, 2),
        (OSError, 2), (ValueError, 2), (errors.NotExpandingError, 3),
        (errors.NotPBFrobeniusError, 3), (errors.ZeroColumnError, 3),
        (errors.MaxIterError, 4), (errors.ImageOverflowError, 4),
        (errors.FloatRangeError, 4),
    ])
    def test_code_of_each_class(self, capsys, monkeypatch, exc, code):
        def failing(args):
            raise exc("boom")

        monkeypatch.setattr(cli, "cmd_measure", failing)
        got = run(capsys, "measure", "any.sub", "--letter", "a", "--word", "a")
        assert got == (code, "", "error: boom\n")


class TestArgumentRanges:
    """``--max-iter`` is an integer >= 0 and ``--tol`` a finite float >= 0;
    any other value is refused while the arguments are parsed, with exit
    2, before any input is read."""

    COMMANDS = {
        "analyze-matrix": ("analyze-matrix", "fib2.txt", "--vector", "1,0"),
        "freq": ("freq", "fib.sub", "--letter", "a", "--max-len", "1"),
        "measure": ("measure", "fib.sub", "--letter", "a", "--word", "a"),
    }
    # starts whose closure holds two principal blocks of the top root, so
    # that they settle only by iterating
    TWO_HEADS = {
        "analyze-matrix": ("analyze-matrix", "two.txt", "--vector", "0,0,1"),
        "freq": ("freq", "two.sub", "--letter", "t", "--max-len", "1"),
        "measure": ("measure", "two.sub", "--letter", "t", "--word", "a"),
    }

    def argv(self, workdir, command, *extra, starts=COMMANDS):
        name, file, *rest = starts[command]
        (workdir / "fib2.txt").write_text("1 1\n1 0\n")
        (workdir / "two.txt").write_text("10 0 1\n0 10 1\n0 0 9\n")
        (workdir / "two.sub").write_text("t -> tab\na -> aa\nb -> bb\n")
        return (name, workdir / file, *rest, *extra)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("option, value, message", [
        ("--max-iter", "-5", "must be an integer >= 0, got '-5'"),
        ("--max-iter", "2.5", "invalid int value: '2.5'"),
        ("--tol", "nan", "must be a finite float >= 0, got 'nan'"),
        ("--tol", "-1", "must be a finite float >= 0, got '-1'"),
        ("--tol", "inf", "must be a finite float >= 0, got 'inf'"),
        ("--tol", "x", "invalid float value: 'x'"),
    ])
    def test_refused_at_parse_time(self, capsys, workdir, command, option,
                                   value, message):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *self.argv(workdir, command, f"{option}={value}"))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument {option}: {message}\n" in captured.err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_zero_is_legal(self, capsys, workdir, command):
        # tol 0 never settles, nor does a start with two heads without a
        # step, so a budget of 3 or 0 steps is spent: a warning from
        # analyze-matrix, exit 4 from the frequency commands
        for starts, extra in ((self.COMMANDS, ("--tol", "0", "--max-iter", "3")),
                              (self.TWO_HEADS, ("--max-iter", "0"))):
            code, out, err = run(capsys, *self.argv(workdir, command, *extra,
                                                    starts=starts))
            if command == "analyze-matrix":
                assert code == 0 and "converged=False" in out
                assert "max_iter=" in err
            else:
                assert code == 4 and "did not settle" in err
        # a start with one head settles on its principal eigenvector
        code, out, err = run(capsys, *self.argv(workdir, command,
                                                "--max-iter", "0"))
        assert code == 0 and err == ""
        if command == "analyze-matrix":
            assert "iterations=0 converged=True" in out
