"""Command-line interface: subcommands, exit codes, report determinism."""

import json
import math
import sys
from pathlib import Path

import pytest

from subperron import matrices, stabilizing_power, words
from subperron.cli import main

FIB = "a -> ab\nb -> a\n"
AAB = "a -> aab\nb -> bb\n"
TM = "a -> ab\nb -> ba\n"
NONEXP = "a -> ab\nb -> b\n"
M8_TEXT = (
    "3 1 0 0 0 0 0 0\n1 1 0 0 0 0 0 0\n1 2 2 1 0 0 0 0\n1 1 1 1 0 0 0 0\n"
    "4 0 0 0 3 1 0 0\n1 1 0 0 1 1 0 0\n0 3 1 3 2 3 2 1\n1 1 2 1 0 4 1 1\n"
)


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

    def test_require_expanding_violation(self, capsys, workdir):
        code, _, err = run(capsys, "analyze-matrix", workdir / "identity.txt",
                           "--require-expanding")
        assert code == 3
        assert "expanding" in err

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
    every namespace that binds it."""

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

    def test_stabilizing_power(self, fib, counts):
        assert stabilizing_power(fib) == 1
        assert counts == {"scc_blocks": 1, "incidence_matrix": 1}


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
