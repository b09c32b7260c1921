"""The package's records are named tuples: fields in a fixed order, keyword
construction, immutability and a ``Name(field=...)`` repr; the PF cache of
``BlockDecomposition`` stays out of its equality, hash and repr."""

import subprocess
import sys
from pathlib import Path

import pytest

from subperron import (
    ExactMatrix,
    block_eigenvalues,
    frequency_table,
    kirchhoff_check,
    normalized_limit,
    principal_blocks,
    principal_eigenvector,
    scc_blocks,
)
from subperron.errors import MaxIterError
from subperron.frequencies import FrequencyTable, KirchhoffReport
from subperron.matrices import BlockDecomposition
from subperron.spectral import (
    ConvergenceReport,
    GrowthType,
    PrincipalEigenvector,
)

FIELDS = {
    GrowthType: ("lam", "degree"),
    ConvergenceReport: ("limit", "eigenvalue", "iterations", "residual",
                        "growth", "converged", "diagnostic"),
    PrincipalEigenvector: ("block", "eigenvalue", "vector", "pf_support",
                           "dependency_support"),
    FrequencyTable: ("substitution", "base_letter", "power_used", "max_len",
                     "entries", "growth_rate", "iterations"),
    KirchhoffReport: ("max_residual", "worst_word"),
    BlockDecomposition: ("n", "perm", "spans", "classes", "dependency",
                         "block_index"),
}


@pytest.fixture(scope="module")
def records(fib):
    m = ExactMatrix([[3, 0], [1, 2]])
    dec = scc_blocks(m)
    eig = block_eigenvalues(m, dec)
    table = frequency_table(fib, "a", max_len=2)
    return {
        GrowthType: GrowthType(lam=2.0, degree=1),
        ConvergenceReport: normalized_limit(m, [1, 0], dec=dec),
        PrincipalEigenvector: principal_eigenvector(
            m, dec, eig, sorted(principal_blocks(dec, eig))[0]),
        FrequencyTable: table,
        KirchhoffReport: kirchhoff_check(table),
        BlockDecomposition: dec,
    }


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
class TestRecord:
    def test_keyword_construction(self, records, cls):
        rec = records[cls]
        assert cls._fields == FIELDS[cls]
        again = cls(**{f: getattr(rec, f) for f in FIELDS[cls]})
        assert type(again) is cls and again == rec

    def test_assignment_raises(self, records, cls):
        rec = records[cls]
        for name in (*FIELDS[cls], "extra"):
            with pytest.raises(AttributeError):
                setattr(rec, name, 0)
        assert tuple(rec) == tuple(getattr(rec, f) for f in FIELDS[cls])

    def test_repr_names_each_field(self, records, cls):
        text = repr(records[cls])
        assert text.startswith(f"{cls.__name__}({FIELDS[cls][0]}=")
        assert all(f"{f}=" in text for f in FIELDS[cls])

    def test_unpack_index_replace(self, records, cls):
        rec = records[cls]
        *_, last = rec
        assert last is rec[-1] is getattr(rec, FIELDS[cls][-1])
        changed = rec._replace(**{FIELDS[cls][0]: None})
        assert type(changed) is cls and changed[0] is None
        assert changed[1:] == rec[1:]


def test_convergence_report_diagnostic_defaults_to_none():
    rep = ConvergenceReport(limit=(1.0,), eigenvalue=1.0, iterations=0,
                            residual=0.0, growth=GrowthType(1.0, 0),
                            converged=True)
    assert rep.diagnostic is None


def test_budget_error_carries_a_frequency_table(aab_bb):
    with pytest.raises(MaxIterError) as exc_info:
        frequency_table(aab_bb, "a", max_len=2, tol=0, max_iter=20)
    table = exc_info.value.partial
    assert type(table) is FrequencyTable
    assert table.iterations == 20 and table.max_len == 2


class TestBlockDecompositionCache:
    """``pf_pairs`` is per instance and outside the tuple."""

    M = [[3, 0], [1, 2]]

    def test_equality_and_hash_ignore_the_cache(self):
        m = ExactMatrix(self.M)
        dec = scc_blocks(m)
        before = hash(dec)
        block_eigenvalues(m, dec)
        assert dec.pf_pairs and not scc_blocks(m).pf_pairs
        assert dec == scc_blocks(m)
        assert hash(dec) == before == hash(scc_blocks(m))
        assert "pf_pairs" not in repr(dec) and len(dec) == 6

    def test_each_instance_has_its_own_cache(self):
        m = ExactMatrix(self.M)
        dec = scc_blocks(m)
        block_eigenvalues(m, dec)
        assert dec._replace().pf_pairs == {}
        assert dec.pf_pairs is dec.pf_pairs


def test_startup_loads_neither_dataclasses_nor_inspect():
    # tools/startup.py imports subperron.cli in its own fresh interpreter
    tool = Path(__file__).resolve().parents[1] / "tools" / "startup.py"
    done = subprocess.run([sys.executable, str(tool)], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "subperron.cli\n" in done.stdout
    assert "import subperron.cli: " in done.stdout.splitlines()[-1]
