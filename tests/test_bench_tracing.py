"""The benchmark's tracer, ``bench/tracing.py``, against the package: its
constructor resolves every traced name, so a renamed or removed function
fails here, and a traced command prints what an untraced one prints."""

import importlib.util
from pathlib import Path

from subperron.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_command_keeps_stdout(capsys):
    # tol 0 never settles, so the limit spends its budget of 50 steps and
    # the command exits 0 with a warning
    argv = ["analyze-matrix", str(ROOT / "tests" / "golden" / "inputs" / "m8.mat"),
            "--json", "--vector", "1,0,0,0,0,0,0,0", "--tol", "0",
            "--max-iter", "50"]
    assert main(argv) == 0
    untraced = capsys.readouterr().out
    tracer = _load_tracing().Tracer("subperron")
    tracer.install()
    try:
        code = main(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    assert capsys.readouterr().out == untraced
    assert tracer.pass_metrics()["spectral.iterations"] > 0
    # the handler runs through the tracer's wrapper, although the parser
    # was built before the tracer was installed
    assert "cli.cmd_analyze_matrix" in {tracer.names[k] for k in tracer.span_name}
