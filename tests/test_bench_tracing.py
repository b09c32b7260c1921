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
    # the closure of t holds two heads of root 2, so the letter limit
    # iterates
    argv = ["freq", str(ROOT / "tests" / "golden" / "inputs" / "two_bottom.sub"),
            "--letter", "t", "--max-len", "3"]
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
    assert "cli.cmd_freq" in {tracer.names[k] for k in tracer.span_name}
