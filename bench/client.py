"""The process that runs a workload's operations through ``subperron.cli.main``.

It is a single closed-loop client: each operation starts when the previous
one has returned.  It runs whole passes over the operation list until
``--seconds`` have gone by (two passes at least, so that every operation's
stdout can be compared between two calls) and writes the outputs of the
first pass, the per-operation times of every pass and the peak RSS to
``--out``.  Untraced passes run under a ``speed.SpeedClock`` and record each
operation's own time and its time scaled to the reference host speed.  With
``--trace 1`` passes alternate untraced and traced, and the step-kernel
microbenchmark runs at the end.  With ``--probe`` it only imports
``subperron.cli`` and loads the input files, which is what a CLI user pays
before the first operation, and prints the time at which that was done.

This module imports nothing beyond the standard library, subperron and
the benchmark's stdlib-only ``speed`` module, so the RSS it reports is the
program's.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402  (bench/speed.py: stdlib only)

#: blow-up levels of the step-kernel microbenchmark
MICRO_LEVELS = (16, 32)
#: trajectory steps before the microbenchmark iterate is taken (the
#: engine rescales every 64 steps, so this is the largest bit length seen)
MICRO_STEP = 63


def run_op(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is exit 1 for a CLI user
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
            rc = 1
        end = time.perf_counter()
    return rc, (start, end), out.getvalue(), err.getvalue()


def run_pass(main, ops, tracer=None):
    gc.collect()
    spans, outputs = [], []
    start = time.perf_counter()
    for k, argv in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        rc, span, out, err = run_op(main, argv)
        spans.append(span)
        outputs.append((rc, out, err))
    return time.perf_counter() - start, spans, outputs


def microbench(sub_file, letter):
    """Median time of one ``ExactMatrix.apply`` and one ``float_matvec`` on
    the level-16 and level-32 blow-ups, at the iterate of a real trajectory
    from the first factor that starts with ``letter``."""
    import statistics

    from subperron.spectral import float_matvec
    from subperron.words import blow_up, load_substitution

    s = load_substitution(sub_file)
    a = s.alphabet.index_of(letter)
    out = {}
    for level in MICRO_LEVELS:
        zn, fa = blow_up(s, level)
        m = zn.incidence_matrix()
        w = [0] * m.n
        w[next(k for k, word in enumerate(fa.words) if word[0] == a)] = 1
        for _ in range(MICRO_STEP):
            w = m.apply(w)
        total = sum(w)
        x = [c / total for c in w]
        for key, fn, arg in (("matrices.apply_us", m.apply, w),
                             ("spectral.float_matvec_us", lambda v: float_matvec(m, v), x)):
            samples = []
            for _ in range(15):
                t0 = time.perf_counter()
                fn(arg)
                samples.append(time.perf_counter() - t0)
            out[f"{key}_l{level}"] = statistics.median(samples) * 1e6
    return out


def probe(ops):
    from subperron import cli

    for argv in ops:
        (cli.load_matrix if argv[0] == "analyze-matrix" else cli.load_substitution)(argv[1])
    print(time.perf_counter())


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--ops", required=True)
    ap.add_argument("--out")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-file")
    ap.add_argument("--micro", nargs=2, metavar=("SUBST_FILE", "LETTER"))
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()
    with open(args.ops, encoding="utf-8") as fh:
        ops = json.load(fh)
    if args.probe:
        probe(ops)
        return
    from subperron.cli import main as cli_main

    clock = speed.SpeedClock()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer("subperron")
    passes, first, mismatch = [], None, set()
    traced_metrics, traced_roots = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset_pass()
            tracer.install()
        else:
            clock.start()
        try:
            wall, spans, outputs = run_pass(cli_main, ops, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
            else:
                clock.stop()
        passes.append({"traced": traced, "wall": wall, "spans": spans})
        if traced:
            traced_metrics.append(tracer.pass_metrics())
            traced_roots.append(tracer.root_time)
        if first is None:
            first = outputs
        else:
            mismatch |= {k for k, (o, f) in enumerate(zip(outputs, first))
                         if o[:2] != f[:2]}
        done = time.perf_counter() - start >= args.seconds and len(passes) >= 2
        if done and (tracer is None or traced):
            break
    scale = speed.Scaler(clock.ticks)
    for p in passes:
        spans = p.pop("spans")
        if p["traced"]:
            p["times"] = [b - a for a, b in spans]
        else:
            p["times"], p["scaled"] = map(list, zip(*(scale(a, b) for a, b in spans)))
    result = {
        "speed_samples": len(clock.ticks),
        "passes": passes,
        "rc": [o[0] for o in first],
        "stdout": [o[1] for o in first],
        "stderr": [o[2] for o in first],
        "mismatch": sorted(mismatch),
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = {"metrics": traced_metrics, "root_time": traced_roots,
                           "spans": len(tracer.span_start)}
        if args.micro:
            result["micro"] = microbench(*args.micro)
        if args.trace_file:
            tracer.dump(args.trace_file)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
