"""Benchmark of the subperron command line.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed, times a fresh interpreter
up to the first operation (``setup_s``, median of several), runs the
operations in a child process for ``--seconds`` (see client.py), checks
every output against the references in oracles.py, and prints the metrics.
Timings are scaled to the reference host speed (see speed.py).
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
#: fresh interpreters started to time set-up, before and after the client
#: run; setup_s is the median of all of them
SETUP_PROBES = (8, 7)
#: every run ends within this many seconds, whatever the workload
DEADLINE_S = 170.0


def _spawn(args, timeout=None):
    """Run the client and wait until it has ended; on timeout kill it first.
    Without a timeout the wait blocks in waitpid, so the elapsed time is not
    rounded up to the polling interval of a timed wait."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "client.py")] + args, cwd=ROOT)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise


def _ready_after(argv):
    """Seconds from starting ``argv`` until it prints the perf_counter time
    at which it is ready; waits for it to end."""
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, timeout=60, check=True)
    return float(done.stdout) - t0


def setup_times(ops_file, count):
    """(wall, scaled) set-up time of ``count`` probe interpreters, each of
    which imports ``subperron.cli`` and loads the inputs.  Reference starts
    run before, between and after the probes; each probe is scaled by the
    mean of the two around it (speed.py)."""
    ref = [sys.executable, "-c", speed.REF_START_CODE]
    probe = [sys.executable, os.path.join(HERE, "client.py"), "--probe", "--ops", ops_file]
    samples, before = [], _ready_after(ref)
    for _ in range(count):
        wall = _ready_after(probe)
        after = _ready_after(ref)
        samples.append((wall, wall * speed.REF_START_S / ((before + after) / 2)))
        before = after
    return samples


def end_to_end(result, n_ops, setup):
    """Both timings start from each operation's median scaled time over the
    run's passes (speed.py): ``ops_per_s`` is one pass at those times,
    ``op_p50_s`` their median over the operations.  ``setup_s`` is the
    median scaled set-up time."""
    per_op = [median(ts) for ts in zip(*(p["scaled"] for p in result["passes"]))]
    return {
        "ops_per_s": {"value": n_ops / sum(per_op), "unit": "op/s"},
        "op_p50_s": {"value": median(per_op), "unit": "s"},
        "setup_s": {"value": median(s for _, s in setup), "unit": "s"},
        "peak_rss_mib": {"value": result["maxrss_kib"] / 1024.0, "unit": "MiB"},
    }


def wall_figures(result, n_ops, setup):
    """The same figures from unscaled wall times, printed for reference."""
    per_op = [median(ts) for ts in zip(*(p["times"] for p in result["passes"]
                                           if not p["traced"]))]
    return {"ops_per_s": n_ops / sum(per_op), "op_p50_s": median(per_op),
            "setup_s": median(w for w, _ in setup)}


def per_layer(result, limit_err):
    import tracing

    trace = result["trace"]
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    units = {m[0]: m[1] for m in tracing.SPAN_METRICS}
    units.update({"matrices.apply_bits_max": "bits", "spectral.iterations": "count"})
    out = {name: {"value": median([m[name] for m in trace["metrics"]]), "unit": unit}
           for name, unit in units.items()}
    for name, us in result["micro"].items():
        out[name] = {"value": us, "unit": "us"}
    out["spectral.limit_err_l1_max"] = {"value": limit_err, "unit": "l1"}
    coverage = [root / sum(p["times"]) for root, p in zip(trace["root_time"], traced)]
    out["trace.span_coverage_pct"] = {"value": 100.0 * median(coverage), "unit": "%"}
    out["trace.overhead_s"] = {"value": median([sum(p["times"]) for p in traced])
                               - median([sum(p["times"]) for p in plain]), "unit": "s"}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description="subperron CLI benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    began = time.perf_counter()
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join(ROOT, "src", "subperron", "cli.py")):
        print(f"error: no subperron sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import checks
    import inputs
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    rel = os.path.relpath(work, ROOT)
    try:
        manifest = inputs.generate(args.seed, rel)
        ops = workloads.operations(args.workload, manifest)
        ops_file = os.path.join(work, "ops.json")
        with open(ops_file, "w", encoding="utf-8") as fh:
            json.dump([op["argv"] for op in ops], fh)
        setup = setup_times(ops_file, SETUP_PROBES[0])
        out_file = os.path.join(work, "result.json")
        client_args = ["--ops", ops_file, "--out", out_file, "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
        if args.trace:
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            prim = manifest["substitutions"]["prim4"]["file"]
            client_args += ["--micro", prim, "a", "--trace-file", os.path.join(
                WORK, "traces", f"{args.workload}-{args.seed}.jsonl.gz")]
        rc = _spawn(client_args, timeout=DEADLINE_S - (time.perf_counter() - began))
        if rc != 0:
            print(f"error: client exited {rc}", file=sys.stderr)
            return 1
        setup += setup_times(ops_file, SETUP_PROBES[1])
        with open(out_file, encoding="utf-8") as fh:
            result = json.load(fh)
        outcomes = [checks.check(op, rc, out, manifest)
                    for op, rc, out in zip(ops, result["rc"], result["stdout"])]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    mismatch = set(result["mismatch"])
    failed_ops = [op for op, o in zip(ops, outcomes) if o.problems or op["id"] in mismatch]
    passes = len(result["passes"])
    attempted = passes * len(ops)
    failed = passes * len(failed_ops)
    unexplained = [op for op in failed_ops if op["fault"] is None or op["id"] in mismatch]
    if args.trace:
        metrics = per_layer(result, checks.limit_errors(outcomes))
    else:
        metrics = end_to_end(result, len(ops), setup)

    print(f"workload {args.workload}  seed {args.seed}  {len(ops)} operations x {passes} passes"
          f"{'  (traced and untraced alternate)' if args.trace else ''}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    wall = wall_figures(result, len(ops), setup)
    print("  unscaled wall time: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items())
          + f"; {result['speed_samples']} speed samples")
    for fault, what in workloads.FAULTS.items():
        hit = [op for op in failed_ops if op["fault"] == fault]
        if hit:
            print(f"  {fault} ({what}): {len(hit)} operations fail")
    for op in failed_ops:
        reasons = outcomes[op["id"]].problems + (
            ["stdout differs between calls"] if op["id"] in mismatch else [])
        print(f"  failed [{op['fault'] or 'unexplained'}] {' '.join(op['argv'])}: {'; '.join(reasons)}")
    if args.trace:
        stable = "unchanged" if not mismatch else "CHANGED"
        print(f"  stdout under tracing: {stable}; {result['trace']['spans']} spans recorded")
    print(json.dumps({"correct": not unexplained, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
