"""The operation list of each workload.

An operation is one ``subperron`` command line with the exit code a correct
program gives, the check its output must pass, and, for the operations
that fail today, the fault that explains it (see README.md).
"""

from __future__ import annotations

import oracles

#: faults kept in the workloads; every operation tagged with one fails today
FAULTS = {
    "F1": "false convergence on polynomial-growth trajectories",
    "F2": "absolute Collatz-Wielandt bracket in pf_eigen_block",
    "F3": "no seed word: exit 1 where the limit frequencies exist",
}

WORKLOADS = ("corpus", "blowup_table", "hard_inputs")


def _op(argv, check, expect=0, fault=None):
    return {"argv": argv, "check": check, "expect": expect, "fault": fault}


def _vec(v):
    return ",".join(map(str, v))


def _unit(n, i):
    return [int(k == i) for k in range(n)]


def _matrix(name, entry, vector=None, tol=None, max_iter=None, expect=0, fault=None):
    argv = ["analyze-matrix", entry["file"], "--json"]
    check = {"kind": "matrix", "input": name, "vector": vector}
    if vector is not None:
        argv += ["--vector", _vec(vector)]
    if tol is not None:
        argv += ["--tol", repr(tol)]
    if max_iter is not None:
        argv += ["--max-iter", str(max_iter)]
    check["tol"] = 1e-10 if tol is None else tol
    return _op(argv, check, expect, fault)


def _subst(name, entry, blowup=None):
    argv = ["analyze-subst", entry["file"], "--json"]
    if blowup is not None:
        argv += ["--blowup", str(blowup)]
    return _op(argv, {"kind": "subst", "input": name, "blowup": blowup})


def _freq(name, entry, letter, max_len, tol=None, fault=None, windows=False):
    argv = ["freq", entry["file"], "--letter", letter, "--max-len", str(max_len)]
    if tol is not None:
        argv += ["--tol", repr(tol)]
    check = {"kind": "freq", "input": name, "letter": letter, "max_len": max_len,
             "tol": 1e-6 if tol is None else tol, "windows": windows}
    return _op(argv, check, 0, fault)


def _measure(name, entry, letter, word, fault=None):
    argv = ["measure", entry["file"], "--letter", letter, "--word", word]
    check = {"kind": "measure", "input": name, "letter": letter, "word": word, "tol": 1e-6}
    return _op(argv, check, 0, fault)


def _corpus_fault(name, letter, length):
    if name == "aab_bb" and letter == "a":
        return "F1"
    if name == "b_over_a" and letter == "b" and length >= 2:
        return "F3"
    return None


def corpus(manifest):
    """Every command on the corpus substitutions, the fixtures and the
    seeded random matrices, at the CLI's default tolerances."""
    ops = []
    subs = manifest["substitutions"]
    for name in ("fibonacci", "thue_morse", "aab_bb", "ab_bbb", "cyclic4", "tribonacci",
                 "period_doubling", "two_bottom", "aabb_ab", "b_over_a", "case3"):
        e = subs[name]
        first, last = e["letters"][0], e["letters"][-1]
        ops += [_subst(name, e), _subst(name, e, 2), _subst(name, e, 3)]
        ops.append(_freq(name, e, first, 3, fault=_corpus_fault(name, first, 3)))
        ops.append(_freq(name, e, last, 4, fault=_corpus_fault(name, last, 4)))
        pairs = sorted(oracles.factors(oracles.stable(e["images"])[0], 2))
        ops.append(_measure(name, e, first, oracles.decode(e["letters"], pairs[0]),
                            fault=_corpus_fault(name, first, 2)))
        ops.append(_measure(name, e, first, last, fault=_corpus_fault(name, first, 1)))
    mats = manifest["matrices"]
    ops += [_matrix("m8", mats["m8"]),
            _matrix("m8", mats["m8"], _unit(8, 4)),
            _matrix("m8", mats["m8"], _unit(8, 6)),
            _matrix("case3", mats["case3"]),
            _matrix("case3", mats["case3"], _unit(6, 0)),
            _matrix("case3", mats["case3"], _unit(6, 2)),
            _matrix("antidiag4", mats["antidiag4"]),
            _matrix("antidiag4", mats["antidiag4"], _unit(4, 0), expect=3)]
    for name in sorted(k for k in mats if k.startswith("rand")):
        ops.append(_matrix(name, mats[name]))
        ops += [_matrix(name, mats[name], v) for v in mats[name]["starts"]]
    return ops


def blowup_table(manifest):
    """Long frequency tables and level-32 factors of the two seeded 4-letter
    substitutions."""
    subs = manifest["substitutions"]
    ops = []
    for name in ("prim4", "red4"):
        ops.append(_freq(name, subs[name], "a", 16, tol=1e-10, windows=True))
    prim = subs["prim4"]
    word = sorted(oracles.factors(prim["images"], 32))[0]
    ops.append(_measure("prim4", prim, "a", oracles.decode(prim["letters"], word)))
    ops.append(_subst("red4", subs["red4"], 32))
    return ops


def hard_inputs(manifest):
    """The slow and the failing inputs: 1/t trajectories of the 8x8 fixture,
    polynomial-growth frequencies, and PF roots above 1e4."""
    mats = manifest["matrices"]
    ops = []
    for i in range(8):
        ops.append(_matrix("m8", mats["m8"], _unit(8, i), tol=1e-8, max_iter=23000,
                           fault="F1" if i < 4 else None))
    ops.append(_freq("aab_bb", manifest["substitutions"]["aab_bb"], "a", 2, fault="F1"))
    ops.append(_matrix("big_entry", mats["big_entry"], fault="F2"))
    ops.append(_matrix("cycles14", mats["cycles14"], fault="F2"))
    return ops


def operations(workload, manifest):
    ops = {"corpus": corpus, "blowup_table": blowup_table,
           "hard_inputs": hard_inputs}[workload](manifest)
    for k, op in enumerate(ops):
        op["id"] = k
    return ops
