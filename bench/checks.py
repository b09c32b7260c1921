"""Checks of each operation's output against the reference computations in
``oracles``.  No check compares with a stored copy of earlier output.

A limit passes when it lies within ``LIMIT_FACTOR * tol`` (l1) of the
reference limit, ``tol`` being the tolerance the operation asked for (the
CLI default when it asked for none); the printed 12-digit rounding adds at
most ``ROUND_SLACK``.
"""

from __future__ import annotations

import json

import oracles

LIMIT_FACTOR = 10.0
ROUND_SLACK = 1e-11
#: relative agreement of eigenvalues and eigen-residuals computed in float
EIG_REL = 1e-9
#: iterate whose length-2 windows are counted; its window frequencies differ
#: from the limit by ratio^k and 1/length, far below any tolerance used here
WINDOW_STEPS = 200


class Outcome:
    def __init__(self):
        self.problems: list[str] = []
        self.limit_err = None

    def require(self, cond, message):
        if not cond:
            self.problems.append(message)

    def limit(self, err, tol, what):
        self.limit_err = max(err, self.limit_err or 0.0)
        self.require(err <= LIMIT_FACTOR * tol + ROUND_SLACK,
                     f"{what} is {err:.3g} (l1) from the reference, tol {tol:g}")


def check(op, rc, stdout, manifest) -> Outcome:
    out = Outcome()
    out.require(rc == op["expect"], f"exit {rc}, expected {op['expect']}")
    if out.problems or rc != 0:
        return out
    c = op["check"]
    kind = c["kind"]
    try:
        if kind == "matrix":
            _check_matrix(out, c, json.loads(stdout), manifest["matrices"][c["input"]]["rows"])
        elif kind == "subst":
            _check_subst(out, c, json.loads(stdout), manifest["substitutions"][c["input"]])
        elif kind == "freq":
            _check_freq(out, c, json.loads(stdout), manifest["substitutions"][c["input"]])
        else:
            _check_measure(out, c, float(stdout), manifest["substitutions"][c["input"]])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        out.problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    return out


# ---------------------------------------------------------------------------
# matrices

def _check_report(out, rep, rows, labels):
    """The block/spectral report of ``analyze-matrix`` and of the incidence
    part of ``analyze-subst``."""
    n = len(rows)
    st = oracles.Structure(rows)
    pb, prim = st.frobenius_exponents()
    out.require(rep["n"] == n, "wrong n")
    out.require(rep["expanding"] == st.is_expanding(), "wrong expanding flag")
    out.require(rep["pb_frobenius_exponent"] == pb, f"pb exponent {rep['pb_frobenius_exponent']} != {pb}")
    out.require(rep["primitive_frobenius_exponent"] == prim,
                f"primitive exponent {rep['primitive_frobenius_exponent']} != {prim}")
    mt = oracles.matrix_power(rows, prim)
    st_t = oracles.Structure(mt)
    index = {lab: k for k, lab in enumerate(labels)}
    blocks = {b["id"]: sorted(index[x] for x in b["indices"]) for b in rep["blocks"]}
    out.require(sorted(blocks.values()) == sorted(st_t.comps),
                "blocks are not the strongly connected components of the Frobenius power")
    if out.problems:
        return
    comp_of_block = {bid: st_t.comp_of[idx[0]] for bid, idx in blocks.items()}
    roots = {bid: st_t.pf_root(c) for bid, c in comp_of_block.items()}
    for b in rep["blocks"]:
        root = roots[b["id"]]
        out.require(abs(b["eigenvalue"] - root) <= EIG_REL * max(1.0, root),
                    f"block {b['id']} eigenvalue {b['eigenvalue']!r} != {root!r}")
    by_comp = {c: bid for bid, c in comp_of_block.items()}
    zero_column = any(roots[bid] == 0.0 and not st_t.below[c] for bid, c in comp_of_block.items())
    if zero_column:
        out.require(rep["principal_blocks"] is None, "zero column not reported")
        return
    principal = sorted(
        bid for bid, c in comp_of_block.items()
        if all(roots[by_comp[d]] < roots[bid] * (1 - oracles.ROOT_TIE) for d in st_t.below[c]))
    out.require(rep["principal_blocks"] == principal,
                f"principal blocks {rep['principal_blocks']} != {principal}")
    for pe in rep.get("principal_eigenvectors", []):
        v = pe["vector"]
        lam = pe["eigenvalue"]
        out.require(min(v) >= 0.0, f"principal eigenvector of block {pe['block']} has a negative entry")
        out.require(abs(lam - roots[pe["block"]]) <= EIG_REL * max(1.0, lam),
                    f"principal eigenvalue of block {pe['block']} is wrong")
        res = oracles.eigen_residual(mt, v, lam)
        out.require(res <= EIG_REL, f"principal eigenvector of block {pe['block']}: "
                    f"||Mv - lam v|| / (lam ||v||) = {res:.3g}")


def _check_matrix(out, c, rep, rows):
    _check_report(out, rep, rows, list(range(1, len(rows) + 1)))
    if c["vector"] is None:
        return
    ref = oracles.limit_oracle(rows, c["vector"])
    lim = rep["limit"]
    tol = c["tol"]
    out.require(lim["converged"] is True, "did not converge")
    out.limit(oracles.l1(lim["limit"], ref.vector), tol, "limit")
    out.require(abs(lim["eigenvalue"] - ref.lam) <= LIMIT_FACTOR * tol * ref.lam,
                f"eigenvalue {lim['eigenvalue']!r} != {ref.lam!r}")
    out.require(lim["growth"]["degree"] == ref.degree,
                f"growth degree {lim['growth']['degree']} != {ref.degree}")
    out.require(abs(lim["growth"]["lambda"] - ref.lam) <= EIG_REL * ref.lam, "wrong growth lambda")


# ---------------------------------------------------------------------------
# substitutions

def _names(entry, words):
    single = all(len(x) == 1 for x in entry["letters"])
    if single:
        return ["".join(entry["letters"][i] for i in w) for w in words]
    return ["(" + ",".join(entry["letters"][i] for i in w) + ")" for w in words]


def _check_subst(out, c, rep, entry):
    letters, images = entry["letters"], entry["images"]
    out.require(rep["letters"] == letters, "letters not in order of first appearance")
    out.require(rep["rules"] == {x: oracles.decode(letters, img) for x, img in zip(letters, images)},
                "rules misread")
    zs, p = oracles.stable(entry["images"])
    out.require(rep["stabilizing_power"] == p, f"stabilizing power {rep['stabilizing_power']} != {p}")
    _check_report(out, rep["incidence"], oracles.incidence(images), letters)
    if c["blowup"] is None:
        return
    words, rows = oracles.blow_up(zs, c["blowup"])
    b = rep["blowup"]
    st = oracles.Structure(rows)
    out.require(b["alphabet_size"] == len(words), f"{b['alphabet_size']} factors, expected {len(words)}")
    out.require(sorted(b["letters"]) == sorted(_names(entry, words)), "wrong factor set")
    out.require(b["pb_frobenius"] == (st.pb_power() == 1), "wrong pb_frobenius flag")
    primitive = len(st.comps) == 1 and st.is_growing(0) and st.period(0) == 1
    out.require(b["primitive"] == primitive, "wrong primitive flag")
    out.require(b["expanding"] == st.is_expanding(), "wrong expanding flag")


def _encode(entry, text):
    """A printed word as a tuple of letter indices."""
    index = {x: k for k, x in enumerate(entry["letters"])}
    single = all(len(x) == 1 for x in entry["letters"])
    return tuple(index[x] for x in (text if single else text.split()))


def _check_freq(out, c, rep, entry):
    tol = c["tol"]
    zs, p = oracles.stable(entry["images"])
    out.require(rep["power_used"] == p, f"power_used {rep['power_used']} != {p}")
    out.require(rep["base_letter"] == c["letter"], "wrong base letter")
    table = {_encode(entry, w): f for w, f in rep["frequencies"].items()}
    max_len = c["max_len"]
    out.require({len(w) for w in table} == set(range(1, max_len + 1)), "missing lengths")
    out.require(min(table.values()) >= 0.0, "negative frequency")
    for n in range(1, max_len + 1):
        s = sum(f for w, f in table.items() if len(w) == n)
        out.require(abs(s - 1.0) <= 1e-9, f"length-{n} frequencies sum to {s!r}")
    left, right = {}, {}
    for u, g in table.items():
        if len(u) > 1:
            left[u[1:]] = left.get(u[1:], 0.0) + g
            right[u[:-1]] = right.get(u[:-1], 0.0) + g
    kirchhoff = max((max(abs(f - left.get(w, 0.0)), abs(f - right.get(w, 0.0)))
                     for w, f in table.items() if len(w) < max_len), default=0.0)
    out.require(kirchhoff <= LIMIT_FACTOR * tol + ROUND_SLACK, f"Kirchhoff residual {kirchhoff:.3g}")
    if max_len >= 2:
        out.require(abs(kirchhoff - rep["kirchhoff_max_residual"]) <= 1e-9,
                    f"printed Kirchhoff residual {rep['kirchhoff_max_residual']!r}, "
                    f"recomputed {kirchhoff!r}")
    base = entry["letters"].index(c["letter"])
    for n in range(1, max_len + 1):
        words, ref = oracles.freq_oracle(zs, base, n)
        got = {w: f for w, f in table.items() if len(w) == n}
        out.limit(_l1_words(got, dict(zip(words, ref.vector))), tol, f"length-{n} frequencies")
        if n == 1:
            out.require(abs(rep["growth_rate"] - ref.lam) <= LIMIT_FACTOR * tol * ref.lam,
                        f"growth rate {rep['growth_rate']!r} != {ref.lam!r}")
        if n == max_len and n >= 2:
            _, rows = oracles.blow_up(zs, n)
            res = oracles.eigen_residual(rows, [got.get(w, 0.0) for w in words], rep["growth_rate"])
            out.require(res <= LIMIT_FACTOR * tol + ROUND_SLACK,
                        f"length-{n} frequencies: ||M_n f - g f|| / (g ||f||) = {res:.3g}")
    if c["windows"]:
        got = {w: f for w, f in table.items() if len(w) == 2}
        counted = oracles.pair_frequencies(zs, base, WINDOW_STEPS)
        out.limit(_l1_words(got, counted), tol,
                  f"pair frequencies against the windows of zeta^{WINDOW_STEPS}(a)")


def _l1_words(a, b):
    return sum(abs(a.get(w, 0.0) - b.get(w, 0.0)) for w in set(a) | set(b))


def _check_measure(out, c, value, entry):
    zs, _ = oracles.stable(entry["images"])
    word = _encode(entry, c["word"])
    words, ref = oracles.freq_oracle(zs, entry["letters"].index(c["letter"]), len(word))
    expected = dict(zip(words, ref.vector)).get(word)
    if expected is None:
        out.require(value == 0.0, f"{value!r} for a word outside the language")
        return
    out.limit(abs(value - expected), c["tol"], "measure")


def limit_errors(outcomes):
    errs = [o.limit_err for o in outcomes if o.limit_err is not None]
    return max(errs, default=0.0)

