"""Command-line front end: file ingestion, analysis orchestration, and
JSON/text reports.

Exit codes: 0 on success; an error exits with the ``exit_code`` of its
class in ``errors.py``, and an unreadable file or invalid argument value
(``OSError``, ``ValueError``) with 2.  All floats in reports are printed
with 12 significant digits so that identical inputs produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .errors import (
    FloatRangeError,
    NotExpandingError,
    ParseError,
    SubperronError,
    ZeroColumnError,
)
from .frequencies import frequency_table, kirchhoff_check, measure_cylinder
from .matrices import (
    BlockDecomposition,
    ExactMatrix,
    _frobenius_exponents,
    load_matrix,
    scc_blocks,
)
from .spectral import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ConvergenceReport,
    _power,
    block_eigenvalues,
    check_budget,
    growth_type,
    normalized_limit,
    principal_blocks,
    principal_eigenvector,
)
from .words import _blow_up, _stabilizing, load_substitution


def round12(x: float) -> float:
    """Round to 12 significant digits (stable report serialization)."""
    return float(f"{x:.12g}")


def _vec12(v: Sequence[float]) -> list[float]:
    return [round12(float(x)) for x in v]


def _convergence_dict(report: ConvergenceReport, start: Sequence[int],
                      tol: float) -> dict:
    return {
        "start": [int(c) for c in start],
        "limit": _vec12(report.limit),
        "eigenvalue": round12(report.eigenvalue),
        "iterations": report.iterations,
        "residual": round12(report.residual),
        "growth": {"lambda": round12(report.growth.lam),
                   "degree": report.growth.degree},
        "converged": report.converged,
        # at tol > 0 the pass is the route, converged or refused
        "route": "block pass" if tol else "iterated",
    }


def _matrix_report(m: ExactMatrix, dec0: BlockDecomposition,
                   names: Sequence[str] | None = None) -> dict:
    """Analysis pipeline on ``m`` and its decomposition ``dec0``: Frobenius
    powers, eigenvalues, growth types, principal blocks and eigenvectors."""
    t_pb, t_pf = _frobenius_exponents(m, dec0)
    try:
        mt, dec = _power(m, dec0, t_pf)
        eigenvalues = block_eigenvalues(mt, dec)
    except FloatRangeError as exc:
        raise FloatRangeError(
            f"M^{t_pf} (primitive-Frobenius power): {exc}") from None
    labels = names if names is not None else range(1, m.n + 1)
    blocks = []
    for i in range(dec.num_blocks):
        g = growth_type(dec, eigenvalues, i)
        blocks.append({
            "id": i + 1,
            "indices": [labels[orig] for orig in dec.members(i)],
            "class": dec.classes[i].value,
            "eigenvalue": round12(eigenvalues[i]),
            "growth": {"lambda": round12(g.lam), "degree": g.degree},
        })
    report = {
        "n": m.n,
        "expanding": dec0.is_expanding(),
        "pb_frobenius_exponent": t_pb,
        "primitive_frobenius_exponent": t_pf,
        "scc_classes": [c.value for c in dec0.classes],
        "blocks": blocks,
        "order": sorted([a + 1, b + 1] for (a, b) in dec.order),
        "dependency": {str(i + 1): sorted(j + 1 for j in dec.dependency[i])
                       for i in range(dec.num_blocks)},
    }
    try:
        principal = sorted(principal_blocks(dec, eigenvalues))
        report["principal_blocks"] = [i + 1 for i in principal]
        report["principal_eigenvectors"] = [
            {
                "block": i + 1,
                "eigenvalue": round12(pe.eigenvalue),
                "vector": _vec12(pe.vector),
            }
            for i in principal
            for pe in [principal_eigenvector(mt, dec, eigenvalues, i)]
        ]
    except ZeroColumnError as exc:
        report["principal_blocks"] = None
        report["principal_note"] = f"skipped: {exc}"
    return report


def _print_matrix_report_text(report: dict, out) -> None:
    print(f"n: {report['n']}", file=out)
    print(f"expanding: {str(report['expanding']).lower()}", file=out)
    print(f"pb-frobenius exponent: {report['pb_frobenius_exponent']}", file=out)
    print(f"primitive-frobenius exponent: {report['primitive_frobenius_exponent']}",
          file=out)
    for b in report["blocks"]:
        g = b["growth"]
        print(
            f"block B{b['id']} indices={b['indices']} class={b['class']} "
            f"eigenvalue={b['eigenvalue']:.12g} "
            f"growth=({g['lambda']:.12g})^t * t^{g['degree']}",
            file=out,
        )
    order = ", ".join(f"B{a}>B{b}" for a, b in report["order"])
    print(f"order: {order}", file=out)
    if report.get("principal_blocks"):
        ids = ", ".join(f"B{i}" for i in report["principal_blocks"])
        print(f"principal blocks: {ids}", file=out)
    if "limit" in report:
        lim = report["limit"]
        print(
            f"limit from {lim['start']}: {lim['limit']} "
            f"eigenvalue={lim['eigenvalue']:.12g} "
            f"iterations={lim['iterations']} converged={lim['converged']}",
            file=out,
        )


def cmd_analyze_matrix(args) -> int:
    m = load_matrix(args.file)
    dec0 = scc_blocks(m)
    report = {"input": str(args.file)}
    report.update(_matrix_report(m, dec0))
    if args.require_expanding and not report["expanding"]:
        raise NotExpandingError("matrix is not expanding")
    if args.vector is not None:
        try:
            v0 = [int(tok) for tok in args.vector.replace(",", " ").split()]
        except ValueError as exc:
            raise ParseError(f"invalid --vector: {exc}") from exc
        conv = normalized_limit(m, v0, tol=args.tol, max_iter=args.max_iter,
                                dec=dec0)
        report["limit"] = _convergence_dict(conv, v0, args.tol)
        if not conv.converged:
            print(f"warning: {conv.diagnostic}", file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        _print_matrix_report_text(report, sys.stdout)
    return 0


def cmd_analyze_subst(args) -> int:
    s = load_substitution(args.file)
    power, m, dec0 = _stabilizing(s)
    incidence = _matrix_report(m, dec0, names=s.alphabet.letters)
    report = {
        "input": str(args.file),
        "letters": list(s.alphabet.letters),
        "rules": {ltr: s.alphabet.decode(img)
                  for ltr, img in zip(s.alphabet.letters, s.images)},
        "stabilizing_power": power,
        "incidence": incidence,
    }
    if args.blowup is not None:
        # the report has shown the input expanding: no gate to run again
        zn, fa = _blow_up(s.power(power), args.blowup)
        mn = zn.incidence_matrix()
        dec_n = scc_blocks(mn)
        report["blowup"] = {
            "n": args.blowup,
            "alphabet_size": len(fa),
            "letters": list(zn.alphabet.letters),
            "pb_frobenius": dec_n.is_pb_frobenius(),
            "primitive": dec_n.num_blocks == 1
            and dec_n.classes[0].value == "primitive",
            "expanding": dec_n.is_expanding(),
        }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"letters: {' '.join(s.alphabet.letters)}")
        print(f"stabilizing power: {power}")
        _print_matrix_report_text(report["incidence"], sys.stdout)
        if "blowup" in report:
            b = report["blowup"]
            print(
                f"blow-up n={b['n']}: alphabet size {b['alphabet_size']}, "
                f"pb-frobenius: {str(b['pb_frobenius']).lower()}, "
                f"primitive: {str(b['primitive']).lower()}"
            )
    return 0


def cmd_freq(args) -> int:
    s = load_substitution(args.file)
    table = frequency_table(s, args.letter, max_len=args.max_len,
                            tol=args.tol, max_iter=args.max_iter)
    words = sorted(table.frequencies.items(), key=lambda kv: (len(kv[0]), kv[0]))
    payload = {"base_letter": table.base_letter,
               "power_used": table.power_used,
               "frequencies": {w: round12(f) for w, f in words},
               "growth_rate": round12(table.growth_rate)}
    if args.max_len >= 2:
        payload["kirchhoff_max_residual"] = round12(
            kirchhoff_check(table).max_residual)
    print(json.dumps(payload, indent=2))
    return 0


def cmd_measure(args) -> int:
    s = load_substitution(args.file)
    value = measure_cylinder(s, args.letter, args.word,
                             tol=args.tol, max_iter=args.max_iter)
    print(f"{value:#.12g}")
    return 0


def _in_range(kind: type, name: str):
    """An argparse ``type``: ``kind(text)``, if ``check_budget`` takes it."""
    def parse(text: str):
        value = kind(text)
        try:
            check_budget(**{name: value}, shown=repr(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                str(exc).removeprefix(name + " ")) from None
        return value
    parse.__name__ = kind.__name__  # argparse: "invalid int value: 'x'"
    return parse


_MAX_ITER = _in_range(int, "max_iter")
_TOL = _in_range(float, "tol")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subperron",
        description=(
            "Block structure, normalized-iterate limits, and factor "
            "frequencies for non-negative integer matrices and expanding "
            "substitutions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("analyze-matrix", help="block/spectral analysis of a matrix file")
    pm.add_argument("file")
    pm.add_argument("--vector", default=None,
                    help="comma-separated start vector for the normalized limit")
    pm.add_argument("--require-expanding", action="store_true")
    pm.add_argument("--json", action="store_true")

    ps = sub.add_parser("analyze-subst", help="analysis of a substitution file")
    ps.add_argument("file")
    ps.add_argument("--blowup", type=int, default=None)
    ps.add_argument("--json", action="store_true")

    pf = sub.add_parser("freq", help="frequency table for a substitution file")
    pf.add_argument("file")
    pf.add_argument("--letter", required=True)
    pf.add_argument("--max-len", type=int, default=2)

    pq = sub.add_parser("measure", help="invariant-measure value of a cylinder")
    pq.add_argument("file")
    pq.add_argument("--letter", required=True)
    pq.add_argument("--word", required=True)
    # --tol 0 is legal: such a run spends its whole budget
    for p, tol in ((pm, DEFAULT_TOL), (pf, 1e-6), (pq, 1e-6)):
        p.add_argument("--tol", type=_TOL, default=tol)
        p.add_argument("--max-iter", type=_MAX_ITER, default=DEFAULT_MAX_ITER)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call.  Parsing leaves it unchanged,
    so one process reuses it for every call of ``main``."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so that a handler replaced in this module's
    # namespace (a test's or a tracer's wrapper) is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (SubperronError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
