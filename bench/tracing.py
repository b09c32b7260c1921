"""Spans around the calls into subperron's layers, recorded from outside the
package.

``Tracer.install()`` replaces each target function by a wrapper in every
module namespace that holds it (``from .matrices import scc_blocks`` binds
the function under a second name, so patching the defining module alone
would miss those calls) and each target method on its class;
``uninstall()`` puts the originals back.  A span is (name, start, end,
parent span, operation id).  Spans are kept in arrays in memory and written
out by ``dump()``; the per-layer metrics are aggregated while recording.
"""

from __future__ import annotations

import argparse
import functools
import gzip
import importlib
import json
import time
from array import array

#: (module, attribute path) of every wrapped callable
TARGETS = [
    ("cli", "build_parser"), ("cli", "cmd_analyze_matrix"), ("cli", "cmd_analyze_subst"),
    ("cli", "cmd_freq"), ("cli", "cmd_measure"), ("cli", "_matrix_report"),
    ("words", "load_substitution"), ("words", "Substitution.power"),
    ("words", "Substitution.incidence_matrix"), ("words", "stabilizing_power"),
    ("words", "is_expanding_subst"), ("words", "factor_alphabet"), ("words", "blow_up"),
    ("matrices", "load_matrix"), ("matrices", "scc_blocks"), ("matrices", "is_expanding"),
    ("matrices", "pb_frobenius_power"), ("matrices", "primitive_frobenius_power"),
    ("matrices", "ExactMatrix.pow"), ("matrices", "ExactMatrix.apply"),
    ("spectral", "block_eigenvalues"), ("spectral", "pf_eigen_block"),
    ("spectral", "normalized_limit"), ("spectral", "float_matvec"),
    ("spectral", "principal_blocks"), ("spectral", "principal_eigenvector"),
    ("spectral", "growth_type"),
    ("frequencies", "frequency_table"), ("frequencies", "kirchhoff_check"),
    ("frequencies", "measure_cylinder"), ("frequencies", "letter_frequencies"),
    ("frequencies", "factor_frequencies"),
    ("_linalg", "solve"),
]

#: per-layer metrics aggregated from spans: (name, unit, kind, span names).
#: "incl" sums the spans not nested in another span of the same set, "self"
#: sums span time minus child-span time, "calls" counts spans.
SPAN_METRICS = [
    ("cli.self_s", "s", "self", ["cli.*"]),
    ("words.parse_s", "s", "incl", ["words.load_substitution"]),
    ("words.power_s", "s", "incl", ["words.stabilizing_power", "words.Substitution.power"]),
    ("words.factor_alphabet_s", "s", "incl", ["words.factor_alphabet"]),
    ("words.factor_alphabet_calls", "count", "calls", ["words.factor_alphabet"]),
    ("words.blow_up_s", "s", "self", ["words.blow_up"]),
    ("words.incidence_s", "s", "incl", ["words.Substitution.incidence_matrix"]),
    ("matrices.scc_blocks_s", "s", "incl", ["matrices.scc_blocks"]),
    ("matrices.scc_blocks_calls", "count", "calls", ["matrices.scc_blocks"]),
    ("matrices.frobenius_power_s", "s", "incl",
     ["matrices.pb_frobenius_power", "matrices.primitive_frobenius_power"]),
    ("matrices.pow_s", "s", "incl", ["matrices.ExactMatrix.pow"]),
    ("matrices.apply_s", "s", "incl", ["matrices.ExactMatrix.apply"]),
    ("matrices.apply_calls", "count", "calls", ["matrices.ExactMatrix.apply"]),
    ("spectral.float_matvec_s", "s", "incl", ["spectral.float_matvec"]),
    ("spectral.float_matvec_calls", "count", "calls", ["spectral.float_matvec"]),
    ("spectral.block_eigenvalues_s", "s", "incl",
     ["spectral.block_eigenvalues", "spectral.pf_eigen_block"]),
    ("spectral.normalized_limit_self_s", "s", "self", ["spectral.normalized_limit"]),
    ("spectral.principal_eigenvector_s", "s", "incl", ["spectral.principal_eigenvector"]),
    ("frequencies.frequency_table_self_s", "s", "self", ["frequencies.frequency_table"]),
    ("frequencies.kirchhoff_s", "s", "incl", ["frequencies.kirchhoff_check"]),
    ("linalg.solve_s", "s", "incl", ["_linalg.solve"]),
]


def _matches(name, patterns):
    return any(name == p or (p.endswith("*") and name.startswith(p[:-1])) for p in patterns)


class Tracer:
    def __init__(self, package):
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op = -1
        self._stack: list[list] = []
        self._depth = [0] * len(SPAN_METRICS)
        self._patches: list[tuple] = []
        mods = {m: importlib.import_module(f"{package}.{m}")
                for m in ("cli", "words", "matrices", "spectral", "frequencies", "_linalg")}
        self._namespaces = list(mods.values()) + [importlib.import_module(package)]
        # (class or None for a function, attribute, original, wrapper)
        self._targets = []
        for mod, path in TARGETS:
            owner = mods[mod]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            name = f"{mod}.{path}"
            self._targets.append((owner if cls_path else None, attr, original,
                                  self._span(name, original, _POSTS.get(name))))
        parse_args = argparse.ArgumentParser.parse_args
        self._targets.append((argparse.ArgumentParser, "parse_args", parse_args,
                              self._span("cli.parse_args", parse_args)))
        self.reset_pass()

    # -- aggregation ----------------------------------------------------
    def reset_pass(self):
        self.acc = [0.0] * len(SPAN_METRICS)
        self.apply_bits_max = 0
        self.iterations = 0
        self.root_time = 0.0

    def _span(self, name, fn, post=None):
        nid = len(self.names)
        self.names.append(name)
        incl = [k for k, m in enumerate(SPAN_METRICS) if m[2] == "incl" and _matches(name, m[3])]
        own = [k for k, m in enumerate(SPAN_METRICS) if m[2] == "self" and _matches(name, m[3])]
        calls = [k for k, m in enumerate(SPAN_METRICS) if m[2] == "calls" and _matches(name, m[3])]
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        def wrapper(*args, **kwargs):
            outer = [k for k in incl if depth[k] == 0]
            for k in incl:
                depth[k] += 1
            frame = [len(self.span_start), 0.0]
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    post(self, result)
                return result
            finally:
                end = clock()
                self.span_end.append(end)
                stack.pop()
                dur = end - start
                acc = self.acc
                for k in incl:
                    depth[k] -= 1
                for k in outer:
                    acc[k] += dur
                for k in own:
                    acc[k] += dur - frame[1]
                for k in calls:
                    acc[k] += 1
                if stack:
                    stack[-1][1] += dur
                else:
                    self.root_time += dur

        return functools.update_wrapper(wrapper, fn)

    # -- installation ---------------------------------------------------
    def install(self):
        for cls, attr, original, wrapper in self._targets:
            owners = [cls] if cls is not None else [
                ns for ns in self._namespaces if ns.__dict__.get(attr) is original]
            for owner in owners:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------
    def pass_metrics(self) -> dict:
        out = {m[0]: v for m, v in zip(SPAN_METRICS, self.acc)}
        out["matrices.apply_bits_max"] = self.apply_bits_max
        out["spectral.iterations"] = self.iterations
        return out

    def dump(self, path):
        """Write every span as one JSON line: name, start, end, parent span
        index, operation id (gzip-compressed)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                 "spans": len(self.span_start)}) + "\n")
            for k in range(len(self.span_start)):
                fh.write(f'["{self.names[self.span_name[k]]}",{self.span_start[k]!r},'
                         f"{self.span_end[k]!r},{self.span_parent[k]},{self.span_op[k]}]\n")


def _apply_post(tracer, result):
    bits = max(x.bit_length() for x in result)
    if bits > tracer.apply_bits_max:
        tracer.apply_bits_max = bits


def _iterations_post(tracer, result):
    tracer.iterations += result.iterations


#: hooks run on the result of a wrapped call
_POSTS = {"matrices.ExactMatrix.apply": _apply_post,
          "spectral.normalized_limit": _iterations_post,
          "frequencies.frequency_table": _iterations_post}
