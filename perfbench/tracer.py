"""Spans and counters around rootstrata's public functions, from outside the package.

A Tracer replaces each target function by a wrapper inside its ``with``
block.  A name imported with ``from .x import f`` is a separate binding
in every importing module, so the Tracer replaces the function object in
every loaded ``rootstrata`` module (and every alias in its class, such as
``__rmul__ = __mul__``); patching only the defining module would miss calls
made through the other bindings.

Spans are kept in memory and written once, by write().  A span's self time
is its duration minus the time covered by its child spans.  Counters record
calls and work sizes without a span, for arithmetic called too often to
time one call at a time; their time stays in the enclosing span.
"""

from __future__ import annotations

import importlib
import json
import sys
import time


def _max_coeff_bits(poly):
    bits = 0
    for c in poly.terms.values():
        for q in getattr(c, "coeffs", (c,)):
            bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return bits


def _measure_substitute_homogeneous(counts, args, result):
    counts["multipoly.substitute_homogeneous.out_terms"] += len(result.terms)
    key = "multipoly.substitute_homogeneous.max_coeff_bits"
    counts[key] = max(counts[key], _max_coeff_bits(result))


def _measure_divided_difference(counts, args, result):
    counts["schur.divided_difference.in_terms"] += len(getattr(args[0], "terms", (0,)))


def _measure_dpoly_mul(counts, args, result):
    self, other = args
    counts["dpoly.DPoly.mul.coeff_products"] += (
        len(self.coeffs) * len(getattr(other, "coeffs", (other,))))


def _measure_emit_json(counts, args, result):
    counts["docs.emit_json.bytes"] += len(result.encode())


SPAN, COUNT = "span", "count"

# (metric prefix, module under rootstrata, attribute path, kind, measure)
TARGETS = [
    ("multipoly.substitute_homogeneous", "multipoly", "substitute_homogeneous",
     SPAN, _measure_substitute_homogeneous),
    ("multipoly.MultiPoly.substitute", "multipoly", "MultiPoly.substitute", SPAN, None),
    ("multipoly.MultiPoly.mul", "multipoly", "MultiPoly.__mul__", SPAN, None),
    ("dpoly.DPoly.compose", "dpoly", "DPoly.compose", SPAN, None),
    ("dpoly.DPoly.divmod", "dpoly", "DPoly.divmod", SPAN, None),
    ("dpoly.DPoly.mul", "dpoly", "DPoly.__mul__", COUNT, _measure_dpoly_mul),
    ("dpoly.DPoly.add", "dpoly", "DPoly.__add__", COUNT, None),
    ("dpoly.interpolate", "dpoly", "interpolate", SPAN, None),
    ("schur.divided_difference", "schur", "divided_difference",
     SPAN, _measure_divided_difference),
    ("schur.schur_expand", "schur", "schur_expand", SPAN, None),
    ("schur.SchurExpansion.to_roots", "schur", "SchurExpansion.to_roots", SPAN, None),
    ("crs.crs_class_peeled", "crs", "crs_class_peeled", SPAN, None),
    ("crs.weighted_product", "crs", "weighted_product", SPAN, None),
    ("crs.crs_class_at", "crs", "crs_class_at", SPAN, None),
    ("flagcalc.incidence_class", "flagcalc", "incidence_class", SPAN, None),
    ("flagcalc.p_push", "flagcalc", "p_push", SPAN, None),
    ("flagcalc.q_push", "flagcalc", "q_push", SPAN, None),
    ("flagcalc.tangency_class_resolution", "flagcalc", "tangency_class_resolution",
     SPAN, None),
    ("universal.universal_class", "universal", "universal_class", SPAN, None),
    ("universal.hilbert_degree", "universal", "hilbert_degree", SPAN, None),
    ("universal.universal_incidence_class", "universal", "universal_incidence_class",
     SPAN, None),
    ("universal.pencil_locus_class", "universal", "pencil_locus_class", SPAN, None),
    ("plucker.plucker_table", "plucker", "plucker_table", SPAN, None),
    ("cli.main", "cli", "main", SPAN, None),
    ("golden.run_all", "golden", "run_all", SPAN, None),
    ("docs.emit_json", "docs", "emit_json", SPAN, _measure_emit_json),
] + [
    ("docs.document", "docs", f"{kind}_document", SPAN, None)
    for kind in ("class", "plucker", "asymptotic", "flex", "hyperflex", "lines",
                 "incidence", "flexlocus", "universal", "pencil")
]

# Counts that measure functions or workloads add to, beyond each target's calls.
EXTRA_COUNTS = [
    "multipoly.substitute_homogeneous.out_terms",
    "multipoly.substitute_homogeneous.max_coeff_bits",
    "schur.divided_difference.in_terms",
    "dpoly.DPoly.mul.coeff_products",
    "docs.emit_json.bytes",
    "crs.cache.hits",
    "crs.cache.misses",
]


def _resolve(module, path):
    owner = importlib.import_module(f"rootstrata.{module}")
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, vars(owner)[attr]


def _bindings(owner, original):
    """(namespace, name) pairs that bind original, the owner's aliases included."""
    if isinstance(owner, type):
        spaces = [owner]
    else:
        spaces = [m for name, m in list(sys.modules.items())
                  if name == "rootstrata" or name.startswith("rootstrata.")]
    return [(space, name) for space in spaces
            for name, value in list(vars(space).items()) if value is original]


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.stats = {}
        self.counts = {}
        self.spans = []
        self._stack = []
        self._undo = []

    def __enter__(self):
        importlib.import_module("rootstrata.cli")
        for name, module, path, kind, measure in TARGETS:
            owner, original = _resolve(module, path)
            make = self._span if kind == SPAN else self._counter
            wrapper = make(name, original, measure)
            for space, attr in _bindings(owner, original):
                self._undo.append((space, attr, original))
                setattr(space, attr, wrapper)
        for key in EXTRA_COUNTS:
            self.counts.setdefault(key, 0)
        return self

    def __exit__(self, *exc):
        for space, attr, original in reversed(self._undo):
            setattr(space, attr, original)
        self._undo.clear()
        return False

    def _span(self, name, fn, measure):
        stats = self.stats.setdefault(name, [0, 0.0])
        counts, stack, spans = self.counts, self._stack, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stats[0] += 1
                stats[1] += end - start - frame[1]
                spans[frame[0]] = (name, start, end, parent)
                if stack:
                    stack[-1][1] += end - start
            if measure is not None:
                begin = clock()
                measure(counts, args, result)
                if stack:
                    # measuring is tracing overhead, not the parent's self time
                    stack[-1][1] += clock() - begin
            return result

        return wrapper

    def _counter(self, name, fn, measure):
        key = f"{name}.calls"
        counts = self.counts
        counts.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if measure is not None:
                measure(counts, args, result)
            return result

        return wrapper

    def metrics(self):
        """Flat {metric name: value}: calls and self_s per span, then counts."""
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        return out

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent index."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
