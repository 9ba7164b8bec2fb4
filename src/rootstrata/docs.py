"""Output documents: deterministic dict payloads plus text and JSON emitters.

Every computed number (each value and each coeffs_d entry) serializes as
a decimal string, so arbitrarily large counts survive consumers with
53-bit integers.  Indices, exponents, codim and the echoed inputs
(partition, d, m, n) stay JSON integers, and an echoed input may pass
2^53.  Polynomial coefficient arrays are ascending in d starting at the
constant term.
"""

from __future__ import annotations

import json
import sys

from .crs import crs_class
from .dpoly import monomial, render
from .errors import OutOfRange
from .flagcalc import flex_point_locus_class, incidence_class
from .multipoly import VAR_ORDER
from .partitions import validate_stratum
from .plucker import (asymptotic_plucker, hyperflex_count, lines_on_hypersurface,
                      mflex_polynomial, plucker_table)
from .schur import schur_to_chern
from .universal import pencil_locus_class, universal_class


def _poly_entry(names, exps, coeff, at):
    row = dict(zip(names, exps))
    if at is None:
        row["coeffs_d"] = coeff.spelled() or ["0"]
    else:
        value = coeff(at)
        try:
            row["value"] = str(value)
        except ValueError:
            # the interpreter refuses to print an int of more digits than its limit
            raise OutOfRange(f"a value at this d has more than "
                             f"{sys.get_int_max_str_digits()} digits") from None
    return row


def _term_entries(poly, names, at):
    """One entry per term of poly, keyed by the exponents of the named variables."""
    entries = []
    for e, c in poly.sorted_terms():
        exps = dict(zip(poly.variables, e))
        entries.append(_poly_entry(names, [exps.get(n, 0) for n in names], c, at))
    return entries


def _stratum_doc(command, lam, entries, at, **fields):
    """The header every stratum document shares; fields add to or override it."""
    return {"command": command, "partition": list(lam.parts), "codim": lam.codim,
            "d": "symbolic" if at is None else at, "notes": [], "entries": entries,
            **fields}


def class_document(lam, basis="schur", at=None):
    lam = validate_stratum(lam)
    cls = crs_class(lam)
    if basis == "schur":
        entries = [_poly_entry(("k", "l"), kl, c, at) for kl, c in cls.expansion.items()]
    elif basis == "chern":
        entries = _term_entries(schur_to_chern(cls.expansion), ("c1", "c2"), at)
    elif basis == "roots":
        entries = _term_entries(cls.to_roots(), ("a", "b"), at)
    else:
        raise ValueError(f"unknown basis {basis!r}")
    return _stratum_doc("class", lam, entries, at, basis=basis)


def plucker_document(lam, at=None):
    lam = validate_stratum(lam)
    table = plucker_table(lam)
    return _stratum_doc("plucker", lam, [_poly_entry(("i",), (i,), p, at) for i, p in table], at)


def asymptotic_document(lam):
    lam = validate_stratum(lam)
    table = asymptotic_plucker(lam)
    return _stratum_doc("asymptotic", lam, [{"i": i, "value": str(c)} for i, c in table],
                        None, d="limit")


def flex_document(m, at=None):
    lam = validate_stratum((m,))
    entries = [_poly_entry(("i",), (m - 1 - 2 * i,), mflex_polynomial(m, i), at)
               for i in range((m - 1) // 2 + 1)]
    return _stratum_doc("flex", lam, entries, at, notes=["closed-form coefficients"])


def _closed_form_doc(command, n, value):
    """The header of the two counts of degree d = 2n-3: hyperflexes of a
    hypersurface in P^(n-1) and lines on a hypersurface in P^n."""
    return {"command": command, "n": n, "d": 2 * n - 3, "notes": [], "value": str(value)}


def hyperflex_document(n):
    return _closed_form_doc("hyperflex", n, hyperflex_count(n))


def lines_document(n):
    return _closed_form_doc("lines", n, lines_on_hypersurface(n))


def incidence_document(lam, m, basis="zeta-eta", at=None):
    lam = validate_stratum(lam)
    inc = incidence_class(lam, m)
    if basis == "zeta-eta":
        poly, names = inc.poly, ("zeta", "eta")
    elif basis == "zeta-sigma":
        poly, names = inc.in_zeta_sigma(), ("zeta", "sigma1")
    else:
        raise ValueError(f"unknown basis {basis!r}")
    return _stratum_doc("incidence", lam, _term_entries(poly, names, at), at, m=m, basis=basis)


def flexlocus_document(lam, m, n, at=None):
    lam = validate_stratum(lam)
    locus = flex_point_locus_class(lam, m, n)
    return _stratum_doc("flexlocus", lam, _term_entries(locus.poly, ("zeta",), at), at, m=m, n=n)


def universal_document(lam, at=None):
    lam = validate_stratum(lam)
    u = universal_class(lam)
    entries = [_poly_entry(("k", "l", "xi"), (*kl, t), c, at)
               for t in range(lam.codim + 1) for kl, c in u.xi_slice(t).items()]
    return _stratum_doc("universal", lam, entries, at)


def pencil_document(lam, m, n, at=None):
    lam = validate_stratum(lam)
    locus = pencil_locus_class(lam, m, n)
    return _stratum_doc("pencil", lam, _term_entries(locus.poly, ("zeta",), at), at, m=m, n=n)


def selftest_document():
    from . import golden  # golden imports this module

    checks = [{"name": name, "ok": ok, "detail": detail or ""}
              for name, ok, detail in golden.run_all()]
    return {"command": "selftest", "ok": all(c["ok"] for c in checks), "checks": checks}


def emit_json(doc):
    return json.dumps(doc, sort_keys=True)


def emit_text(doc):
    cmd = doc["command"]
    if cmd == "selftest":
        checks = doc["checks"]
        lines = [f"ok      {c['name']}" if c["ok"] else f"FAIL    {c['name']}: {c['detail']}"
                 for c in checks]
        return "\n".join(lines + [f"{sum(c['ok'] for c in checks)}/{len(checks)} checks pass"])
    labelled = "  {label}: {value}"
    counts = ("tangent-line counts for {part}{at}:", "  Pl_{{{part};{i}}} = {value}")
    locus = "tangency-point locus for {part}, m={m}, ambient n={n}{at}:"
    closed = " a generic degree-{d} hypersurface in P^{dim}:\n{value}"
    # command: (heading, row form), formatted with the document's fields and each row's
    forms = {
        "class": ("class {part} in basis {basis}{at}:", labelled),
        "plucker": counts, "flex": counts,
        "asymptotic": ("leading coefficients for {part}:", "  apl_{{{part};{i}}} = {value}"),
        "incidence": ("incidence class for {part}, peeled at m={m}{at}:", labelled),
        "flexlocus": (locus, labelled), "pencil": ("pencil " + locus, labelled),
        "universal": ("universal class for {part}{at}:", "  xi^{xi} {label}: {value}"),
        "hyperflex": ("hyperflexes of" + closed, None), "lines": ("lines on" + closed, None),
    }
    if cmd not in forms:
        raise ValueError(f"no text form for {cmd}")
    heading, row_form = forms[cmd]
    fields = {**doc, "part": "(" + ",".join(str(p) for p in doc.get("partition", ())) + ")",
              "at": "" if doc["d"] in ("symbolic", "limit") else f" at d={doc['d']}",
              # hyperflexes of a hypersurface in P^(n-1), lines on one in P^n
              "dim": doc.get("n", 1) - (cmd == "hyperflex")}
    lines = [heading.format_map(fields)]
    for row in doc.get("entries", ()):
        # read by name in a fixed order, so a row parsed back from JSON prints the same
        label = (f"s_{{{row['k']},{row['l']}}}" if "k" in row
                 else monomial((v, row[v]) for v in VAR_ORDER if v in row) or "1")
        lines.append(row_form.format_map({**fields, **row, "label": label,
                                          "value": _value_str(row)}))
    return "\n".join(lines)


def _value_str(row):
    if "value" in row:
        return row["value"]
    return render(row["coeffs_d"])
