"""Output documents: deterministic dict payloads plus text and JSON emitters.

Every number serializes as a decimal string so arbitrarily large counts
survive consumers with 53-bit integers; polynomial coefficient arrays
are ascending in d starting at the constant term.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .crs import as_partition, crs_class
from .dpoly import DPoly
from .flagcalc import flex_point_locus_class, incidence_class
from .partitions import validate_stratum
from .plucker import (asymptotic_plucker, hyperflex_count, lines_on_hypersurface,
                      mflex_polynomial, plucker_table)
from .schur import schur_to_chern
from .universal import pencil_locus_class, universal_class


def num_str(x):
    if isinstance(x, Fraction):
        return str(x)
    return str(int(x))


def dpoly_coeffs(p):
    if not p:
        return ["0"]
    return [num_str(c) for c in p.coeffs]


def _poly_entry(names, exps, coeff, at):
    row = dict(zip(names, exps))
    if at is None:
        row["coeffs_d"] = dpoly_coeffs(coeff)
    else:
        row["value"] = num_str(coeff(at))
    return row


def class_document(lam, basis="schur", at=None):
    lam = as_partition(lam)
    cls = crs_class(lam)
    doc = {
        "command": "class",
        "partition": list(lam.parts),
        "codim": lam.codim,
        "d": "symbolic" if at is None else at,
        "basis": basis,
        "notes": [],
    }
    if basis == "schur":
        entries = [_poly_entry(("k", "l"), kl, c, at) for kl, c in cls.expansion.items()]
    elif basis == "chern":
        poly = schur_to_chern(cls.expansion)
        entries = [_poly_entry(("c1", "c2"), _exps(poly, ("c1", "c2"), e), c, at)
                   for e, c in poly.sorted_terms()]
    elif basis == "roots":
        poly = cls.to_roots()
        entries = [_poly_entry(("a", "b"), _exps(poly, ("a", "b"), e), c, at)
                   for e, c in poly.sorted_terms()]
    else:
        raise ValueError(f"unknown basis {basis!r}")
    doc["entries"] = entries
    return doc


def _exps(poly, names, e):
    """Exponents of the named variables inside one term of poly."""
    lookup = dict(zip(poly.variables, e))
    return tuple(lookup.get(n, 0) for n in names)


def plucker_document(lam, at=None):
    lam = as_partition(lam)
    table = plucker_table(lam)
    return {
        "command": "plucker",
        "partition": list(lam.parts),
        "codim": lam.codim,
        "d": "symbolic" if at is None else at,
        "notes": [],
        "entries": [_poly_entry(("i",), (i,), p, at) for i, p in table],
    }


def asymptotic_document(lam):
    lam = as_partition(lam)
    table = asymptotic_plucker(lam)
    return {
        "command": "asymptotic",
        "partition": list(lam.parts),
        "codim": lam.codim,
        "d": "limit",
        "notes": [],
        "entries": [{"i": i, "value": num_str(c)} for i, c in table],
    }


def flex_document(m, at=None):
    validate_stratum(as_partition((m,)))
    entries = []
    for i in range((m - 1) // 2 + 1):
        entries.append(_poly_entry(("i",), (m - 1 - 2 * i,), mflex_polynomial(m, i), at))
    return {
        "command": "flex",
        "partition": [m],
        "codim": m - 1,
        "d": "symbolic" if at is None else at,
        "notes": ["closed-form coefficients"],
        "entries": entries,
    }


def hyperflex_document(n):
    return {
        "command": "hyperflex",
        "n": n,
        "d": 2 * n - 3,
        "notes": [],
        "value": num_str(hyperflex_count(n)),
    }


def lines_document(n):
    return {
        "command": "lines",
        "n": n,
        "d": 2 * n - 3,
        "notes": [],
        "value": num_str(lines_on_hypersurface(n)),
    }


def _flag_entries(poly, names, at):
    entries = []
    for e, c in poly.sorted_terms():
        entries.append(_poly_entry(names, _exps(poly, names, e), c, at))
    return entries


def incidence_document(lam, m, basis="zeta-eta", at=None):
    lam = as_partition(lam)
    inc = incidence_class(lam, m)
    if basis == "zeta-eta":
        poly, names = inc.poly, ("zeta", "eta")
    elif basis == "zeta-sigma":
        poly, names = inc.in_zeta_sigma(), ("zeta", "sigma1")
    else:
        raise ValueError(f"unknown basis {basis!r}")
    return {
        "command": "incidence",
        "partition": list(lam.parts),
        "codim": lam.codim,
        "m": m,
        "d": "symbolic" if at is None else at,
        "basis": basis,
        "notes": [],
        "entries": _flag_entries(poly, names, at),
    }


def flexlocus_document(lam, m, n, at=None):
    lam = as_partition(lam)
    locus = flex_point_locus_class(lam, m, n)
    return {
        "command": "flexlocus",
        "partition": list(lam.parts),
        "codim": lam.codim,
        "m": m,
        "n": n,
        "d": "symbolic" if at is None else at,
        "notes": [],
        "entries": _flag_entries(locus.poly, ("zeta",), at),
    }


def universal_document(lam, at=None):
    lam = as_partition(lam)
    u = universal_class(lam)
    entries = []
    for t in range(lam.codim + 1):
        for kl, c in u.xi_slice(t).items():
            row = _poly_entry(("k", "l"), kl, c, at)
            row["xi"] = t
            entries.append(row)
    return {
        "command": "universal",
        "partition": list(lam.parts),
        "codim": lam.codim,
        "d": "symbolic" if at is None else at,
        "notes": [],
        "entries": entries,
    }


def pencil_document(lam, m, n, at=None):
    lam = as_partition(lam)
    locus = pencil_locus_class(lam, m, n)
    return {
        "command": "pencil",
        "partition": list(lam.parts),
        "codim": lam.codim,
        "m": m,
        "n": n,
        "d": "symbolic" if at is None else at,
        "notes": [],
        "entries": _flag_entries(locus.poly, ("zeta",), at),
    }


def emit_json(doc):
    return json.dumps(doc, sort_keys=True)


def parse_json(text):
    return json.loads(text)


def _coeffs_str(coeffs):
    poly = DPoly(Fraction(c) for c in coeffs)
    return str(poly)


def emit_text(doc):
    cmd = doc["command"]
    lines = []
    if cmd in ("hyperflex", "lines"):
        head = "hyperflexes of" if cmd == "hyperflex" else "lines on"
        lines.append(f"{head} a generic degree-{doc['d']} hypersurface in P^{doc['n'] - 1}:")
        lines.append(doc["value"])
        return "\n".join(lines)
    part = "(" + ",".join(str(p) for p in doc["partition"]) + ")"
    at = "" if doc["d"] in ("symbolic", "limit") else f" at d={doc['d']}"
    if cmd == "class":
        lines.append(f"class {part} in basis {doc['basis']}{at}:")
        for row in doc["entries"]:
            label = _entry_label(row, doc["basis"])
            lines.append(f"  {label}: {_value_str(row)}")
    elif cmd in ("plucker", "flex"):
        lines.append(f"tangent-line counts for {part}{at}:")
        for row in doc["entries"]:
            lines.append(f"  Pl_{{{part};{row['i']}}} = {_value_str(row)}")
    elif cmd == "asymptotic":
        lines.append(f"leading coefficients for {part}:")
        for row in doc["entries"]:
            lines.append(f"  apl_{{{part};{row['i']}}} = {row['value']}")
    elif cmd == "incidence":
        names = ("zeta", "eta") if doc["basis"] == "zeta-eta" else ("zeta", "sigma1")
        lines.append(f"incidence class for {part}, peeled at m={doc['m']}{at}:")
        for row in doc["entries"]:
            lines.append(f"  {_mono_label(row, names)}: {_value_str(row)}")
    elif cmd in ("flexlocus", "pencil"):
        what = "tangency-point locus" if cmd == "flexlocus" else "pencil tangency-point locus"
        lines.append(f"{what} for {part}, m={doc['m']}, ambient n={doc['n']}{at}:")
        for row in doc["entries"]:
            lines.append(f"  {_mono_label(row, ('zeta',))}: {_value_str(row)}")
    elif cmd == "universal":
        lines.append(f"universal class for {part}{at}:")
        for row in doc["entries"]:
            lines.append(f"  xi^{row['xi']} s_{{{row['k']},{row['l']}}}: {_value_str(row)}")
    else:
        raise ValueError(f"no text form for {cmd}")
    return "\n".join(lines)


def _entry_label(row, basis):
    if basis == "schur":
        return f"s_{{{row['k']},{row['l']}}}"
    if basis == "chern":
        return _mono_label(row, ("c1", "c2")) or "1"
    return _mono_label(row, ("a", "b")) or "1"


def _mono_label(row, names):
    return "*".join(
        n if row[n] == 1 else f"{n}^{row[n]}"
        for n in names if row.get(n, 0)) or "1"


def _value_str(row):
    if "value" in row:
        return row["value"]
    return _coeffs_str(row["coeffs_d"])
