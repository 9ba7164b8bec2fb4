"""Golden self-test corpus.

Every check freezes a value that was verified by hand against independent
sources (classical tangent-line counts, Schubert calculus on the space of
lines, published line counts on hypersurfaces).  `run_all` recomputes each
one from scratch; any mismatch means the library, not the corpus, is wrong.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import docs
from .combinat import catalan, kostka, riordan
from .crs import (crs_class, crs_m_closed, euler_identity_check, leading_term,
                  weighted_product)
from .dpoly import D, DPoly
from .flagcalc import (FlagClass, flex_point_locus_class, incidence_class,
                       p_push, q_push, tangency_class_resolution)
from .multipoly import MultiPoly, substitute_homogeneous
from .plucker import (asymptotic_plucker, degree_table, hyperflex_count,
                      lines_on_hypersurface, mflex_polynomial, plucker_point,
                      plucker_table)
from .schur import (SchurExpansion, complete_h_expand, divided_difference,
                    schur_expand, schur_to_chern)
from .universal import (hilbert_degree, pencil_locus_class, universal_class,
                        universal_incidence_class)

_A = MultiPoly.variable("a")
_B = MultiPoly.variable("b")


def P(*coeffs):
    """DPoly from ascending coefficients given as ints or fraction strings."""
    return DPoly(tuple(Fraction(c) for c in coeffs))


def first_miss(comparisons):
    """The failure text of the first (label, got, wanted) with got != wanted, or None.

    The comparisons are read one at a time, so a check stops at its first miss.
    """
    for label, got, wanted in comparisons:
        if got != wanted:
            text = f"got {got}, wanted {wanted}"
            return f"{label}: {text}" if label else text
    return None


# One frozen table per family keeps the check functions short.

CRS_GOLDEN = {
    (2,): SchurExpansion({(1, 0): P(0, -1, 1)}),
    (3,): SchurExpansion({(2, 0): P(0, 2, -3, 1), (1, 1): P(0, -6, 3)}),
    (2, 2): SchurExpansion({(2, 0): P(0, -3, "11/2", -3, "1/2"),
                            (1, 1): P(0, 9, "-9/2", -1, "1/2")}),
}

HYPERFLEX_GOLDEN = {
    3: 9,
    4: 575,
    5: 99715,
    6: 33899229,
    7: 19134579541,
    8: 16213602794675,
    9: 19275975908850375,
}


def check_twist_cleared():
    """Twisting the one-part class by the largest peeled part stays polynomial."""
    shifted = crs_class((2,)).to_roots()
    shifted = MultiPoly(shifted.variables,
                        {e: c.compose(D - 2) for e, c in shifted.terms.items()})
    twisted = substitute_homogeneous(
        shifted, {"a": _A * D, "b": _B * (D - 2) + _A * 2}, D - 2)
    yield "", twisted, _A * P(-6, -1, 1) + _B * P(6, -5, 1)


def check_twist_universal():
    u = universal_class((2,))
    yield "", str(u.poly), "(d^2 - d)*a + (d^2 - d)*b + (2*d - 2)*xi"


def check_divided_difference_product():
    p = (_B * D) * (_A + _B * (D - 1))
    yield "", divided_difference(p), (_A + _B) * P(0, -1, 1)


def check_divided_difference_diagonal():
    for i in range(1, 6):
        yield f"i={i}", divided_difference(_A ** i * _B ** i), 0


def check_schur_chern_units():
    c1, c2 = MultiPoly.variable("c1"), MultiPoly.variable("c2")
    yield "", schur_to_chern(SchurExpansion({(2, 0): Fraction(1)})), c1 * c1 - c2
    yield "", schur_to_chern(SchurExpansion({(1, 1): Fraction(1)})), c2


def check_schur_expand_three():
    yield "", schur_expand(crs_class((3,)).to_roots()), CRS_GOLDEN[(3,)]


def check_chern_form_three():
    got = schur_to_chern(crs_class((3,)).expansion)
    yield "", str(got), "(d^3 - 3*d^2 + 2*d)*c1^2 + (-d^3 + 6*d^2 - 8*d)*c2"


def check_kostka():
    yield "", kostka((2, 2), (1, 1, 1, 1)), 2
    yield "", kostka((3, 2), (3, 2)), 1


def check_catalan():
    yield "", catalan(2), 2


def check_riordan():
    yield "", [riordan(n) for n in (3, 4, 5, 6)], [1, 3, 6, 15]


def check_complete_h():
    got = complete_h_expand((1, 1, 1, 1))
    yield "", got.coefficient(2, 2), Fraction(2)


def check_weighted_product():
    yield "", str(weighted_product(2)), "(d)*a*b + (d^2 - d)*b^2"


def check_crs_two():
    yield "", crs_class((2,)).expansion, CRS_GOLDEN[(2,)]


def check_crs_two_two():
    yield "", crs_class((2, 2)).expansion, CRS_GOLDEN[(2, 2)]


def check_crs_closed_forms():
    for m, lam in ((2, (2,)), (3, (3,))):
        yield f"m={m}", crs_m_closed(m).expansion, CRS_GOLDEN[lam]
    wanted4 = SchurExpansion({(3, 0): P(0, -6, 11, -6, 1), (2, 1): P(0, 12, -22, 6)})
    yield "", crs_m_closed(4).expansion, wanted4


def check_leading_terms():
    yield "", leading_term((2, 2)), SchurExpansion({(2, 0): Fraction(1, 2),
                                                    (1, 1): Fraction(1, 2)})
    yield "", leading_term((3,)), SchurExpansion({(2, 0): Fraction(1)})


def check_plucker_tables():
    wanted = {
        (2,): [(1, P(0, -1, 1))],
        (3,): [(2, P(0, 2, -3, 1)), (0, P(0, -6, 3))],
        (2, 2): [(2, P(0, -3, "11/2", -3, "1/2")),
                 (0, P(0, 9, "-9/2", -1, "1/2"))],
        (2, 2, 2, 2): [
            (4, P(0, -210, "1089/2", "-3283/6", "6769/24", "-245/3",
                  "161/12", "-7/6", "1/24")),
            (2, P(0, 1050, "-3205/2", "6271/6", "-6085/24", "-38/3",
                  "191/12", "-5/2", "1/8")),
            (0, P(0, -2100, 2085, "-1199/3", "-1075/12", 21, "9/2",
                  "-4/3", "1/12")),
        ],
    }
    for lam, rows in wanted.items():
        yield str(lam), [(i, p) for i, p in plucker_table(lam)], rows


def check_plucker_point():
    yield "", plucker_point((2, 2)), P(0, -3, "11/2", -3, "1/2")
    for m in (2, 3, 4, 5):
        falling = DPoly((1,))
        for i in range(m):
            falling = falling * (D - i)
        yield f"m={m}", plucker_point((m,)), falling


def check_degree_tables():
    yield "", list(degree_table((10, 2, 2))), [(11, 14), (9, 14), (7, 14), (5, 13),
                                               (3, 12), (1, 11)]
    yield "", list(degree_table((2, 2))), [(2, 4), (0, 4)]


def check_asymptotics():
    wanted = {
        (2, 2, 2, 2): [(4, Fraction(1, 24)), (2, Fraction(1, 8)),
                       (0, Fraction(1, 12))],
        (3, 3): [(4, Fraction(1, 2)), (2, Fraction(1, 2)),
                 (0, Fraction(1, 2))],
        (3, 3, 3): [(6, Fraction(1, 6)), (4, Fraction(1, 3)),
                    (2, Fraction(1, 2)), (0, Fraction(1, 6))],
        (4,): [(3, Fraction(1)), (1, Fraction(0))],
    }
    for lam, rows in wanted.items():
        yield str(lam), [(i, c) for i, c in asymptotic_plucker(lam)], rows


def check_mflex():
    yield "", mflex_polynomial(4, 1), P(0, 12, -22, 6)
    yield "", mflex_polynomial(3, 1), plucker_table((3,)).polynomial(0)


def check_hyperflex():
    for n, wanted in HYPERFLEX_GOLDEN.items():
        yield f"n={n}", hyperflex_count(n), wanted


def check_lines():
    yield "", lines_on_hypersurface(3), 27
    yield "", lines_on_hypersurface(4), 2875
    for n in (3, 4, 5, 6):
        yield (f"line/hyperflex ratio at n={n}", lines_on_hypersurface(n),
               (2 * n - 3) * hyperflex_count(n))


def check_euler_identity():
    for d0 in (2, 3, 4, 5):
        yield f"d={d0}", euler_identity_check(d0), True


def check_p_push_products():
    zeta = MultiPoly.variable("zeta")
    eta = MultiPoly.variable("eta")
    wanted = {2: CRS_GOLDEN[(2,)], 3: CRS_GOLDEN[(3,)]}
    for m, target in wanted.items():
        prod = MultiPoly.scalar(Fraction(1))
        for i in range(m):
            prod = prod * (zeta * D - zeta * i + eta * i)
        yield f"m={m}", p_push(FlagClass(prod)).expansion, target


def check_q_push_rules():
    eta = MultiPoly.variable("eta")
    yield "eta^2", str(q_push(FlagClass(eta ** 2, 4)).poly), "1"
    yield "", str(q_push(FlagClass(eta ** 3, 4)).poly), "-zeta"


def check_incidence_two_two():
    inc = incidence_class((2, 2), 2)
    yield "", str(inc.poly), (
        "(d^4 - 6*d^3 + 11*d^2 - 6*d)*zeta^3"
        " + (d^4 - d^3 - 10*d^2 + 12*d)*zeta^2*eta"
        " + (d^3 - d^2 - 6*d)*zeta*eta^2")
    yield "", str(inc.in_zeta_sigma()), (
        "(-4*d^3 + 20*d^2 - 24*d)*zeta^3"
        " + (d^4 - 3*d^3 - 8*d^2 + 24*d)*zeta^2*sigma1"
        " + (d^3 - d^2 - 6*d)*zeta*sigma1^2")


def check_incidence_three_two():
    inc = incidence_class((3, 2), 2)
    yield "", str(inc.poly), (
        "(d^5 - 10*d^4 + 35*d^3 - 50*d^2 + 24*d)*zeta^4"
        " + (d^5 - 37*d^3 + 102*d^2 - 72*d)*zeta^3*eta"
        " + (d^5 - 3*d^4 + 5*d^3 - 54*d^2 + 72*d)*zeta^2*eta^2"
        " + (d^4 - 3*d^3 + 2*d^2 - 24*d)*zeta*eta^3")


def check_tangency_resolution():
    yield "", tangency_class_resolution((2,), 3).expansion, CRS_GOLDEN[(2,)]
    yield "", tangency_class_resolution((2, 2), 4).expansion, CRS_GOLDEN[(2, 2)]


def check_flex_loci():
    got = flex_point_locus_class((3, 2), 3, 4)
    yield "m=3", str(got.poly), "(3*d^4 - 7*d^3 - 44*d^2 + 96*d)*zeta^2"
    got = flex_point_locus_class((3, 2), 2, 4)
    yield "", str(got.poly), "(d^5 - 4*d^4 + 8*d^3 - 56*d^2 + 96*d)*zeta^2"


def check_universal_classes():
    yield "(3)", str(universal_class((3,)).poly), (
        "(d^3 - 3*d^2 + 2*d)*a^2 + (d^3 - 4*d)*a*b"
        " + (3*d^2 - 6*d)*a*xi + (d^3 - 3*d^2 + 2*d)*b^2"
        " + (3*d^2 - 6*d)*b*xi + (3*d - 6)*xi^2")
    yield "", str(universal_class((2, 2)).poly), (
        "(1/2*d^4 - 3*d^3 + 11/2*d^2 - 3*d)*a^2"
        " + (d^4 - 4*d^3 + d^2 + 6*d)*a*b + (2*d^3 - 10*d^2 + 12*d)*a*xi"
        " + (1/2*d^4 - 3*d^3 + 11/2*d^2 - 3*d)*b^2"
        " + (2*d^3 - 10*d^2 + 12*d)*b*xi + (2*d^2 - 10*d + 12)*xi^2")


def check_hilbert_degrees():
    yield "", hilbert_degree((3,)), P(-6, 3)
    yield "", hilbert_degree((2,)), P(-2, 2)


def check_pencil_slice():
    u = universal_incidence_class((2, 2), 2, 3)
    yield "", str(u.poly.coefficient("xi", 1)), (
        "(4*d^3 - 19*d^2 + 23*d - 6)*zeta^2"
        " + (2*d^3 - 22*d + 12)*zeta*eta + (d^2 - d - 6)*eta^2")


def check_pencil_final():
    got = pencil_locus_class((2, 2), 2, 3)
    yield "", str(got.poly), "(2*d^3 - d^2 - 21*d + 18)*zeta"
    yield "", got.coefficient(1), (D - 3) * P(-6, 5, 2)


def check_doc_empty_class():
    doc = docs.class_document(())
    yield "", doc["entries"], [{"k": 0, "l": 0, "coeffs_d": ["1"]}]


def check_doc_class_two():
    doc = docs.class_document((2,))
    yield "", doc["entries"], [{"k": 1, "l": 0, "coeffs_d": ["0", "-1", "1"]}]


def check_doc_hyperflex():
    yield "", docs.hyperflex_document(4)["value"], "575"
    yield "", docs.hyperflex_document(9)["value"], "19275975908850375"


def check_doc_roundtrip():
    for doc in (docs.class_document((2, 2)), docs.plucker_document((3,)),
                docs.flexlocus_document((3, 2), 2, 4),
                docs.universal_document((2,))):
        yield doc["command"], json.loads(docs.emit_json(doc)), doc


CHECKS = [
    ("twist-cleared-denominator", check_twist_cleared),
    ("twist-universal-shift", check_twist_universal),
    ("divided-difference-product", check_divided_difference_product),
    ("divided-difference-diagonal", check_divided_difference_diagonal),
    ("schur-to-chern-units", check_schur_chern_units),
    ("schur-expand-triple-root", check_schur_expand_three),
    ("chern-form-triple-root", check_chern_form_three),
    ("kostka-numbers", check_kostka),
    ("catalan-number", check_catalan),
    ("riordan-numbers", check_riordan),
    ("complete-h-expansion", check_complete_h),
    ("weighted-product", check_weighted_product),
    ("class-double-root", check_crs_two),
    ("class-two-double-roots", check_crs_two_two),
    ("class-closed-forms", check_crs_closed_forms),
    ("leading-terms", check_leading_terms),
    ("plucker-tables", check_plucker_tables),
    ("plucker-point-conditions", check_plucker_point),
    ("plucker-degree-tables", check_degree_tables),
    ("asymptotic-coefficients", check_asymptotics),
    ("flex-closed-form", check_mflex),
    ("hyperflex-counts", check_hyperflex),
    ("lines-on-hypersurfaces", check_lines),
    ("euler-class-identity", check_euler_identity),
    ("line-pushforward-products", check_p_push_products),
    ("point-pushforward-rules", check_q_push_rules),
    ("incidence-two-double-roots", check_incidence_two_two),
    ("incidence-three-two", check_incidence_three_two),
    ("tangency-via-resolution", check_tangency_resolution),
    ("flex-point-loci", check_flex_loci),
    ("universal-classes", check_universal_classes),
    ("hilbert-degrees", check_hilbert_degrees),
    ("pencil-xi-slice", check_pencil_slice),
    ("pencil-final-class", check_pencil_final),
    ("doc-empty-class", check_doc_empty_class),
    ("doc-class-double-root", check_doc_class_two),
    ("doc-hyperflex-values", check_doc_hyperflex),
    ("doc-json-roundtrip", check_doc_roundtrip),
]


def run_all():
    """Run every check; a list of (name, ok, detail)."""
    results = []
    for name, fn in CHECKS:
        try:
            detail = first_miss(fn())
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
        results.append((name, detail is None, detail))
    return results
