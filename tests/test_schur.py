"""Divided differences, Schur expansion, and basis conversions."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rootstrata.crs import crs_class
from rootstrata.dpoly import ZERO, DPoly
from rootstrata.errors import NotSymmetric
from rootstrata.multipoly import MultiPoly
from rootstrata.schur import (SchurExpansion, chern_to_schur,
                              complete_h_expand, divided_difference,
                              h_roots, schur_expand, schur_to_chern)
from strata_sweep import strata

A = MultiPoly.variable("a")
B = MultiPoly.variable("b")
XI = MultiPoly.variable("xi")

coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=5)


def ab_polys(max_exp=4, max_terms=5):
    monos = st.tuples(st.integers(0, max_exp), st.integers(0, max_exp))
    return st.dictionaries(monos, coeffs, max_size=max_terms).map(
        lambda terms: MultiPoly(("a", "b"), dict(terms)))


def eval_ab(p, x, y):
    """Evaluate a polynomial in a, b at rational points."""
    out = p.substitute({"a": MultiPoly.scalar(x), "b": MultiPoly.scalar(y)})
    if not out.terms:
        return Fraction(0)
    return next(iter(out.terms.values()))


@given(ab_polys())
@settings(max_examples=60, deadline=None)
def test_divided_difference_definition(p):
    """The monomial rule agrees with (p(a,b) - p(b,a)) / (b - a)."""
    dd = divided_difference(p)
    for x, y in ((Fraction(2), Fraction(5)), (Fraction(-1, 3), Fraction(4))):
        direct = (eval_ab(p, x, y) - eval_ab(p, y, x)) / (y - x)
        assert eval_ab(dd, x, y) == direct


@given(ab_polys())
@settings(max_examples=40, deadline=None)
def test_divided_difference_output_is_symmetric(p):
    assert divided_difference(p).is_symmetric("a", "b")


@given(ab_polys(max_exp=3, max_terms=4))
@settings(max_examples=30, deadline=None)
def test_divided_difference_is_linear_over_symmetric(p):
    sym = A * B + 2 * (A + B)
    assert divided_difference(sym * p) == sym * divided_difference(p)


def test_divided_difference_passengers_ride_along():
    assert divided_difference(XI * B ** 2) == XI * (A + B)
    assert divided_difference(XI * A ** 2) == -XI * (A + B)


def test_divided_difference_other_variable_names():
    zeta = MultiPoly.variable("zeta")
    eta = MultiPoly.variable("eta")
    got = divided_difference(zeta ** 2, "eta", "zeta")
    assert got == zeta + eta


def test_straightening_rule():
    """Divided differences of monomials land on single Schur elements."""
    for m in range(1, 13):
        for i in range(m + 1):
            got = divided_difference(A ** i * B ** (m - i))
            if 2 * i < m:
                wanted = SchurExpansion({(m - i - 1, i): Fraction(1)}).to_roots()
            elif 2 * i > m:
                wanted = -SchurExpansion({(i - 1, m - i): Fraction(1)}).to_roots()
            else:
                wanted = MultiPoly()
            assert got == wanted, (m, i)


def test_h_roots():
    assert h_roots(0) == MultiPoly.scalar(1)
    assert h_roots(2) == A ** 2 + A * B + B ** 2


def test_schur_expand_round_trip():
    e = SchurExpansion({(3, 1): Fraction(2), (2, 2): Fraction(-1, 2),
                        (4, 0): Fraction(5)})
    assert schur_expand(e.to_roots()) == e


@given(st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda t: t[0] >= t[1]),
    coeffs, max_size=4))
@settings(max_examples=40, deadline=None)
def test_schur_expand_round_trip_random(entries):
    e = SchurExpansion(dict(entries))
    assert schur_expand(e.to_roots()) == e


def test_schur_expand_rejects_asymmetric_input():
    with pytest.raises(NotSymmetric):
        schur_expand(A - B)


def strip_expand(p, x="a", y="b"):
    """Reference expansion: strip the graded-lex leading monomial x^i y^j,
    record its coefficient at s_{i,j} and subtract that s_{i,j} from the rest.
    """
    work = p.two_var_terms(x, y)
    out = {}
    while work:
        i, j = max(work, key=lambda e: (e[0] + e[1], e[0]))
        c = work.pop((i, j))
        assert i >= j, (i, j)
        out[(i, j)] = c
        for t in range(i - j):
            key = (j + t, i - t)
            rest = work.get(key, ZERO) - c
            if not rest:
                work.pop(key, None)
            else:
                work[key] = rest
    return SchurExpansion(out)


d_coeffs = st.lists(coeffs, min_size=1, max_size=3).map(DPoly)


@st.composite
def symmetric_polys(draw):
    """Symmetric polynomials in a, b of mixed degrees with DPoly coefficients.

    Each drawn monomial a^i b^j (i >= j) also sets a^j b^i, so most degrees
    have gaps: a zero P[N - j] next to a nonzero P[N - j + 1].
    """
    pairs = st.tuples(st.integers(0, 6), st.integers(0, 6)).map(lambda t: (max(t), min(t)))
    entries = draw(st.dictionaries(pairs, d_coeffs, max_size=8))
    terms = {}
    for (i, j), c in entries.items():
        terms[(i, j)] = terms[(j, i)] = c
    return MultiPoly(("a", "b"), terms)


@given(symmetric_polys())
@settings(max_examples=80, deadline=None)
def test_schur_expand_matches_the_stripping_loop(p):
    got = schur_expand(p)
    assert got == strip_expand(p)
    assert got.to_roots() == p


def test_schur_expand_reads_a_coefficient_beside_a_zero():
    """a^3 + b^3 has no a^2 b, yet its s_{2,1} coefficient is 0 - 1."""
    p = A ** 3 + B ** 3
    want = SchurExpansion({(3, 0): 1, (2, 1): -1})
    assert schur_expand(p) == strip_expand(p) == want


@given(symmetric_polys(), st.tuples(st.integers(0, 6), st.integers(0, 6)), d_coeffs)
@settings(max_examples=40, deadline=None)
def test_not_symmetric_raises_before_any_expansion(p, mono, c):
    p = p + MultiPoly(("a", "b"), {mono: c})
    assume(not p.is_symmetric())

    def unreachable(*args):
        raise AssertionError("expanded an asymmetric input")

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(MultiPoly, "two_var_terms", unreachable)
        with pytest.raises(NotSymmetric):
            schur_expand(p)


def test_schur_units_in_chern_classes():
    c1 = MultiPoly.variable("c1")
    c2 = MultiPoly.variable("c2")
    assert schur_to_chern(SchurExpansion({(1, 0): Fraction(1)})) == c1
    assert schur_to_chern(SchurExpansion({(2, 0): Fraction(1)})) == c1 ** 2 - c2
    assert schur_to_chern(SchurExpansion({(1, 1): Fraction(1)})) == c2
    # h_4 = c1^4 - 3 c1^2 c2 + c2^2: the first h_r with a term in c2^j, j >= 2
    assert (schur_to_chern(SchurExpansion({(4, 0): Fraction(1)}))
            == c1 ** 4 - 3 * c1 ** 2 * c2 + c2 ** 2)


def test_chern_round_trip():
    """The closed form of h_r against substituting the roots, on every class up to weight 12."""
    e = SchurExpansion({(3, 1): Fraction(2), (2, 0): Fraction(-3)})
    assert chern_to_schur(schur_to_chern(e)) == e
    for lam in strata(12):
        e = crs_class(lam).expansion
        assert chern_to_schur(schur_to_chern(e)) == e, lam


def test_complete_h_expand():
    # h_1 * h_1 = s_2 + s_{1,1}
    got = complete_h_expand((1, 1))
    assert got == SchurExpansion({(2, 0): Fraction(1), (1, 1): Fraction(1)})
    # h_{1^4} contains s_{2,2} with multiplicity K = 2
    assert complete_h_expand((1, 1, 1, 1)).coefficient(2, 2) == 2


def test_expansion_evaluate_and_truncate():
    from rootstrata.dpoly import D
    e = SchurExpansion({(2, 0): D ** 2, (1, 1): D - 1})
    at = e.evaluate_d(3)
    assert at.coefficient(2, 0) == 9 and at.coefficient(1, 1) == 2
    cut = e.truncate(1)
    assert cut.coefficient(2, 0) == 0 and cut.coefficient(1, 1) == D - 1


def test_str_signs_each_term_as_multipoly_does():
    e = SchurExpansion({(2, 0): 1, (1, 1): Fraction(-1, 2)})
    assert str(e) == "s_{2,0} - 1/2*s_{1,1}"
    e = SchurExpansion({(2, 0): -1, (1, 1): DPoly((0, -1, 1)), (0, 0): Fraction(-3, 4)})
    assert str(e) == "-s_{2,0} + (d^2 - d)*s_{1,1} - 3/4"
    assert str(SchurExpansion()) == "0"
