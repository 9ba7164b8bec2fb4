"""Sparse multivariate layer and the cleared-denominator substitution."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootstrata.crs import crs_class, weighted_product
from rootstrata.dpoly import D, DPoly
from rootstrata.errors import PolynomialityViolation, ZeroDenominator
from rootstrata.multipoly import VAR_ORDER, MultiPoly, substitute_homogeneous
from rootstrata.schur import SchurExpansion, divided_difference

A = MultiPoly.variable("a")
B = MultiPoly.variable("b")
XI = MultiPoly.variable("xi")
ZETA = MultiPoly.variable("zeta")
ETA = MultiPoly.variable("eta")

coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=5)


def small_polys():
    """Random small polynomials in a, b."""
    monos = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return st.dictionaries(monos, coeffs, max_size=5).map(
        lambda terms: MultiPoly(("a", "b"), dict(terms)))


def test_variables_sorted_and_pruned():
    p = B * A + 1
    assert p.variables == ("a", "b")
    q = A * 0 + B
    assert q.variables == ("b",)


def test_d_in_scalars_and_as_variable_are_kept_apart():
    """d lives in the scalars alone; as a variable name it is unknown."""
    p = A * (D ** 2 - D)
    assert p.variables == ("a",)
    assert "d" not in VAR_ORDER
    with pytest.raises(ValueError):
        MultiPoly(("a", "d"), {(1, 1): D})
    with pytest.raises(ValueError):
        MultiPoly.variable("d")


def test_coefficient_extraction():
    p = A ** 2 * B + 3 * A * B - B
    assert p.coefficient("a", 1) == 3 * B
    assert p.coefficient("a", 0) == -B
    assert p.coefficient("b", 1) == A ** 2 + 3 * A - 1


def test_substitute_and_swap():
    p = A ** 2 - B ** 2
    assert p.substitute({"a": B, "b": A}) == -p
    assert p.swap_vars("a", "b") == -p
    assert (A + B).is_symmetric("a", "b")
    assert not (A - B).is_symmetric("a", "b")


def test_swap_with_one_or_neither_variable_present():
    assert (A ** 2 * XI + 3).swap_vars("a", "b") == B ** 2 * XI + 3
    assert (B * XI).swap_vars("a", "b") == A * XI
    assert (ETA ** 2 + ZETA).swap_vars("eta", "zeta") == ZETA ** 2 + ETA
    assert (XI + 1).swap_vars("a", "b") == XI + 1
    assert MultiPoly().swap_vars("zeta", "eta") == MultiPoly()
    assert (ZETA ** 2 * ETA).is_symmetric("eta", "zeta") is False


def test_ring_operators_refuse_what_is_neither_scalar_nor_polynomial():
    for op in (lambda: A + "x", lambda: "x" + A, lambda: A * "x", lambda: A - "x"):
        with pytest.raises(TypeError):
            op()


def test_two_var_terms_fills_an_absent_variable_with_zero():
    assert (ZETA ** 2 * 3 + ZETA).two_var_terms("eta", "zeta") == {(0, 2): 3, (0, 1): 1}
    assert (ZETA ** 2 * ETA).two_var_terms("eta", "zeta") == {(1, 2): 1}
    assert (ZETA ** 2 * ETA).two_var_terms("zeta", "eta") == {(2, 1): 1}
    assert MultiPoly.scalar(D).two_var_terms("eta", "zeta") == {(0, 0): D}
    assert MultiPoly().two_var_terms("eta", "zeta") == {}


def test_substitute_leaves_unbound_variables_inside_bound_values():
    """xi stays unbound, appears in a's value, and alone in one term."""
    got = (A ** 2 * XI + XI + 3).substitute({"a": A + XI})
    # (a + xi)^2 xi + xi + 3
    want = MultiPoly(("a", "xi"), {(2, 1): 1, (1, 2): 2, (0, 3): 1, (0, 1): 1, (0, 0): 3})
    assert got == want
    assert (A * B ** 2 * D).substitute({"a": B}) == MultiPoly(("b",), {(3,): D})
    assert (XI ** 2 - 1).substitute({}) == XI ** 2 - 1
    assert MultiPoly.scalar(D).substitute({"a": XI}) == MultiPoly.scalar(D)


def test_evaluate_d():
    p = A * D + B * (D ** 2)
    assert p.evaluate_d(3) == A * 3 + B * 9


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=50, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r


@given(small_polys(), small_polys())
@settings(max_examples=40, deadline=None)
def test_substitution_is_a_homomorphism(p, q):
    bind = {"a": A + B, "b": A - 2 * B}
    assert (p * q).substitute(bind) == p.substitute(bind) * q.substitute(bind)
    assert (p + q).substitute(bind) == p.substitute(bind) + q.substitute(bind)


def test_homogeneity_predicates():
    assert (A * B + B ** 2).is_homogeneous()
    assert not (A + B ** 2).is_homogeneous()
    assert (A * B ** 2).total_degree() == 3


def _d_degree(p):
    return max((c.degree for c in p.terms.values() if isinstance(c, DPoly)), default=0)


def test_substitute_homogeneous_matches_rational_route():
    """The cleared engine equals naive substitution by rational values.

    At each integer d != m the naive side substitutes num/(d - m) as exact
    Fractions.  Times (d - m)^c it is a polynomial in d of degree at most
    n, and so is the cleared side times (d - m)^c; agreement at more than
    n points proves the identity.
    """
    smaller = crs_class((3, 2)).to_roots()  # peeling 3 off (3, 3, 2)
    cases = [((A ** 2 * B + 2 * A * B ** 2) * ((D - 2) ** 3), 2),
             (MultiPoly(smaller.variables,
                        {e: c.compose(D - 3) for e, c in smaller.terms.items()}), 3)]
    for p, m in cases:
        nums = {"a": A * D, "b": B * (D - m) + A * m}
        cleared = substitute_homogeneous(p, nums, D - m)
        c = p.total_degree()
        n = _d_degree(p) + c  # each numerator has degree 1 in d
        assert n >= _d_degree(cleared) + c
        points = [k for k in range(-3, n + 2) if k != m]
        assert len(points) > n
        for k in points:
            naive = p.evaluate_d(k).substitute(
                {v: num.evaluate_d(k) * Fraction(1, k - m) for v, num in nums.items()})
            assert cleared.evaluate_d(k) == naive


def test_substitute_homogeneous_rejects_nonpolynomial_results():
    p = A  # degree 1, so we divide the result by den once
    with pytest.raises(PolynomialityViolation):
        substitute_homogeneous(p, {"a": A * D + 1}, D - 2)


def substitute_then_divide(p, numerators, den):
    """Reference: substitute every power product, then divide each coefficient."""
    total, shift = p.substitute(numerators), den ** p.total_degree()
    out = {}
    for e, c in total.terms.items():
        q, r = c.divmod(shift)
        if r:
            raise PolynomialityViolation("inexact")
        out[e] = q
    return MultiPoly(total.variables, out)


@st.composite
def homogeneous_cases(draw):
    """A homogeneous p in 0-3 of a, b, xi (none: a constant), its numerators, a den.

    Half the time p's coefficients carry den**degree, so the division is exact.
    """
    names = draw(st.lists(st.sampled_from(("xi", "b", "a")), max_size=3, unique=True))
    degree = draw(st.integers(1, 3)) if names else 0
    picks = st.lists(st.integers(0, max(len(names) - 1, 0)), min_size=degree, max_size=degree)
    monos = picks.map(lambda ps: tuple(ps.count(i) for i in range(len(names))))
    nonzero = st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any).map(DPoly)
    den = draw(st.sampled_from((D, D - 2, 2 * D + 1, DPoly((3,)))))
    scale = den ** degree if draw(st.booleans()) else DPoly((1,))
    p = MultiPoly(names, {e: c * scale for e, c in
                          draw(st.dictionaries(monos, nonzero, min_size=1, max_size=4)).items()})
    lin = st.tuples(small_dpolys, small_dpolys, small_dpolys).map(
        lambda cs: A * cs[0] + B * cs[1] + XI * cs[2])
    numerators = {v: draw(lin) for v in names}
    return p, numerators, den


@given(homogeneous_cases())
@settings(max_examples=80, deadline=None)
def test_substitute_homogeneous_matches_the_reference(case):
    p, numerators, den = case
    try:
        want = substitute_then_divide(p, numerators, den)
    except PolynomialityViolation:
        with pytest.raises(PolynomialityViolation):
            substitute_homogeneous(p, numerators, den)
    else:
        assert substitute_homogeneous(p, numerators, den) == want


def test_substitute_homogeneous_constant_and_inexact_cases():
    for const in (MultiPoly(), MultiPoly.scalar(D - 5)):
        assert substitute_homogeneous(const, {}, D) == const
        assert substitute_then_divide(const, {}, D) == const
    # (a*d + 1)(b*d) / d^2 = a*b + b/d leaves a remainder in the b term
    with pytest.raises(PolynomialityViolation):
        substitute_homogeneous(A * B, {"a": A * D + 1, "b": B * D}, D)
    with pytest.raises(PolynomialityViolation):
        substitute_then_divide(A * B, {"a": A * D + 1, "b": B * D}, D)


def test_substitute_homogeneous_xi_shift():
    p = A * B * (D ** 2)
    got = substitute_homogeneous(p, {"a": A * D + XI, "b": B * D + XI}, D)
    assert got == (A * D + XI) * (B * D + XI)
    back = got.substitute({"xi": MultiPoly.scalar(0)})
    assert back == A * B * (D ** 2)


def test_division_by_dfrac_and_scalar():
    p = A * (D - 1)
    assert p / (D - 1) == A
    assert p / Fraction(1, 2) == A * (2 * D - 2)
    assert (p * D + B * D) / D == p + B
    with pytest.raises(PolynomialityViolation):
        p / D


def test_terms_that_cancel_drop_out():
    p = A * (D ** 2 - D) + B * D
    q = A * (D - D ** 2) + B * Fraction(1, 2)
    total = p + q
    assert total.variables == ("b",)
    assert total.terms == {(1,): D + Fraction(1, 2)}
    assert not (p - p).terms and (p - p).variables == ()
    kept = MultiPoly(("a", "b"), {(1, 0): DPoly(), (0, 1): D, (0, 0): DPoly((0, 0))})
    assert kept.variables == ("b",) and kept.terms == {(1,): D}


def test_division_by_zero_raises_zero_denominator():
    for p in (A * D + B, MultiPoly.scalar(3), MultiPoly()):
        for zero in (0, Fraction(0), DPoly()):
            with pytest.raises(ZeroDenominator):
                p / zero


def test_int_and_fraction_scalars_become_constant_dpolys():
    p = MultiPoly(("a",), {(1,): 3}) * Fraction(1, 2) - 1
    assert all(type(c) is DPoly for c in p.terms.values())
    assert p.terms == {(1,): Fraction(3, 2), (0,): -1}
    assert str(p) == "3/2*a - 1" and str(p / Fraction(-3, 2)) == "-a + 2/3"
    assert str(p * D) == "(3/2*d)*a + (-d)"
    assert all(type(c) is DPoly for c in (p * D).terms.values())


small_dpolys = st.lists(st.integers(-2, 2), max_size=3).map(lambda cs: DPoly(tuple(cs)))


@st.composite
def d_polys(draw, scalars=small_dpolys):
    """Small polynomials in some of a, b, xi with DPoly scalars, zeros included."""
    names = draw(st.lists(st.sampled_from(("xi", "b", "a")), max_size=3, unique=True))
    monos = st.tuples(*[st.integers(0, 2)] * len(names))
    return MultiPoly(names, draw(st.dictionaries(monos, scalars, max_size=5)))


def assert_canonical(r):
    rebuilt = MultiPoly(r.variables, dict(r.terms))
    assert (rebuilt.variables, rebuilt.terms) == (r.variables, r.terms)
    assert list(r.variables) == sorted(r.variables, key=VAR_ORDER.index)
    assert all(type(c) is DPoly and c for c in r.terms.values())
    assert all(any(e[i] for e in r.terms) for i in range(len(r.variables)))


@given(d_polys(), d_polys(), small_dpolys, st.integers(0, 2),
       st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), small_dpolys,
                       max_size=4))
@settings(max_examples=60, deadline=None)
def test_every_result_is_canonical(p, q, c, k, schur):
    """Each producer hands back the form the public constructor would build."""
    results = [p + q, p - q, p - p, q + p - q, -p, p * q, p * (q - q), p * 3,
               p * c, p * Fraction(-1, 2), p / Fraction(2, 3), p * (D - 1) / (D - 1),
               p.coefficient("a", k), p.coefficient("xi", 0), p.swap_vars("a", "b"),
               p.swap_vars("b", "xi"), p.substitute({"a": q}), p.substitute({"b": A, "a": B}),
               p.substitute({"xi": 0}), p.substitute({"a": A - B, "b": B - A}),
               divided_difference(p), divided_difference(p * p.swap_vars("a", "b")),
               SchurExpansion({(i + j, i): v for (i, j), v in schur.items()}).to_roots()]
    if c:
        results.append(p * c / c)
    for r in results:
        assert_canonical(r)


def fraction_str(p):
    """MultiPoly.__str__ as spelled through one Fraction per constant coefficient."""
    if not p.terms:
        return "0"
    pieces = []
    for e, c in p.sorted_terms():
        mono = "*".join(
            v if k == 1 else f"{v}^{k}"
            for v, k in zip(p.variables, e) if k)
        sign = "+"
        if c.degree <= 0:
            c = c.constant_term()
            if c < 0:
                sign, c = "-", -c
            coef = str(c)
        else:
            coef = f"({c})"
        if mono:
            body = mono if coef == "1" else f"{coef}*{mono}"
        else:
            body = coef
        pieces.append((sign, body))
    out = pieces[0][1] if pieces[0][0] == "+" else "-" + pieces[0][1]
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


mixed_scalars = st.one_of(coeffs, st.lists(coeffs, max_size=3).map(DPoly))


@given(d_polys(mixed_scalars))
@settings(max_examples=80, deadline=None)
def test_str_matches_the_fraction_reference(p):
    assert str(p) == fraction_str(p)
    assert str(-p) == fraction_str(-p)


@pytest.mark.parametrize("k", [2.5, "5/2"], ids=["float", "str"])
def test_evaluate_d_refuses_inexact_points_either_way(k):
    """weighted_product and a polynomial built by hand refuse the same inexact points."""
    with pytest.raises(TypeError):
        weighted_product(2).evaluate_d(k)
    with pytest.raises(TypeError):
        (A * D).evaluate_d(k)


def test_evaluate_d_takes_exact_points():
    wp = weighted_product(2)
    half = Fraction(5, 2) * A * B + Fraction(15, 4) * B ** 2
    assert wp.evaluate_d(Fraction(5, 2)) == half
    assert wp.evaluate_d(DPoly((Fraction(5, 2),))) == half
    assert wp.evaluate_d(3) == 3 * A * B + 6 * B ** 2
    assert wp.evaluate_d(DPoly((3,))) == wp.evaluate_d(3)
