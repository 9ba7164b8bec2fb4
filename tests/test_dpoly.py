"""Dense univariate polynomials in d."""

import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootstrata.dpoly import D, DPoly, interpolate
from rootstrata.errors import (InconsistentSamples, PolynomialityViolation,
                               ZeroDenominator)

fractions = st.fractions(min_value=-30, max_value=30, max_denominator=7)
polys = st.lists(fractions, max_size=6).map(lambda cs: DPoly(tuple(cs)))


def test_constructor_strips_trailing_zeros():
    assert DPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert DPoly((0, 0)).degree == -1
    assert not DPoly(())


def test_rejects_floats():
    with pytest.raises(TypeError):
        DPoly((0.5,))


def test_str_descending():
    assert str(2 * D ** 3 - D + 5) == "2*d^3 - d + 5"
    assert str(DPoly(())) == "0"


def test_arithmetic_basics():
    p = D ** 2 - 1
    q = D + 1
    assert p == (D - 1) * q
    assert p - p == 0
    assert p + 1 == D ** 2
    assert (p / 2) * 2 == p
    assert p(3) == 8
    assert p.compose(D + 1) == D ** 2 + 2 * D


@given(polys, st.one_of(st.integers(-50, 50), st.integers(-(10 ** 40), 10 ** 40)))
@example(DPoly(()), 7)
@settings(max_examples=80, deadline=None)
def test_value_at_an_int_is_the_value_at_that_fraction(p, x):
    got = p(x)
    assert type(got) is Fraction and got == p(Fraction(x)) == p(DPoly.constant(x))


def test_value_refuses_a_non_scalar():
    for bad in (D, 0.5, "2", None):
        with pytest.raises(TypeError):
            (D ** 2 + 1)(bad)


def test_divmod_exact_division():
    p = (D - 3) * (2 * D ** 2 + 5 * D - 6)
    q, r = divmod(p, D - 3)
    assert r == 0 and q == 2 * D ** 2 + 5 * D - 6
    assert p / (D - 3) == q
    with pytest.raises(PolynomialityViolation):
        (D + 1) / D
    with pytest.raises(ZeroDenominator):
        D / DPoly(())


def test_divmod_by_a_scalar_divisor():
    p = 3 * D ** 2 + D - 4
    assert divmod(p, 2) == (p / 2, 0)
    assert p.divmod(Fraction(2, 3)) == (p * Fraction(3, 2), 0)
    assert divmod(p, -1) == (-p, 0)
    with pytest.raises(ZeroDenominator):
        divmod(p, 0)
    for bad in (2.0, "2", None):
        with pytest.raises(TypeError):
            divmod(p, bad)
    with pytest.raises(TypeError):
        p // 2
    with pytest.raises(TypeError):
        p % 2


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p + DPoly(()) == p
    assert p * DPoly((1,)) == p


@given(polys, polys)
@settings(max_examples=40, deadline=None)
def test_evaluation_is_a_homomorphism(p, q):
    at = Fraction(7, 3)
    assert (p * q)(at) == p(at) * q(at)
    assert (p + q)(at) == p(at) + q(at)


def test_interpolate_recovers_polynomial():
    p = D ** 3 - 2 * D + 7
    samples = [(k, p(k)) for k in range(5)]
    assert interpolate(samples, 3) == p


def test_interpolate_flags_bad_samples():
    samples = [(0, 1), (1, 2), (2, 3), (3, 100)]
    with pytest.raises(InconsistentSamples):
        interpolate(samples, 1)
    with pytest.raises(ValueError):
        interpolate([(0, 1), (0, 2)], 1)
    with pytest.raises(ValueError):
        interpolate([(0, 1)], 3)
    # a bound below -1 must not slice samples from the end
    with pytest.raises(ValueError):
        interpolate([(0, 0), (1, 1), (2, 2)], -2)
    with pytest.raises(ValueError):
        interpolate([(0, 5), (1, 5), (2, 5), (3, 5)], -3)


@given(st.lists(fractions, min_size=1, max_size=5), st.integers(0, 2), st.data())
@settings(max_examples=40, deadline=None)
def test_interpolate_round_trip(coeffs, extra, data):
    """Any distinct rational nodes, unsorted; an extra sample off p is refused."""
    p = DPoly(tuple(coeffs))
    bound = max(p.degree, 0)
    nodes = data.draw(st.lists(fractions, min_size=bound + 1 + extra,
                               max_size=bound + 1 + extra, unique=True))
    samples = [(k, p(k)) for k in nodes]
    assert interpolate(samples, bound) == p
    if extra:
        k, v = samples[-1]
        samples[-1] = (k, v + 1)
        with pytest.raises(InconsistentSamples):
            interpolate(samples, bound)


# A plain list-of-Fractions reference for the integer-backed DPoly.

def ref_trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                     for i in range(n)])


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_divmod(a, b):
    rem, quot = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quot[k] = c
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    return ref_trim(quot), ref_trim(rem)


def ref_eval(a, x):
    return sum((c * Fraction(x) ** i for i, c in enumerate(a)), Fraction(0))


def ref_compose(a, b):
    acc = []
    for c in reversed(a):
        acc = ref_add(ref_mul(acc, b), [c])
    return acc


def ref_str(a):
    terms = []
    for e in range(len(a) - 1, -1, -1):
        c = a[e]
        if c:
            var = "" if e == 0 else "d" if e == 1 else f"d^{e}"
            body = str(abs(c)) if not var else var if abs(c) == 1 else f"{abs(c)}*{var}"
            terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    out = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    return out + "".join(f" {s} {b}" for s, b in terms[1:])


def canonical(p):
    nums, den = p._nums, p._den
    return (all(type(x) is int for x in nums) and type(den) is int and den > 0
            and (not nums or nums[-1] != 0)
            and gcd(den, *nums) == 1 and (nums or den == 1))


coeff_lists = st.lists(fractions, max_size=6)
ints = st.integers(-9, 9)
monic = st.lists(ints, max_size=3).map(lambda cs: cs + [1])
nonzero_lists = coeff_lists.filter(lambda cs: any(cs))


@given(coeff_lists, coeff_lists, fractions)
@settings(max_examples=80, deadline=None)
def test_ring_ops_match_fraction_reference(a, b, c):
    p, q = DPoly(a), DPoly(b)
    fa, fb = ref_trim(a), ref_trim(b)
    assert p.coeffs == tuple(fa)
    cases = [(p + q, ref_add(fa, fb)),
             (p - q, ref_add(fa, [-x for x in fb])),
             (p * q, ref_mul(fa, fb)),
             (p * c, ref_mul(fa, [c])),
             (c * p, ref_mul(fa, [c])),
             (p + c, ref_add(fa, [c])),
             (c - p, ref_add([c], [-x for x in fa])),
             (-p, ref_trim(-x for x in fa))]
    if c:
        cases.append((p / c, ref_mul(fa, [1 / c])))
    for got, want in cases:
        assert canonical(got)
        assert got.coeffs == tuple(want)
        assert got == DPoly(want) and hash(got) == hash(DPoly(want))
        assert str(got) == ref_str(want)


@given(coeff_lists, monic, nonzero_lists)
@settings(max_examples=80, deadline=None)
def test_divmod_matches_fraction_reference(a, m, n):
    p = DPoly(a)
    for divisor in (m, ref_trim(n)):
        q, r = divmod(p, DPoly(divisor))
        want_q, want_r = ref_divmod(ref_trim(a), ref_trim(divisor))
        assert canonical(q) and canonical(r)
        assert (q.coeffs, r.coeffs) == (tuple(want_q), tuple(want_r))
        if want_r:
            with pytest.raises(PolynomialityViolation):
                p / DPoly(divisor)
        else:
            assert p / DPoly(divisor) == q


@given(coeff_lists, ints, fractions, coeff_lists)
@settings(max_examples=80, deadline=None)
def test_compose_and_call_match_fraction_reference(a, c, x, b):
    p = DPoly(a)
    for inner in ([c, 1], [x, 1], b):
        got = p.compose(DPoly(inner))
        assert canonical(got)
        assert got.coeffs == tuple(ref_compose(ref_trim(a), ref_trim(inner)))
    for point in (c, x):
        value = p(point)
        assert type(value) is Fraction and value == ref_eval(ref_trim(a), point)


@given(fractions, fractions)
@settings(max_examples=60, deadline=None)
def test_scalar_equality_and_hash(c, e):
    p = DPoly((c,))
    assert p == c and (p == e) == (c == e) and hash(p) == hash(c)
    if c.denominator == 1:
        assert p == int(c)
    assert DPoly((c, 0, 0)) == p and hash(DPoly((c, 0, 0))) == hash(p)
    assert (p * D == c) == (c == 0)


@given(coeff_lists, fractions)
@example([1, 2], Fraction(0))
@settings(max_examples=80, deadline=None)
def test_every_scalar_operand_takes_one_path(a, c):
    """An int, a Fraction and a constant DPoly give the same results; a float or str none."""
    p = DPoly(a)
    forms = [c, DPoly.constant(c)] + ([int(c)] if c.denominator == 1 else [])
    seen = set()
    for x in forms:
        got = [p + x, x + p, p - x, x - p, p * x, x * p]
        assert all(canonical(r) for r in got)
        seen.add((tuple((r._nums, r._den) for r in got), p == x, hash(x)))
    assert len(seen) == 1, seen
    for bad in (float(c), 0.5, str(c)):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(p, bad)
            with pytest.raises(TypeError):
                op(bad, p)
        assert p != bad and bad != p and not p == bad


@given(coeff_lists)
@example([0, -3, 7, 0, 1])
@example([Fraction(-7, 2), 0, 5, Fraction(4, 6)])
@example([0])
@settings(max_examples=80, deadline=None)
def test_spelled_matches_str_of_each_fraction(a):
    for p in (DPoly(a), -DPoly(a), DPoly(a) * 6):
        assert p.spelled() == [str(c) for c in p.coeffs]


def test_canonical_form():
    assert (DPoly()._nums, DPoly()._den) == ((), 1)
    trailing = DPoly((0, Fraction(1, 2), 0))
    assert (trailing._nums, trailing._den) == ((0, 1), 2)
    half = DPoly((Fraction(1, 2), Fraction(3, 2)))
    assert (half._nums, half._den) == ((1, 3), 2)
    assert DPoly((Fraction(1, 2),)) != Fraction(1, 3) and DPoly((Fraction(1, 2),)) != 1
    assert ((half * 2)._nums, (half * 2)._den) == ((1, 3), 1)
    assert half - half == 0 and ((half - half)._nums, (half - half)._den) == ((), 1)
    six = DPoly((Fraction(2, 6), Fraction(-4, 6)))
    assert (six._nums, six._den) == ((1, -2), 3)
    assert DPoly((Fraction(1, 6),)) + DPoly((Fraction(1, 3),)) == Fraction(1, 2)
    with pytest.raises(TypeError):
        DPoly((Fraction(1, 2), 0.5))
    with pytest.raises(ZeroDenominator):
        half / 0
    with pytest.raises(AttributeError):
        half.coeffs = (1,)


def test_interpolate_takes_constant_dpoly_samples():
    p = D ** 2 - D
    samples = [(k, DPoly((p(k),))) for k in range(4)]
    assert samples[0][1] == DPoly()
    assert interpolate(samples, 2) == p
    with pytest.raises(TypeError):
        interpolate([(0, D), (1, 1)], 1)
    with pytest.raises(TypeError):
        interpolate([(0, 0.5), (1, 1)], 1)
