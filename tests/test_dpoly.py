"""Dense univariate polynomials in d."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
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


def test_divmod_exact_division():
    p = (D - 3) * (2 * D ** 2 + 5 * D - 6)
    q, r = divmod(p, D - 3)
    assert r == 0 and q == 2 * D ** 2 + 5 * D - 6
    assert p / (D - 3) == q
    with pytest.raises(PolynomialityViolation):
        (D + 1) / D
    with pytest.raises(ZeroDenominator):
        D / DPoly(())


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


@given(st.lists(fractions, min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_interpolate_round_trip(coeffs):
    p = DPoly(tuple(coeffs))
    bound = max(p.degree, 0)
    samples = [(k, p(k)) for k in range(bound + 2)]
    assert interpolate(samples, bound) == p
