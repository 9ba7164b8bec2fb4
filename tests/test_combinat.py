"""Kostka numbers, Stirling numbers, Catalan and Riordan sequences."""

from itertools import product
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootstrata.combinat import catalan, kostka, riordan, stirling_first


def test_kostka_known_values():
    assert kostka((2, 2), (1, 1, 1, 1)) == 2
    assert kostka((3, 2), (3, 2)) == 1
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((3, 3), (2, 2, 2)) == 1
    assert kostka((4,), (2, 2)) == 1


def test_kostka_trivial_cases():
    # shape equal to content gives exactly one filling
    assert kostka((5, 2), (5, 2)) == 1
    # content larger than the top row in dominance order gives none
    assert kostka((2, 2), (3, 1)) == 0
    assert kostka((1, 1), (2,)) == 0


def test_kostka_refuses_a_shape_without_two_rows():
    for shape in ((3, 2, 1), ()):
        with pytest.raises(ValueError) as info:
            kostka(shape, (1,))
        assert str(info.value) == f"need a two-row shape p >= q >= 0, got {shape}"


def test_kostka_content_permutation_invariance():
    # Kostka numbers do not depend on the order of the content
    assert kostka((3, 2), (1, 2, 2)) == kostka((3, 2), (2, 2, 1))


def test_kostka_row_sums():
    """Summing K over all two-row shapes of weight w counts all SSYT."""
    content = (2, 2, 1)
    total = sum(kostka((5 - j, j), content) for j in range(3))
    assert total == sum(
        kostka((5 - j, j), (2, 2, 1)) for j in range(3))
    assert kostka((3, 2), (2, 2, 1)) == 2


def test_stirling_first_row():
    # row m=4 of the unsigned triangle: 6, 11, 6, 1
    assert [stirling_first(4, u) for u in range(1, 5)] == [6, 11, 6, 1]
    assert stirling_first(6, 1) == factorial(5)
    assert stirling_first(6, 6) == 1
    assert stirling_first(6, 0) == 0


@given(st.integers(1, 9))
@settings(max_examples=20, deadline=None)
def test_stirling_row_sum(m):
    assert sum(stirling_first(m, u) for u in range(m + 1)) == factorial(m)


def test_catalan():
    assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]
    assert catalan(10) == comb(20, 10) // 11


def test_riordan():
    # Motzkin-sum sequence: paths with no flat steps at level zero
    assert [riordan(n) for n in range(9)] == [1, 0, 1, 1, 3, 6, 15, 36, 91]


def test_kostka_past_the_recursion_limit_is_the_ballot_number():
    assert kostka((700, 400), (1,) * 1100) == comb(1100, 400) - comb(1100, 399)


def test_stirling_first_past_the_recursion_limit():
    assert stirling_first(1100, 1099) == comb(1100, 2)
    assert stirling_first(1100, 1) == factorial(1099)


def test_riordan_satisfies_its_three_term_recurrence():
    """(n + 1) R_n = (n - 1) (2 R_(n-1) + 3 R_(n-2)), up to n = 200 and at n = 1100."""
    values = [riordan(n) for n in range(201)]
    for n in range(2, 201):
        assert (n + 1) * values[n] == (n - 1) * (2 * values[n - 1] + 3 * values[n - 2]), n
    r1098, r1099, r1100 = riordan(1098), riordan(1099), riordan(1100)
    assert 1101 * r1100 == 1099 * (2 * r1099 + 3 * r1098)


def test_negative_indices_count_nothing():
    assert riordan(-1) == 0
    assert stirling_first(-1, 0) == 0


def test_kostka_expands_h_at_two_ones():
    """h_mu(1, 1) = prod(mu_i + 1) = sum over q of s_(w-q,q)(1, 1) K_((w-q,q), mu),
    with s_(p,q)(1, 1) = p - q + 1, for every content of weight <= 10 with at most 5 values."""
    contents = 0
    for length in range(6):
        for mu in product(range(11), repeat=length):
            w = sum(mu)
            if w > 10:
                continue
            contents += 1
            assert sum((w - 2 * q + 1) * kostka((w - q, q), mu)
                       for q in range(w // 2 + 1)) == prod(m + 1 for m in mu), mu
    assert contents == sum(comb(10 + length, length) for length in range(6))
