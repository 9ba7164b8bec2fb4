"""Counting helpers: tableaux, Stirling cycles, Catalan and Riordan numbers."""

from functools import cache
from math import comb
from operator import index

from .errors import PolynomialityViolation


def kostka(shape, content):
    """Semistandard tableaux of a two-row shape with the given content.

    Counted by explicit enumeration of the fillings: choose how many
    copies of each value land in the top row, keeping columns strict.
    """
    shape = tuple(map(index, shape))
    if len(shape) == 1:
        shape = (shape[0], 0)
    p, q = shape
    if p < q or q < 0:
        raise ValueError(f"need a two-row shape p >= q >= 0, got {shape}")
    content = tuple(map(index, content))
    if any(c < 0 for c in content):
        raise ValueError("negative content")
    if sum(content) != p + q:
        return 0

    @cache
    def rec(v, top, bottom):
        if v == len(content):
            return 1 if top == p and bottom == q else 0
        total = 0
        for y in range(min(content[v], q - bottom), -1, -1):
            x = content[v] - y
            if top + x > p:
                continue
            if bottom + y > top:
                # a value may only sit under a strictly smaller one
                continue
            total += rec(v + 1, top + x, bottom + y)
        return total

    result = rec(0, 0, 0)
    rec.cache_clear()
    return result


@cache
def stirling_first(n, k):
    """Unsigned Stirling number of the first kind (cycle count)."""
    if n == 0 and k == 0:
        return 1
    if n <= 0 or k <= 0 or k > n:
        return 0
    return stirling_first(n - 1, k - 1) + (n - 1) * stirling_first(n - 1, k)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


@cache
def riordan(n):
    """Motzkin paths with no flat steps at level zero."""
    if n == 0:
        return 1
    if n == 1:
        return 0
    num = (n - 1) * (2 * riordan(n - 1) + 3 * riordan(n - 2))
    q, r = divmod(num, n + 1)
    if r:
        raise PolynomialityViolation(f"Riordan recurrence at n={n} is not integral")
    return q
