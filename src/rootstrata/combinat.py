"""Counting helpers: tableaux, Stirling cycles, Catalan and Riordan numbers.

Each helper is one forward pass, without recursion.
"""

from collections import Counter
from functools import cache
from math import comb
from operator import index


def kostka(shape, content):
    """Semistandard tableaux of a two-row shape with the given content.

    Counted by explicit enumeration of the fillings, one value at a time:
    for each (top, bottom) fill so far, the number of ways to reach it.
    Value c puts y copies in the bottom row and c - y in the top row.
    """
    shape = tuple(map(index, shape))
    if len(shape) == 1:
        shape = (shape[0], 0)
    if len(shape) != 2 or shape[0] < shape[1] or shape[1] < 0:
        raise ValueError(f"need a two-row shape p >= q >= 0, got {shape}")
    p, q = shape
    content = tuple(map(index, content))
    if any(c < 0 for c in content):
        raise ValueError("negative content")
    fills = {(0, 0): 1}
    for c in content:
        grown = Counter()
        for (top, bottom), ways in fills.items():
            # a value may only sit under a strictly smaller one: bottom + y <= top
            for y in range(min(c, q - bottom, top - bottom) + 1):
                if top + c - y <= p:
                    grown[top + c - y, bottom + y] += ways
        fills = grown
    return fills.get((p, q), 0)


@cache
def _rising(n):
    """Coefficients of x(x+1)...(x+n-1), lowest power first."""
    row = [1]
    for i in range(n):
        # times (x + i): c(i+1, j) = c(i, j-1) + i*c(i, j)
        row = [below + i * same for below, same in zip([0] + row, row + [0])]
    return tuple(row)


def stirling_first(n, k):
    """Unsigned Stirling number of the first kind (cycle count)."""
    return _rising(n)[k] if 0 <= k <= n else 0


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def riordan(n):
    """Motzkin paths with no flat steps at level zero.

    The binomial transform of the Catalan numbers:
    R_n = sum over k of (-1)^(n-k) C(n, k) catalan(k).
    """
    return sum((-1) ** (n - k) * comb(n, k) * catalan(k) for k in range(n + 1))
