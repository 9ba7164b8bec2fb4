"""Divided differences and Schur expansions for a rank-two root pair."""

from __future__ import annotations

from math import comb
from operator import index
from types import MappingProxyType

from .dpoly import ZERO, _Result, as_dpoly, joined
from .errors import NotSymmetric
from .multipoly import MultiPoly, _build, _ordered, _spread, as_multipoly


def divided_difference(p, x="a", y="b"):
    """Apply (q - q with x,y exchanged) / (y - x) through the monomial rule.

    Extra variables ride along untouched, so the same operator serves the
    root pair (a, b) and the flag pair (eta, zeta).
    """
    p = as_multipoly(p)
    merged = _ordered(p.variables + (x, y))
    ix, iy = merged.index(x), merged.index(y)
    out = []
    for e, c in _spread(p, merged):
        i, j = e[ix], e[iy]
        if i == j:
            continue
        if i > j:
            i, j, c = j, i, -c
        big = list(e)
        for t in range(j - i):
            big[ix], big[iy] = i + t, j - 1 - t
            out.append((tuple(big), c))
    return _build(merged, out)


class SchurExpansion(_Result):
    """Finite combination of the basis classes s_{k,l} with k >= l >= 0."""

    __slots__ = ("coeffs",)
    _FIELDS = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for (k, l), c in (coeffs or {}).items():
            k, l = index(k), index(l)
            if not (k >= l >= 0):
                raise ValueError(f"bad index ({k}, {l}): need k >= l >= 0")
            c = as_dpoly(c)
            if c:
                clean[(k, l)] = c
        # read-only: memoized classes share their expansions with every caller
        self.coeffs = MappingProxyType(clean)

    def coefficient(self, k, l):
        return self.coeffs.get((k, l), ZERO)

    def items(self):
        """Pairs ((k, l), coeff), highest degree first, then k descending."""
        return sorted(self.coeffs.items(),
                      key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0]),
                      reverse=True)

    def indices(self):
        return [kl for kl, _ in self.items()]

    def __bool__(self):
        return bool(self.coeffs)

    def __mul__(self, scalar):
        return self.map_coefficients(lambda c: c * scalar)

    __rmul__ = __mul__

    def map_coefficients(self, f):
        return SchurExpansion({kl: f(c) for kl, c in self.coeffs.items()})

    def evaluate_d(self, k):
        return self.map_coefficients(lambda c: c(k))

    def truncate(self, kmax):
        """Drop every s_{k,l} with k above kmax."""
        return SchurExpansion({kl: c for kl, c in self.coeffs.items() if kl[0] <= kmax})

    def to_roots(self):
        """Rewrite as a plain polynomial in the two roots a, b."""
        return _build(("a", "b"), [((l + t, k - t), c) for (k, l), c in self.coeffs.items()
                                   for t in range(k - l + 1)])

    def __str__(self):
        return joined((c.spelled()[0] if c.degree <= 0 else f"({c})",
                       f"s_{{{k},{l}}}" if (k, l) != (0, 0) else "") for (k, l), c in self.items())


def schur_expand(p, x="a", y="b"):
    """Write a symmetric polynomial in x, y as a combination of s_{k,l}.

    With P[i, j] the coefficient of x^i y^j, the s_{N-j,j} coefficient is
    P[N-j, j] - P[N-j+1, j-1] for every j <= N/2 in each degree N present:
    the running differences that undo s_{k,l} = sum of x^(l+t) y^(k-t).
    """
    p = as_multipoly(p)
    if not p.is_symmetric(x, y):
        raise NotSymmetric(f"not symmetric in {x}, {y}: {p}")
    terms = p.two_var_terms(x, y)
    return SchurExpansion({
        (n - j, j): terms.get((n - j, j), ZERO) - terms.get((n - j + 1, j - 1), ZERO)
        for n in {i + j for i, j in terms} for j in range(n // 2 + 1)})


def h_roots(r):
    """Complete homogeneous piece of degree r in the two roots a, b."""
    if r < 0:
        return MultiPoly()
    return MultiPoly(("a", "b"), {(t, r - t): 1 for t in range(r + 1)})


def schur_to_chern(e):
    """Rewrite a Schur combination in the symmetric generators c1, c2.

    With c1 = a + b and c2 = ab, s_{k,l} = c2^l h_{k-l} and the closed form
    h_r = sum over j <= r/2 of (-1)^j C(r - j, j) c1^(r-2j) c2^j put each
    coefficient on its monomials c1^(k-l-2j) c2^(l+j) in one pass.
    """
    return _build(("c1", "c2"), [((k - l - 2 * j, l + j), (-1) ** j * comb(k - l - j, j) * c)
                                 for (k, l), c in e.items() for j in range((k - l) // 2 + 1)])


def chern_to_schur(p):
    """Inverse of schur_to_chern: substitute the roots and expand."""
    a = MultiPoly.variable("a")
    b = MultiPoly.variable("b")
    return schur_expand(p.substitute({"c1": a + b, "c2": a * b}))


def complete_h_expand(nu):
    """Schur expansion of the product of complete homogeneous pieces h_nu."""
    total = MultiPoly.scalar(1)
    for r in nu:
        total = total * h_roots(r)
    return schur_expand(total)
