"""Pushforward calculus on flags of a point on a line in projective space.

Classes live on the partial flag variety of pairs (point, line); zeta is
the hyperplane class pulled back along the point map q, and eta is the
other Chern root of the dual tautological rank-two bundle of the line
map p, so the line's Schur classes are symmetric in (zeta, eta).

Sign convention: the fibrewise integral along p acts on monomials as the
divided difference (f(zeta, eta) - f(eta, zeta)) / (zeta - eta), fixed so
that p_push(zeta) is the unit class.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb

from .crs import _level_rows
from .dpoly import ZERO, D, _canonical, _Result
# substitute_homogeneous is unused here; tracers patch every module's binding of it.
from .multipoly import MultiPoly, _build, substitute_homogeneous
from .partitions import validate_stratum
from .schur import SchurExpansion, divided_difference, schur_expand

_ZETA = MultiPoly.variable("zeta")


class FlagClass(_Result):
    """Polynomial in zeta, eta (optionally xi) with d-polynomial scalars."""

    __slots__ = ("poly", "ambient_n")
    _FIELDS = ("poly", "ambient_n")

    def __init__(self, poly, ambient_n=None):
        extra = [v for v in poly.variables if v not in ("zeta", "eta", "xi")]
        if extra:
            raise ValueError(f"flag classes use zeta, eta, xi; got {extra}")
        if ambient_n is not None and ambient_n < 3:
            raise ValueError("ambient projective space needs n >= 3")
        self.poly = poly
        self.ambient_n = ambient_n

    def in_zeta_sigma(self):
        """Rewrite with the line's first Chern class sigma1 = zeta + eta."""
        sigma1 = MultiPoly.variable("sigma1")
        return self.poly.substitute({"eta": sigma1 - _ZETA})

    def __str__(self):
        return str(self.poly)

    def __repr__(self):
        return f"FlagClass({self.poly}, n={self.ambient_n})"


class GrassClass(_Result):
    """Schur class of the space of lines, truncated to the ambient dimension."""

    __slots__ = ("expansion", "ambient_n")
    _FIELDS = ("expansion", "ambient_n")

    def __init__(self, expansion, ambient_n=None):
        if ambient_n is not None:
            expansion = expansion.truncate(ambient_n - 2)
        self.expansion = expansion
        self.ambient_n = ambient_n

    def __str__(self):
        return str(self.expansion)

    def __repr__(self):
        return f"GrassClass({self.expansion}, n={self.ambient_n})"


class ProjClass(_Result):
    """Polynomial in the hyperplane class zeta modulo zeta^n."""

    __slots__ = ("poly", "ambient_n")
    _FIELDS = ("poly", "ambient_n")

    def __init__(self, poly, ambient_n):
        if "eta" in poly.variables or "xi" in poly.variables:
            raise ValueError("a projective-space class depends on zeta alone")
        if "zeta" in poly.variables:
            i = poly.variables.index("zeta")
            cut = {e: c for e, c in poly.terms.items() if e[i] < ambient_n}
            poly = MultiPoly(poly.variables, cut)
        self.poly = poly
        self.ambient_n = ambient_n

    def coefficient(self, power):
        picked = self.poly.coefficient("zeta", power)
        return next(iter(picked.terms.values()), ZERO)

    def __str__(self):
        return str(self.poly)

    def __repr__(self):
        return f"ProjClass({self.poly}, n={self.ambient_n})"


def p_push(f):
    """Integrate along the line map: divided difference, then Schur expand."""
    dd = divided_difference(f.poly, "eta", "zeta")
    return GrassClass(schur_expand(dd, "zeta", "eta"), f.ambient_n)


def q_push(f):
    """Integrate along the point map.

    On monomials, eta^i zeta^j goes to the degree-(i - n + 2) piece of
    1/(1 - zeta) inverted: 1 for i = n - 2, -zeta for i = n - 1, else 0.
    """
    n = f.ambient_n
    if n is None:
        raise ValueError("q_push needs the ambient dimension")
    poly = f.poly
    if "xi" in poly.variables:
        raise ValueError("slice out xi before pushing forward")
    out = []
    for (i, j), c in poly.two_var_terms("eta", "zeta").items():
        r = i - (n - 2)
        if r == 0:
            out.append(((j,), c))
        elif r == 1:
            out.append(((j + 1,), -c))
    return ProjClass(_build(("zeta",), out), n)


def incidence_class(lam, m):
    """Class of pairs (tangency point, curve) with pattern lam peeled at m.

    The smaller stratum rides on the quotient of the form space by the
    forms vanishing to order m at the point; its roots get twisted by
    m/(d-m) in the eta direction, and the Euler factor of the quotient
    multiplies in.  That is crs's packed level on the flag roots: its row i
    is the coefficient of zeta^(N-i) eta^i.
    """
    rows, den = _level_rows(lam, m)
    return FlagClass(_build(("zeta", "eta"), [((len(rows) - 1 - i, i), _canonical(nums, den))
                                              for i, nums in enumerate(rows)]))


def tangency_class_resolution(lam, n, peel=None):
    """Stratum class recovered by resolving through the incidence variety.

    Must agree with crs_class up to the ambient truncation; peel picks
    which part to split off (largest by default).  The smaller class comes
    from this route too, one level per part, in an ambient space large
    enough to truncate nothing, so no level reads the symbolic recursion.
    A level, _resolution_peel, works on rows of DPolys: with t_i the smaller
    class's row i shifted to d - m and times d^i, twisted row j is the sum
    over i <= j of C(k - i, j - i) m^(j - i) t_i over (d - m)^j, a division
    that DPoly's / checks exact; each Euler factor i is then one update,
    P'[J] = i*P[J - 1] + (d - i)*P[J], before p_push and the division by
    the multiplicity of m.
    """
    lam = validate_stratum(lam)
    if not lam:
        return GrassClass(SchurExpansion({(0, 0): 1}), n)
    m = peel if peel is not None else lam.largest
    sub = lam.remove_one(m)
    prev = tangency_class_resolution(sub, sub.codim + 2).expansion
    pushed = p_push(FlagClass(_resolution_peel(prev, m), n))
    return GrassClass(pushed.expansion * Fraction(1, lam.multiplicity(m)), n)


def _resolution_peel(prev, m):
    """Incidence class on the flag roots of prev's stratum with a part m added.

    prev, a SchurExpansion of codim k, has row r_i = sum of c_{k-l,l} over
    l <= min(i, k - i) at a^i b^(k - i).  Its roots go to eta*d / (d - m) and
    (zeta*(d - m) + eta*m) / (d - m), d to d - m: with t_i = r_i(d - m) d^i,
    row j, at eta^j zeta^(k - j), is the sum over i <= j of
    C(k - i, j - i) m^(j - i) t_i, over (d - m)^j.  DPoly's / raises
    PolynomialityViolation unless that division is exact, which proves the
    level polynomial in d.  The Euler factors i = 0 .. m - 1 follow, each
    the update P'[J] = i*P[J - 1] + (d - i)*P[J]; row j of the result is
    the coefficient of zeta^(k + m - j) eta^j.  Nothing here is crs's packed
    level, so the route cross-checks it.
    """
    k = max(map(sum, prev.coeffs), default=0)
    half = list(accumulate(prev.coefficient(k - l, l) for l in range(k // 2 + 1)))
    t = [half[min(i, k - i)].compose(D - m) * D ** i for i in range(k + 1)]
    row = [sum(comb(k - i, j - i) * m ** (j - i) * t[i] for i in range(j + 1)) / (D - m) ** j
           for j in range(k + 1)]
    for i in range(m):
        row = [i * (p - c) + c * D for p, c in zip([ZERO] + row, row + [ZERO])]
    return _build(("zeta", "eta"), [((k + m - j, j), c) for j, c in enumerate(row)])


def flex_point_locus_class(lam, m, n):
    """Locus in projective space swept by the m-fold tangency points."""
    inc = incidence_class(lam, m)
    return q_push(FlagClass(inc.poly, n))
