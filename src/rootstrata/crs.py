"""Equivariant classes of coincident root strata of binary forms.

The stratum for a partition lambda collects degree-d forms with root
multiplicities lambda_1, lambda_2, ...  Its closure carries a class in
the Schur basis s_{k,l} of the symmetric functions of the two Chern
roots, with coefficients that are polynomials in d; crs_class computes
it by peeling one largest part per level.

crs_class_peeled runs each level on dense integer rows: the roots form
of the smaller class, its binomial twist, the product with the m linear
Euler factors, and a readout of the Schur coefficients.  _peel does the
same step on MultiPoly terms; it serves only the incidence class on the
flag roots (eta, zeta), and resolving through it cross-checks the rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import index

from .dpoly import D, _canonical, common_numerators, divmod_monic, taylor_shift
from .errors import DegreeTooSmall, InvalidPartition, PolynomialityViolation
from .multipoly import MultiPoly, substitute_homogeneous
from .partitions import Partition, validate_stratum
from .schur import (SchurExpansion, complete_h_expand, divided_difference,
                    schur_expand)

_A = MultiPoly.variable("a")
_B = MultiPoly.variable("b")


def as_partition(x):
    if isinstance(x, Partition):
        return x
    if isinstance(x, str):
        return Partition.parse(x)
    return Partition(x)


class CRSClass:
    """Schur expansion of one stratum class, coefficients polynomial in d."""

    __slots__ = ("partition", "expansion")

    def __init__(self, partition, expansion):
        codim = partition.codim
        weight = partition.weight
        for (k, l), c in expansion.coeffs.items():
            if k + l != codim:
                raise ValueError(
                    f"index ({k},{l}) off the codimension-{codim} diagonal")
            if c.degree > weight:
                raise ValueError(f"coefficient of s_{{{k},{l}}} exceeds degree {weight}")
        top = expansion.coefficient(codim, 0)
        if top.degree != weight:
            raise ValueError(
                f"top coefficient must have degree exactly {weight}, got {top}")
        self.partition = partition
        self.expansion = expansion

    def coefficient(self, k, l):
        return self.expansion.coefficient(k, l)

    def to_roots(self, x="a", y="b"):
        return self.expansion.to_roots(x, y)

    def evaluate(self, d0):
        return self.expansion.evaluate_d(d0)

    def leading_slice(self):
        """Coefficient of d^{|lambda|} in each Schur coordinate."""
        w = self.partition.weight
        return self.expansion.map_coefficients(
            lambda c: c.leading() if c.degree == w else 0)

    def __eq__(self, other):
        if not isinstance(other, CRSClass):
            return NotImplemented
        return self.partition == other.partition and self.expansion == other.expansion

    def __str__(self):
        return f"[{self.partition}] = {self.expansion}"

    def __repr__(self):
        return f"CRSClass({self})"


def _euler_factor(m, x=_A, y=_B, d=D):
    """Product of (i*x + (d - i)*y) for i = 0 .. m-1, d the scalar D by default.

    weighted_product passes a formal d; _peel passes the flag roots (eta, zeta).
    """
    total = MultiPoly.scalar(1)
    for i in range(m):
        total = total * (y * (d - i) + x * i)
    return total


def weighted_product(m):
    """Product of (i*a + (d - i)*b) for i = 0 .. m-1, with d a variable."""
    return _euler_factor(m, d=MultiPoly.variable("d"))


def crs_class(lam):
    """Class of the closed stratum, memoized on the sorted partition."""
    lam = validate_stratum(as_partition(lam))
    return _crs_cached(lam.parts)


@lru_cache(maxsize=None)
def _crs_cached(parts):
    lam = Partition(parts)
    if not lam:
        return CRSClass(lam, SchurExpansion({(0, 0): 1}))
    # Peeling the largest part needs the class of parts[1:], which needs
    # parts[2:], ...; fill that chain shortest first, so every peel finds its
    # smaller class cached and the stack stays flat however many parts.
    for k in range(len(parts) - 1, 0, -1):
        _crs_cached(parts[k:])
    return crs_class_peeled(lam, lam.largest)


def crs_class_peeled(lam, m):
    """One recursion level that peels a chosen part value m off lam.

    The level runs on rows: row[i] is the coefficient of a^i b^(n - i) as a
    list of integer numerators, every list of one length and over one shared
    denominator.  CRSClass bounds each coefficient's degree by the weight,
    so the lengths are fixed in advance; only the readout makes DPolys.
    """
    lam = validate_stratum(as_partition(lam))
    if m not in lam.parts:
        raise InvalidPartition(f"{m} is not a part of {lam}")
    row, den = _roots_row(crs_class(lam.remove_one(m)), m)
    row = _euler_row(_twist_row(row, m), m)
    return CRSClass(lam, _schur_readout(row, den * lam.multiplicity(m)))


def _roots_row(cls, m):
    """The class on the roots a, b with d shifted to d - m, as (row, den).

    The coefficient of a^i b^(n - i) sums c_{k,l} over l <= i <= k, which
    is the running sum of c_{n-l,l} up to l = min(i, n - i).  Each list
    has weight + 1 entries.
    """
    n, width = cls.partition.codim, cls.partition.weight + 1
    lists, den = common_numerators(
        [cls.coefficient(n - l, l) for l in range(n // 2 + 1)])
    half, acc = [], [0] * width
    for nums in lists:
        acc = [x + y for x, y in zip(acc, nums + [0] * (width - len(nums)))]
        half.append(taylor_shift(acc, -m))
    return [half[min(i, n - i)] for i in range(n + 1)], den


def _twist_row(row, m):
    """Send a to a*d / (d - m) and b to (b*(d - m) + a*m) / (d - m).

    The coefficient of a^i b^(n - i) is the sum over j <= i of
    C(n - j, i - j) m^(i - j) d^j row[j], over (d - m)^i.  One long division
    by (d - m)^i must leave no remainder, or the class would not be
    polynomial in d; the quotient keeps the width of the row.
    """
    n, width = len(row) - 1, len(row[0])
    out, divisor = [], [1]
    for i in range(n + 1):
        acc = [0] * (width + i)
        for j in range(i + 1):
            scale = comb(n - j, i - j) * m ** (i - j)
            acc[j:j + width] = [x + scale * y for x, y in zip(acc[j:j + width], row[j])]
        quot, rem = divmod_monic(acc, divisor)
        if any(rem):
            raise PolynomialityViolation(
                f"(d - {m})**{i} does not divide the twisted coefficient "
                f"of a^{i} b^{n - i}")
        out.append(quot)
        divisor = [y - m * x for x, y in zip(divisor + [0], [0] + divisor)]
    return out


def _euler_row(row, m):
    """Multiply by (i*a + (d - i)*b) for i = 0 .. m-1, one factor at a time.

    Each list gains m entries up front; each factor raises the degree by at
    most one, so the top entry is zero whenever d multiplies it.
    """
    row = [nums + [0] * m for nums in row]
    zero = [0] * len(row[0])
    for i in range(m):
        out, prev = [], zero
        for cur in row + [zero]:
            out.append([i * (p - c) + s for p, c, s in zip(prev, cur, [0] + cur)])
            prev = cur
        row = out
    return row


def _schur_readout(row, den):
    """Schur expansion of the divided difference of the row, over den.

    Readout identity: for P = sum of P[i] a^i b^(N - i), the coefficient
    of s_{k,l} in schur_expand(divided_difference(P)) is P[l] - P[k + 1],
    for k + l = N - 1 and k >= l.
    """
    top = len(row) - 1
    return SchurExpansion({
        (top - 1 - l, l): _canonical([x - y for x, y in zip(row[l], row[top - l])], den)
        for l in range((top + 1) // 2)})


def _peel(lam, m, x=_A, y=_B):
    """Twisted class of lam minus one part m, times the m-term Euler factor.

    The smaller class has d shifted to d - m and its roots sent to
    x*d / (d - m) and (y*(d - m) + x*m) / (d - m).  The single denominator
    (d - m)^codim must clear exactly, which proves the answer polynomial
    in d.  It serves the incidence class on the flag roots (eta, zeta); on
    (a, b) its divided difference is what crs_class_peeled runs on rows.
    """
    if m not in lam.parts:
        raise InvalidPartition(f"{m} is not a part of {lam}")
    prev = crs_class(lam.remove_one(m)).to_roots()
    shifted = MultiPoly(prev.variables,
                        {e: c.compose(D - m) for e, c in prev.terms.items()})
    twisted = substitute_homogeneous(
        shifted, {"a": x * D, "b": y * (D - m) + x * m}, D - m)
    return twisted * _euler_factor(m, x, y)


def crs_class_at(lam, d0):
    """The same recursion with d frozen at the integer d0; pure, no cache."""
    lam = validate_stratum(as_partition(lam))
    d0 = index(d0)
    if d0 < lam.weight:
        raise DegreeTooSmall(
            f"degree {d0} cannot hold a stratum of weight {lam.weight}")
    if not lam:
        return SchurExpansion({(0, 0): 1})
    m = lam.largest
    sub = lam.remove_one(m)
    prev = crs_class_at(sub, d0 - m)
    tw = prev.to_roots()
    if sub:
        q = Fraction(m, d0 - m)
        tw = tw.substitute({"a": _A * (1 + q), "b": _B + _A * q})
    wp = weighted_product(m).evaluate_d(d0)
    expansion = schur_expand(divided_difference(tw * wp))
    return expansion * Fraction(1, lam.multiplicity(m))


def crs_m_closed(m):
    """Single-part stratum class straight from one divided difference."""
    lam = validate_stratum(Partition((m,)))
    expansion = schur_expand(divided_difference(_euler_factor(m)))
    return CRSClass(lam, expansion)


def euler_pol(d0):
    """Equivariant Euler class of the space of binary degree-d0 forms."""
    d0 = index(d0)
    total = MultiPoly.scalar(1)
    for i in range(d0 + 1):
        total = total * (_A * i + _B * (d0 - i))
    return total


def euler_identity_check(d0):
    """Does the Euler class equal d * a * b times the top stratum class?"""
    if d0 < 2:
        raise DegreeTooSmall("the full-coincidence stratum needs degree >= 2")
    rhs = _A * _B * crs_class_at(Partition((d0,)), d0).to_roots() * d0
    return euler_pol(d0) == rhs


def leading_term(lam):
    """Top d-coefficient of the class: h of the reduction over multiplicities."""
    lam = validate_stratum(as_partition(lam))
    exp = complete_h_expand(lam.reduction().parts)
    return exp * Fraction(1, lam.multiplicity_factorial())
