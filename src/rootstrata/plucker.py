"""Tangent-line counts: Pluecker polynomials, their limits, closed forms."""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .combinat import kostka, stirling_first
from .crs import crs_class, euler_pol
from .dpoly import D, DPoly, _Result
from .errors import DegreeMismatch, OutOfRange, PolynomialityViolation
from .partitions import MAX_WEIGHT, validate_stratum
from .schur import schur_expand


class PluckerTable(_Result):
    """Counting polynomials Pl_{lam;i} for one tangency pattern.

    The entry at i counts tangent lines of the pattern meeting a generic
    codimension-(i+1) plane condition; i runs down from the codimension
    by steps of two.
    """

    __slots__ = ("partition", "entries")
    _FIELDS = ("partition", "entries")

    def __init__(self, partition, entries):
        self.partition = partition
        self.entries = tuple(entries)

    def polynomial(self, i):
        for j, poly in self.entries:
            if j == i:
                return poly
        raise KeyError(f"no entry at i = {i} for {self.partition}")

    def evaluate(self, d0):
        return [(i, poly(d0)) for i, poly in self.entries]

    def __iter__(self):
        return iter(self.entries)

    def __str__(self):
        rows = [f"Pl_{{{self.partition},{i}}} = {p}" for i, p in self.entries]
        return "\n".join(rows)


def plucker_table(lam):
    """All counting polynomials of a pattern, read off the stratum class."""
    cls = crs_class(lam)
    codim = cls.partition.codim
    return PluckerTable(cls.partition, [(codim - 2 * j, cls.coefficient(codim - j, j))
                                        for j in range(codim // 2 + 1)])


def plucker_point(lam):
    """Lines of the pattern through a generic point: a falling factorial."""
    lam = validate_stratum(lam)
    poly = DPoly((1,))
    for i in range(lam.weight):
        poly = poly * (D - i)
    return poly * Fraction(1, lam.multiplicity_factorial())


def degree_table(lam):
    """d-degrees of the counting polynomials, checked against the drop rule.

    The first codim - lam_1 + 2 entries keep the full degree |lam|; after
    that each step of j loses one.  A mismatch with the computed table
    raises DegreeMismatch.
    """
    lam = validate_stratum(lam)
    table = plucker_table(lam)
    codim, top = lam.codim, lam.largest
    out = []
    for j, (i, poly) in enumerate(table.entries):
        expected = lam.weight
        if j > codim - top + 1:
            expected = lam.weight - (j - codim + top - 1)
        if poly.degree != expected:
            raise DegreeMismatch(
                f"Pl_{{{lam},{i}}} has degree {poly.degree}, predicted {expected}")
        out.append((i, expected))
    return out


def asymptotic_plucker(lam):
    """Limits of Pl / d^{|lam|}: Kostka numbers over multiplicities, as (i, value) pairs."""
    lam = validate_stratum(lam)
    codim = lam.codim
    nu = lam.reduction().parts
    scale = Fraction(1, lam.multiplicity_factorial())
    entries = []
    for j in range(codim // 2 + 1):
        k = kostka((codim - j, j), nu)
        entries.append((codim - 2 * j, k * scale))
    return tuple(entries)


def _check_degree(d):
    """Refuse a closed form of degree above MAX_WEIGHT, as Partition.parse does."""
    if d > MAX_WEIGHT:
        raise OutOfRange(f"degree {d} exceeds the maximum weight {MAX_WEIGHT}")


def mflex_coefficient(m, i, k):
    """Coefficient of d^{m-k} in the single-part polynomial Pl_{(m); m-1-2i}.

    Closed form valid for m >= 2i + 1 and i <= k <= m - 1, with m at most
    MAX_WEIGHT.
    """
    _check_degree(m)
    if m < 2 * i + 1 or i < 0:
        raise OutOfRange(f"need m >= 2i+1, got m={m}, i={i}")
    if not i <= k <= m - 1:
        raise OutOfRange(f"need i <= k <= m-1, got k={k}")
    base = (-1) ** (k + i) * comb(k, i) * stirling_first(m, m - k)
    if k >= m - i:
        base -= (-1) ** (k + m - i) * comb(k, m - i) * stirling_first(m, m - k)
    return base


def mflex_polynomial(m, i):
    """Assemble Pl_{(m); m-1-2i} from the closed-form coefficients."""
    _check_degree(m)
    if m < 2 * i + 1 or i < 0:
        raise OutOfRange(f"need m >= 2i+1, got m={m}, i={i}")
    return DPoly([0] + [mflex_coefficient(m, i, m - e) for e in range(1, m - i + 1)])


def _closed_form_degree(n):
    """The degree d = 2n - 3 of the closed-form counts, for n >= 3 and d <= MAX_WEIGHT."""
    if n < 3:
        raise OutOfRange(f"the closed-form counts need ambient dimension n >= 3, got {n}")
    _check_degree(2 * n - 3)
    return 2 * n - 3


def hyperflex_count(n):
    """Lines meeting a generic degree-(2n-3) hypersurface in a single point."""
    d = _closed_form_degree(n)
    total = 0
    for u in range(1, n):
        total += (-1) ** (u + n + 1) * stirling_first(d, u) * comb(d - u + 1, n - 1) * d ** u
    return total


def lines_on_hypersurface(n):
    """Lines on a generic degree-(2n-3) hypersurface one dimension up.

    Computed independently of hyperflex_count, as the balanced Schur
    coefficient of the Euler class of the space of binary forms.
    """
    d = _closed_form_degree(n)
    c = schur_expand(euler_pol(d)).coefficient(n - 1, n - 1).constant_term()
    if c.denominator != 1:
        raise PolynomialityViolation(f"line count {c} is not an integer")
    return int(c)
