"""Equivariant classes of coincident root strata of binary forms.

The stratum for a partition lambda collects degree-d forms with root
multiplicities lambda_1, lambda_2, ...  Its closure carries a class in
the Schur basis s_{k,l} of the symmetric functions of the two Chern
roots, with coefficients that are polynomials in d; crs_class computes
it by peeling one largest part per level.

crs_class_peeled runs each level on integer rows: row j, at a^j b^(n - j),
lists the e-coefficients of the smaller class, e = d - m.  In the basis
(b - a)^k a^(n - k) they are g_k = sum of C(n - j, k) rows[j], and the twist
(a to x*d / e, b - a to y - x) gives the sum of g_k d^(n-k) / e^(n-k) times
x^(n-k) (y - x)^k: polynomial exactly when each g_k starts with n - k zeros.
None of that depends on m: _basis runs it once per smaller class, which
keeps the checked quotients for every later peel onto it.  The rest, _twist,
runs at d = 2^W, one int per polynomial with signed digits (Kronecker
substitution): a quotient packs at e = 2^W - m and shifts by (n - k + 1)*W
for d^(n - k) times the Euler factor d of i = 0, each factor i >= 1 gives
i*(prev - cur) + (cur << W), and the digits of a Schur coefficient are its
d-coefficients while each stays below 2^(W-1).  For numerators at most R,
width to a row, the weights C(n-j, i-j) m^(i-j) (1+m)^j of twisted row i
over e^i sum to at most (1+m)^i C(n+1, i) <= (1+m)^n 2^n, those of the Euler
product to (m+1)^m, and a Schur coefficient is a difference of two rows: its
at most width + m e-coefficients stay below R (1+m)^n 2^n (m+1)^m 2 < 2^(B-1) for
B = bitlength(R (m+1)^(n+m)) + n + 2.  A d-coefficient sums them times
C(j, t) (-m)^(j-t) over j < width + m, weights that sum to less than
(1+m)^(width+m), so it stays below 2^(W-1) for
W = B + bitlength((m+1)^(width+m)).  A single row's e-coefficients are half
that bound, so its d-coefficients stay below 2^(W-2) and one W serves the
two readouts of the packed level that _packed_level returns, both here:
_schur_readout for crs_class_peeled, and _level_rows, each row's own digits,
which flagcalc.incidence_class places at zeta^(N-i) eta^i on the flag roots.
crs_class_at, the per-d route, shares none of this: it loops over rows of
plain ints.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, zip_longest
from math import comb, prod
from operator import index

from .dpoly import D, _canonical, _Result, common_numerators, taylor_shift
from .errors import DegreeTooSmall, PolynomialityViolation
# substitute_homogeneous is unused here; tracers patch every module's binding of it.
from .multipoly import MultiPoly, substitute_homogeneous
from .partitions import Partition, validate_stratum
from .schur import (SchurExpansion, complete_h_expand, divided_difference,
                    schur_expand)

_A = MultiPoly.variable("a")
_B = MultiPoly.variable("b")


class CRSClass(_Result):
    """Schur expansion of one stratum class, coefficients polynomial in d."""

    # _peel_basis: the checked basis half of peeling onto this class, and its
    # denominator; _packed_level fills it on the first such peel
    __slots__ = ("partition", "expansion", "_peel_basis")
    _FIELDS = ("partition", "expansion")

    def __init__(self, partition, expansion):
        for (k, l), c in expansion.coeffs.items():
            if k + l != partition.codim:
                raise ValueError(
                    f"index ({k},{l}) off the codimension-{partition.codim} diagonal")
            if c.degree > partition.weight:
                raise ValueError(f"coefficient of s_{{{k},{l}}} exceeds degree {partition.weight}")
        top = expansion.coefficient(partition.codim, 0)
        if top.degree != partition.weight:
            raise ValueError(
                f"top coefficient must have degree exactly {partition.weight}, got {top}")
        self.partition = partition
        self.expansion = expansion
        self._peel_basis = None

    def coefficient(self, k, l):
        return self.expansion.coefficient(k, l)

    def to_roots(self):
        return self.expansion.to_roots()

    def evaluate(self, d0):
        return self.expansion.evaluate_d(d0)

    def leading_slice(self):
        """Coefficient of d^{|lambda|} in each Schur coordinate."""
        return self.expansion.map_coefficients(
            lambda c: c.leading() if c.degree == self.partition.weight else 0)

    def __str__(self):
        return f"[{self.partition}] = {self.expansion}"


def _euler_factor(m, d=D):
    """Product of (i*a + (d - i)*b) for i = 0 .. m-1, d the scalar D by default.

    weighted_product uses the default, euler_pol an integer d.  On a row P of
    a^I b^(N - I) coefficients the factor i is P'[I] = i*P[I - 1] + (d - i)*P[I],
    the update that _twist, crs_class_at and flagcalc._resolution_peel run;
    it divides nothing, so no exactness check belongs to it.
    """
    return prod((_B * (d - i) + _A * i for i in range(m)), start=MultiPoly.scalar(1))


def weighted_product(m):
    """Product of (i*a + (d - i)*b) for i = 0 .. m-1, with d in the scalars."""
    return _euler_factor(m)


def crs_class(lam):
    """Class of the closed stratum, memoized on the sorted partition."""
    lam = validate_stratum(lam)
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

    The Schur readout of _packed_level's row over den times the multiplicity
    of m in lam: the pushforward along the line map of the incidence class.
    """
    lam, row, den, bits = _packed_level(lam, m)
    return CRSClass(lam, _schur_readout(row, den * lam.multiplicity(m), bits))


def _packed_level(lam, m):
    """(lam, row, den, W): the level that peels m off lam, packed at d = 2^W.

    row[i] / den is the coefficient of a^i b^(N - i) in the twisted smaller
    class times the Euler factor, before any pushforward.  The first peel
    onto a smaller class keeps the checked basis half of its _class_rows on
    it, so every later peel onto that class runs only the half that depends
    on m.
    """
    lam = validate_stratum(lam)
    cls = crs_class(lam.remove_one(m))
    if cls._peel_basis is None:
        rows, den = _class_rows(cls)
        cls._peel_basis = _basis(rows, m), den
    row, bits = _twist(cls._peel_basis[0], m)
    return lam, row, cls._peel_basis[1], bits


def _class_rows(cls):
    """(rows, den): the class in its two roots, integer numerator lists over den.

    Row i, at a^i b^(n - i) with n the codim, sums c_{n-l,l} over
    l <= min(i, n - i), so rows i and n - i are one list.
    """
    n = cls.partition.codim
    lists, den = common_numerators([cls.coefficient(n - l, l) for l in range(n // 2 + 1)])
    half = list(accumulate(lists, lambda acc, nums: [
        x + y for x, y in zip_longest(acc, nums, fillvalue=0)]))
    return [half[min(i, n - i)] for i in range(n + 1)], den


def _basis(rows, m):
    """The half of a level that m does not enter: (quotients, R, width).

    The rows, padded to one width, go to g_k = sum of C(n - j, k) rows[j] by
    the Taylor-shift triangle on whole rows; each g_k must start with n - k
    zeros, and its quotient is the rest.  R bounds every numerator.
    """
    n, width = len(rows) - 1, max(map(len, rows))
    bound = max(max(map(abs, nums)) for nums in rows)
    g = [nums + [0] * (width - len(nums)) for nums in reversed(rows)]
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            g[j] = [x + y for x, y in zip(g[j], g[j + 1])]
    for k, gk in enumerate(g):
        if any(gk[:n - k]):
            raise PolynomialityViolation(f"(d - {m})**{n - k} does not divide the "
                                         f"coefficient of (b - a)^{k} a^{n - k}")
    return [gk[n - k:] for k, gk in enumerate(g)], bound, width


def _twist(basis, m):
    """The half of a level that depends on m, from _basis's output: (row, W).

    Each quotient packs at e = 2^W - m and shifts by (n - k + 1)*W, for
    d^(n - k) and the Euler factor d of i = 0; the twisted rows are the
    reversed Taylor shift by -1, and the factors i = 1 .. m - 1 follow.
    """
    quots, bound, width = basis
    n = len(quots) - 1
    bits = ((bound * (m + 1) ** (n + m)).bit_length()
            + n + 2 + ((m + 1) ** (width + m)).bit_length())
    row = []
    for k, q in enumerate(quots):
        v = 0
        for x in reversed(q):
            v = (v << bits) - m * v + x
        row.append(v << (n - k + 1) * bits)
    row = taylor_shift(row, -1)[::-1] + [0]
    for i in range(1, m):
        row = [i * (p - c) + (c << bits) for p, c in zip([0] + row, row + [0])]
    return row, bits


def _digits(v, bits):
    """Signed base-2^bits digits of v, lowest first, each below 2^(bits-1)."""
    half, mask, out = 1 << (bits - 1), (1 << bits) - 1, []
    while v:
        v += half
        out.append((v & mask) - half)
        v >>= bits
    return out


def _schur_readout(row, den, bits):
    """Schur expansion of the divided difference of the row, over den.

    Readout identity: for P = sum of P[i] a^i b^(N - i), the s_{k,l} coefficient
    is P[l] - P[k + 1] (k + l = N - 1, k >= l), read off its digits at d = 2^bits.
    """
    top = len(row) - 1
    return SchurExpansion({(top - 1 - l, l): _canonical(_digits(row[l] - row[top - l], bits), den)
                           for l in range((top + 1) // 2)})


def _level_rows(lam, m):
    """(rows, den): the rows of _packed_level(lam, m), integer numerator lists over den.

    Row i is the coefficient of a^i b^(N - i) before any pushforward; its
    d-coefficients stay below 2^(W-2), so its own digits are exact.
    """
    _, row, den, bits = _packed_level(lam, m)
    return [_digits(v, bits) for v in row], den


def crs_class_at(lam, d0):
    """The same recursion with d frozen at the integer d0; pure, no cache.

    Parts peel from the last one up, d rising from d0 - |lam| to d0; a level
    is the row of a^i b^(n - i) coefficients in the roots, integers over den.
    With e = d - m the twist gives row'[j] = e^(n - j) sum over i <= j of
    C(n - i, j - i) d^i m^(j - i) row[i], over e^n; an Euler factor gives
    i*P[I - 1] + (d - i)*P[I]; the divided difference is the running sums
    Q[t] of P[i] - P[N - i] over i <= t, and c_{k,l} = Q[l] - Q[l - 1].
    """
    lam = validate_stratum(lam)
    d0 = index(d0)
    if d0 < lam.weight:
        raise DegreeTooSmall(
            f"degree {d0} cannot hold a stratum of weight {lam.weight}")
    parts = lam.parts
    row, den, d = [1], 1, d0 - lam.weight
    for k in range(len(parts) - 1, -1, -1):
        m = parts[k]
        e, d, n = d, d + m, len(row) - 1
        row = [e ** (n - j) * sum(comb(n - i, j - i) * d ** i * m ** (j - i) * row[i]
                                  for i in range(j + 1)) for j in range(n + 1)]
        den *= e ** n * parts[k:].count(m)
        for i in range(m):
            row = [i * p + (d - i) * c for p, c in zip([0] + row, row + [0])]
        top = len(row) - 1
        row = list(accumulate(row[i] - row[top - i] for i in range(top)))
    codim = len(row) - 1
    return SchurExpansion({(codim - l, l): Fraction(row[l] - (row[l - 1] if l else 0), den)
                           for l in range(codim // 2 + 1)})


def crs_m_closed(m):
    """Single-part stratum class straight from one divided difference."""
    lam = validate_stratum((m,))
    expansion = schur_expand(divided_difference(weighted_product(m)))
    return CRSClass(lam, expansion)


def euler_pol(d0):
    """Equivariant Euler class of the space of binary degree-d0 forms."""
    d0 = index(d0)
    return _euler_factor(d0 + 1, d=d0)


def euler_identity_check(d0):
    """Does the Euler class equal d * a * b times the top stratum class?"""
    if d0 < 2:
        raise DegreeTooSmall("the full-coincidence stratum needs degree >= 2")
    rhs = _A * _B * crs_class_at(Partition((d0,)), d0).to_roots() * d0
    return euler_pol(d0) == rhs


def leading_term(lam):
    """Top d-coefficient of the class: h of the reduction over multiplicities."""
    lam = validate_stratum(lam)
    exp = complete_h_expand(lam.reduction().parts)
    return exp * Fraction(1, lam.multiplicity_factorial())
