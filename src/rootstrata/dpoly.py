"""Exact univariate polynomials in the degree variable d."""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm, prod
from operator import index

from .errors import InconsistentSamples, PolynomialityViolation, ZeroDenominator


def _parts(x):
    """Canonical (numerators, denominator) of a DPoly, int or Fraction; else None."""
    if isinstance(x, DPoly):
        return x._nums, x._den
    if isinstance(x, int):
        return ((x,) if x else ()), 1
    if isinstance(x, Fraction):
        return ((x.numerator,) if x else ()), x.denominator
    return None


def is_scalar(x):
    """Is x a scalar of the polynomials here: a DPoly, an int or a Fraction?"""
    return _parts(x) is not None


def as_dpoly(x):
    """The scalar x as a DPoly; an int or Fraction becomes a constant."""
    return x if isinstance(x, DPoly) else DPoly.constant(x)


def _canonical(nums, den):
    """DPoly for the integer numerators nums over the nonzero int den.

    Strips trailing zeros, makes den positive and cancels the common factor
    of den and every numerator, so equal polynomials get equal fields.
    """
    n = len(nums)
    while n and not nums[n - 1]:
        n -= 1
    if not n:
        return _raw((), 1)
    if den < 0:
        den = -den
        nums = [-x for x in nums[:n]]
    elif n < len(nums):
        nums = nums[:n]
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [x // g for x in nums]
    return _raw(tuple(nums), den)


def taylor_shift(nums, c):
    """Integer numerators of p(d + c), for p given by nums and an int c."""
    a = list(nums)
    n = len(a) - 1
    if c:
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                a[j] += c * a[j + 1]
    return a


def pseudo_divmod(nums, b):
    """Integer quotient and remainder lists of lead**k * nums by the list b.

    lead is b[-1] and k = len(nums) - len(b) + 1, the length of the
    quotient, so every step divides by lead exactly; a monic b scales nothing.
    nums must be at least as long as b; the remainder has len(b) - 1 entries.
    """
    lead, nb = b[-1], len(b) - 1
    dq = len(nums) - 1 - nb
    rem = list(nums) if lead == 1 else [x * lead ** (dq + 1) for x in nums]
    quot = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + nb] if lead == 1 else rem[k + nb] // lead
        quot[k] = c
        if c:
            for j in range(nb):
                rem[k + j] -= c * b[j]
    return quot, rem[:nb]


def common_numerators(polys):
    """Integer numerator lists of polys over their least common denominator.

    Returns (lists, den), so that polys[i] is lists[i] / den.
    """
    den = lcm(*(p._den for p in polys))
    return [[x * (den // p._den) for x in p._nums] for p in polys], den


def _raw(nums, den):
    """DPoly with fields that are already canonical."""
    p = object.__new__(DPoly)
    p._nums = nums
    p._den = den
    return p


class DPoly:
    """Polynomial in d over Q: ascending integer numerators over one denominator.

    The form is canonical: no trailing zero numerator, a positive
    denominator sharing no factor with all numerators, and zero is ((), 1).
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs=()):
        cs = [DPoly.constant(c) for c in coeffs]
        den = lcm(*(c._den for c in cs))
        canon = _canonical([sum(c._nums) * (den // c._den) for c in cs], den)
        self._nums = canon._nums
        self._den = canon._den

    @classmethod
    def constant(cls, c):
        """The constant polynomial c, for an int, a Fraction or a constant DPoly."""
        parts = _parts(c)
        if parts is None or len(parts[0]) > 1:
            raise TypeError(f"expected an exact rational scalar, got {type(c).__name__}")
        return _raw(*parts)

    @property
    def coeffs(self):
        """Ascending coefficients as Fractions."""
        den = self._den
        return tuple(Fraction(x, den) for x in self._nums)

    @property
    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return len(self._nums) - 1

    def __bool__(self):
        return bool(self._nums)

    def leading(self):
        return Fraction(self._nums[-1], self._den) if self._nums else Fraction(0)

    def constant_term(self):
        return Fraction(self._nums[0], self._den) if self._nums else Fraction(0)

    def __eq__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return self._nums == parts[0] and self._den == parts[1]

    def __hash__(self):
        # a constant hashes as the scalar it equals
        if len(self._nums) <= 1:
            return hash(self.constant_term())
        return hash((self._nums, self._den))

    def __neg__(self):
        return _raw(tuple(-x for x in self._nums), self._den)

    def __add__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        a, da = self._nums, self._den
        b, db = parts
        if da != db:
            g = gcd(da, db)
            fa, fb = db // g, da // g
            da *= fa
            a = [x * fa for x in a]
            b = [x * fb for x in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return _canonical(out, da)

    __radd__ = __add__

    def __sub__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return self + _raw(tuple(-x for x in parts[0]), parts[1])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        a, b = self._nums, parts[0]
        if not a or not b:
            return _raw((), 1)
        if len(a) < len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for j, y in enumerate(b):
            if y:
                for i, x in enumerate(a, j):
                    out[i] += x * y
        den = self._den * parts[1]
        if den == 1:
            return _raw(tuple(out), 1)
        return _canonical(out, den)

    __rmul__ = __mul__

    def _scaled(self, num, den):
        """self * num / den for ints num and den != 0."""
        if not num or not self._nums:
            return _raw((), 1)
        return _canonical([x * num for x in self._nums], self._den * den)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return prod(repeat(self, n), start=DPoly((1,)))

    def __truediv__(self, other):
        """Exact quotient; a nonzero remainder raises PolynomialityViolation."""
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        nums, den = parts
        if not nums:
            raise ZeroDenominator("division of a polynomial by zero")
        if len(nums) == 1:
            # pseudo-division by a constant would inflate the numerators
            return self._scaled(den, nums[0])
        q, r = self.divmod(other)
        if r:
            raise PolynomialityViolation(f"inexact division by {other}: remainder {r}")
        return q

    def __call__(self, x):
        """Evaluate at a rational point by Horner's rule."""
        nums = self._nums
        if isinstance(x, int):
            acc = 0
            for c in reversed(nums):
                acc = acc * x + c
            return Fraction(acc, self._den)
        x = DPoly.constant(x)
        if not nums:
            return Fraction(0)
        p, q = (x._nums or (0,))[0], x._den
        # homogenized Horner: sum of c_i p^i q^(n-i), over den * q^n
        acc, qk = 0, 1
        for c in reversed(nums):
            acc = acc * p + c * qk
            qk *= q
        return Fraction(acc, self._den * qk // q)

    def compose(self, other):
        """Return self(other(d))."""
        if (isinstance(other, DPoly) and other._den == 1
                and len(other._nums) == 2 and other._nums[1] == 1):
            return self._shifted(other._nums[0])
        acc = DPoly()
        for c in reversed(self._nums):
            acc = acc * other + c
        return acc._scaled(1, self._den)

    def _shifted(self, c):
        """self(d + c) for an int c, by the integer Taylor shift."""
        # a unimodular change of variable keeps the form canonical
        return _raw(tuple(taylor_shift(self._nums, c)), self._den)

    def divmod(self, other):
        """Exact quotient and remainder over Q by a DPoly, an int or a Fraction.

        By integer pseudo-division: with self = nums / den and other = b / e,
        lead**k * nums = quot * b + rem makes the quotient quot * e / (lead**k * den)
        and the remainder rem / (lead**k * den).
        """
        other = as_dpoly(other)
        if not other:
            raise ZeroDenominator("polynomial division by zero")
        b = other._nums
        if len(self._nums) < len(b):
            return DPoly(), self
        quot, rem = pseudo_divmod(self._nums, b)
        den = self._den * b[-1] ** len(quot)
        if other._den != 1:
            quot = [x * other._den for x in quot]
        return _canonical(quot, den), _canonical(rem, den)

    __divmod__ = divmod

    def spelled(self):
        """Ascending coefficients as strings, spelled as str(Fraction) spells them."""
        den = self._den
        if den == 1:
            return [str(x) for x in self._nums]
        out = []
        for x in self._nums:
            g = gcd(x, den)
            out.append(str(x // g) if g == den else f"{x // g}/{den // g}")
        return out

    def __str__(self):
        return render(self.spelled())

    def __repr__(self):
        return f"DPoly({self})"


def joined(terms):
    """Text of a signed sum of (coefficient, monomial) string pairs.

    A leading "-" of a coefficient becomes the sign of its term, a
    coefficient "1" before a monomial is left out, and no terms is "0".
    """
    out = []
    for coef, mono in terms:
        sign, body = ("-", coef[1:]) if coef[0] == "-" else ("+", coef)
        if mono:
            body = mono if body == "1" else f"{body}*{mono}"
        out.append((sign, body))
    if not out:
        return "0"
    text = out[0][1] if out[0][0] == "+" else "-" + out[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in out[1:])


def monomial(pairs):
    """Text like x^2*y of (name, exponent) pairs; zero exponents drop, all zero is ""."""
    return "*".join(v if k == 1 else f"{v}^{k}" for v, k in pairs if k)


def render(spelled):
    """The descending "c*d^e - ..." text of ascending coefficient strings."""
    return joined((spelled[e], monomial((("d", e),)))
                  for e in range(len(spelled) - 1, -1, -1) if spelled[e] != "0")


class _Result:
    """Equality and repr shared by the result classes.

    Two results are equal when the other is an instance of the first's type
    and they agree on every attribute its class lists in _FIELDS.  With
    __eq__ and no __hash__, every result is unhashable.
    """

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._FIELDS)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


D = DPoly((0, 1))
ZERO = DPoly()


def interpolate(samples, degree_bound):
    """Unique polynomial of degree <= degree_bound through exact samples.

    The first degree_bound + 1 samples fix the Lagrange form; extra samples
    must lie on the interpolant, and a violation raises InconsistentSamples.
    """
    pts = [(DPoly.constant(k), DPoly.constant(v)) for k, v in samples]
    degree_bound = index(degree_bound)
    if degree_bound < -1:
        raise ValueError(f"degree bound {degree_bound} is below -1")
    seen = set()
    for k, _ in pts:
        if k in seen:
            raise ValueError(f"duplicate sample point d = {k}")
        seen.add(k)
    if len(pts) < degree_bound + 1:
        raise ValueError(
            f"need at least {degree_bound + 1} samples for degree {degree_bound}")
    base = pts[:degree_bound + 1]
    full = prod(D - x for x, _ in base)
    poly = ZERO
    for x, y in base:
        basis = full / (D - x)
        poly = poly + basis * (y / basis(x))
    for k, v in pts:
        if poly(k) != v:
            raise InconsistentSamples(
                f"sample ({k}, {v}) is off the degree-{degree_bound} interpolant")
    return poly
