"""Exact univariate polynomials in the degree variable d."""

from __future__ import annotations

from fractions import Fraction
from .errors import InconsistentSamples, PolynomialityViolation, ZeroDenominator


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational scalar, got {type(x).__name__}")


class DPoly:
    """Polynomial in d over Q, stored as an ascending tuple of coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c):
        return cls((c,))

    @property
    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def leading(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def constant_term(self):
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, DPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == DPoly((other,)).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return DPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DPoly((other,))
        if not isinstance(other, DPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a, b = self.coeffs, other.coeffs
        return DPoly(tuple(
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, DPoly)):
            return self + (-other if isinstance(other, DPoly) else DPoly((-_as_fraction(other),)))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return DPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, DPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return DPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci:
                for j, cj in enumerate(other.coeffs):
                    out[i + j] += ci * cj
        return DPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = DPoly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other):
        """Exact quotient; a nonzero remainder raises PolynomialityViolation."""
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                raise ZeroDenominator("division of a polynomial by zero")
            return self * (1 / c)
        if isinstance(other, DPoly):
            q, r = self.divmod(other)
            if r:
                raise PolynomialityViolation(
                    f"inexact division by {other}: remainder {r}")
            return q
        return NotImplemented

    def __call__(self, x):
        """Evaluate at a rational point by Horner's rule."""
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, other):
        """Return self(other(d))."""
        acc = DPoly()
        for c in reversed(self.coeffs):
            acc = acc * other + DPoly((c,))
        return acc

    def divmod(self, other):
        """Exact quotient and remainder over Q."""
        if not other:
            raise ZeroDenominator("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return DPoly(), self
        quot = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / lead
            quot[k] = c
            if c:
                for j, oc in enumerate(other.coeffs):
                    rem[k + j] -= c * oc
        return DPoly(quot), DPoly(rem)

    __divmod__ = divmod

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "d" if e == 1 else f"d^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = first_body if first_sign == "+" else "-" + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"DPoly({self})"


D = DPoly((0, 1))
ZERO = DPoly()
ONE = DPoly((1,))


def interpolate(samples, degree_bound):
    """Unique polynomial of degree <= degree_bound through exact samples.

    Extra samples beyond degree_bound + 1 must lie on the interpolant;
    a violation raises InconsistentSamples.
    """
    pts = [(_as_fraction(k), _as_fraction(v)) for k, v in samples]
    seen = set()
    for k, _ in pts:
        if k in seen:
            raise ValueError(f"duplicate sample point d = {k}")
        seen.add(k)
    if len(pts) < degree_bound + 1:
        raise ValueError(
            f"need at least {degree_bound + 1} samples for degree {degree_bound}")
    base = pts[:degree_bound + 1]
    # Newton form on the leading window
    coeffs = []
    for i, (xi, yi) in enumerate(base):
        acc = yi
        for j in range(i):
            acc = (acc - coeffs[j]) / (xi - base[j][0])
        coeffs.append(acc)
    poly = DPoly()
    basis = ONE
    for i, c in enumerate(coeffs):
        poly = poly + basis * c
        basis = basis * DPoly((-base[i][0], 1))
    for k, v in pts:
        if poly(k) != v:
            raise InconsistentSamples(
                f"sample ({k}, {v}) is off the degree-{degree_bound} interpolant")
    return poly
