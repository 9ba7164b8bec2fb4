"""Sparse multivariate polynomials with DPoly scalars.

Every coefficient is a DPoly, a polynomial in the degree d over Q; an int
or Fraction given to the constructor is wrapped as a constant DPoly on the
way in, and * or / by one scales each DPoly.  The degree variable d may
appear either as an honest variable (with constant scalars) or inside the
scalars, never both ways in one polynomial; lift_d and lower_d convert.
"""

from __future__ import annotations

from fractions import Fraction

from .dpoly import DPoly
from .errors import PolynomialityViolation, ZeroDenominator

VAR_ORDER = ("a", "b", "c1", "c2", "d", "zeta", "eta", "sigma1", "xi")
_VAR_INDEX = {v: i for i, v in enumerate(VAR_ORDER)}


def _as_dpoly(c):
    """The scalar c as a DPoly; an int or Fraction becomes a constant."""
    return c if isinstance(c, DPoly) else DPoly.constant(c)


def _is_scalar(x):
    return isinstance(x, (int, Fraction, DPoly))


def _widen(p, names):
    """Spread the exponents of p over its variables joined with names.

    Returns the merged variable tuple, in VAR_ORDER, and the terms of p as
    (exponent list, coefficient) pairs; a caller may edit each list before
    it freezes it into a key.
    """
    merged = tuple(sorted(set(p.variables).union(names), key=_VAR_INDEX.__getitem__))
    pos = [merged.index(v) for v in p.variables]
    terms = []
    for e, c in p.terms.items():
        big = [0] * len(merged)
        for i, v in zip(pos, e):
            big[i] = v
        terms.append((big, c))
    return merged, terms


class MultiPoly:
    """Polynomial in a fixed tuple of named variables."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables=(), terms=None):
        variables = tuple(variables)
        for v in variables:
            if v not in _VAR_INDEX:
                raise ValueError(f"unknown variable {v!r}")
        if len(set(variables)) != len(variables):
            raise ValueError("repeated variable name")
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(variables):
                raise ValueError("exponent arity does not match the variables")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            c = _as_dpoly(c)
            if not c:
                continue
            if exps in clean:
                c = clean[exps] + c
                if not c:
                    del clean[exps]
                    continue
            clean[exps] = c
        # drop variables that no surviving term uses
        used = [i for i in range(len(variables))
                if any(e[i] for e in clean)]
        if len(used) != len(variables):
            clean = {tuple(e[i] for i in used): c for e, c in clean.items()}
            variables = tuple(variables[i] for i in used)
        order = sorted(range(len(variables)), key=lambda i: _VAR_INDEX[variables[i]])
        if order != list(range(len(variables))):
            clean = {tuple(e[i] for i in order): c for e, c in clean.items()}
            variables = tuple(variables[i] for i in order)
        if "d" in variables:
            for c in clean.values():
                if c.degree > 0:
                    raise TypeError(
                        "d cannot be a variable while scalars depend on d; lift or lower first")
        self.variables = variables
        self.terms = clean

    @classmethod
    def scalar(cls, c):
        return cls((), {(): c})

    @classmethod
    def variable(cls, name):
        return cls((name,), {(1,): 1})

    @classmethod
    def zero(cls):
        return cls()

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if _is_scalar(other):
            other = MultiPoly.scalar(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def _aligned(self, other):
        if self.variables == other.variables:
            return self.variables, self.terms, other.terms
        merged, left = _widen(self, other.variables)
        _, right = _widen(other, merged)
        return (merged, {tuple(e): c for e, c in left},
                {tuple(e): c for e, c in right})

    def __add__(self, other):
        if _is_scalar(other):
            other = MultiPoly.scalar(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        merged, left, right = self._aligned(other)
        out = dict(left)
        for e, c in right.items():
            out[e] = out[e] + c if e in out else c
        return MultiPoly(merged, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if _is_scalar(other):
            other = MultiPoly.scalar(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            return MultiPoly(self.variables,
                             {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        merged, left, right = self._aligned(other)
        out = {}
        for e1, c1 in left.items():
            for e2, c2 in right.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                c = c1 * c2
                out[key] = out[key] + c if key in out else c
        return MultiPoly(merged, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Exact division by a scalar; see DPoly.__truediv__."""
        if not _is_scalar(other):
            return NotImplemented
        if not other:
            raise ZeroDenominator("division of a polynomial by zero")
        return MultiPoly(self.variables, {e: c / other for e, c in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.scalar(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def degree_in(self, name):
        if name not in self.variables:
            return 0
        i = self.variables.index(name)
        return max((e[i] for e in self.terms), default=0)

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coefficient(self, name, power):
        """Coefficient polynomial of name**power, with name removed."""
        if name not in self.variables:
            return self if power == 0 else MultiPoly.zero()
        i = self.variables.index(name)
        rest = self.variables[:i] + self.variables[i + 1:]
        picked = {e[:i] + e[i + 1:]: c for e, c in self.terms.items() if e[i] == power}
        return MultiPoly(rest, picked)

    def swap_vars(self, x, y):
        """Exchange the roles of two variables."""
        if x not in self.variables and y not in self.variables:
            return self
        merged, terms = _widen(self, (x, y))
        ix, iy = merged.index(x), merged.index(y)
        out = {}
        for big, c in terms:
            big[ix], big[iy] = big[iy], big[ix]
            out[tuple(big)] = c
        return MultiPoly(merged, out)

    def is_symmetric(self, x="a", y="b"):
        return self == self.swap_vars(x, y)

    def substitute(self, bindings):
        """Replace variables by polynomials or scalars; unbound ones pass through."""
        values = {}
        for name, val in bindings.items():
            if name not in _VAR_INDEX:
                raise ValueError(f"unknown variable {name!r}")
            values[name] = val if isinstance(val, MultiPoly) else MultiPoly.scalar(val)
        target = self
        if any(_depends_on_d_scalars(v) for v in values.values()):
            if "d" in values:
                raise ValueError("cannot bind d while other bindings depend on d")
            target = target.lift_d()
            values = {n: v.lift_d() for n, v in values.items()}
        elif _depends_on_d_scalars(target):
            values = {n: v.lift_d() for n, v in values.items()}
        powers = {name: [MultiPoly.scalar(1), val] for name, val in values.items()}

        def power_of(name, n):
            cache = powers[name]
            while len(cache) <= n:
                cache.append(cache[-1] * cache[1])
            return cache[n]

        total = MultiPoly.zero()
        for e, c in target.terms.items():
            piece = MultiPoly.scalar(c)
            for name, exp in zip(target.variables, e):
                if not exp:
                    continue
                if name in values:
                    piece = piece * power_of(name, exp)
                else:
                    piece = piece * MultiPoly((name,), {(exp,): 1})
            total = total + piece
        return total

    def lift_d(self):
        """Move the variable d into DPoly scalars."""
        if "d" not in self.variables:
            return self
        i = self.variables.index("d")
        rest = self.variables[:i] + self.variables[i + 1:]
        out = {}
        for e, c in self.terms.items():
            key = e[:i] + e[i + 1:]
            add = DPoly((0,) * e[i] + (c,))
            out[key] = out.get(key, DPoly()) + add
        return MultiPoly(rest, out)

    def lower_d(self):
        """Spread polynomial scalars back onto d as a variable."""
        if "d" in self.variables or not _depends_on_d_scalars(self):
            return self
        merged, terms = _widen(self, ("d",))
        i = merged.index("d")
        out = {}
        for big, c in terms:
            for k, ck in enumerate(c.coeffs):
                big[i] = k
                out[tuple(big)] = ck
        return MultiPoly(merged, out)

    def evaluate_d(self, k):
        """Specialize d to the rational number k, wherever d lives."""
        if "d" in self.variables:
            return self.substitute({"d": Fraction(k)})
        return MultiPoly(self.variables, {e: c(k) for e, c in self.terms.items()})

    def two_var_terms(self, x, y):
        """Exponent map {(i, j): coeff} for a polynomial in x and y alone."""
        extra = [v for v in self.variables if v not in (x, y)]
        if extra:
            raise ValueError(f"unexpected variables {extra} (wanted only {x}, {y})")
        ix = self.variables.index(x) if x in self.variables else None
        iy = self.variables.index(y) if y in self.variables else None
        out = {}
        for e, c in self.terms.items():
            i = e[ix] if ix is not None else 0
            j = e[iy] if iy is not None else 0
            out[(i, j)] = c
        return out

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.variables, e) if k)
            sign = "+"
            if c.degree <= 0:
                c = c.constant_term()
                if c < 0:
                    sign, c = "-", -c
                coef = str(c)
            else:
                coef = f"({c})"
            if mono:
                body = mono if coef == "1" else f"{coef}*{mono}"
            else:
                body = coef
            pieces.append((sign, body))
        out = pieces[0][1] if pieces[0][0] == "+" else "-" + pieces[0][1]
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"MultiPoly({self})"


def _depends_on_d_scalars(p):
    return any(c.degree > 0 for c in p.terms.values())


def as_multipoly(x):
    return x if isinstance(x, MultiPoly) else MultiPoly.scalar(x)


def substitute_homogeneous(p, numerators, den):
    """Substitute var -> numerators[var] / den into a homogeneous polynomial.

    The den**degree shared denominator must divide the result exactly;
    a nonzero remainder raises PolynomialityViolation.  Keeping a single
    cleared denominator is what lets every intermediate stay in DPoly.
    """
    if not p:
        return MultiPoly.zero()
    if not p.is_homogeneous():
        raise ValueError("shared-denominator substitution needs a homogeneous input")
    missing = [v for v in p.variables if v not in numerators]
    if missing:
        raise ValueError(f"no numerator given for {missing}")
    c = p.total_degree()
    total = p.substitute(numerators)
    shift = den ** c
    out = {}
    for e, coeff in total.terms.items():
        q, r = coeff.divmod(shift)
        if r:
            raise PolynomialityViolation(
                f"{den}**{c} does not divide a substituted coefficient")
        out[e] = q
    return MultiPoly(total.variables, out)
