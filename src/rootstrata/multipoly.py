"""Sparse multivariate polynomials with DPoly scalars.

Every coefficient is a DPoly, a polynomial in the degree d over Q, so d
lives in the scalars and is never a variable; an int or Fraction given to
the constructor is wrapped as a constant DPoly on the way in, and * or /
by one scales each DPoly.

One function, _build, puts terms in canonical form.  The constructor
checks caller input and then calls it; every internal result goes to it
directly as (exponent tuple, DPoly) pairs.
"""

from __future__ import annotations

from itertools import repeat
from math import prod
from operator import add, index

from .dpoly import as_dpoly, is_scalar, joined, monomial
from .errors import ZeroDenominator

VAR_ORDER = ("a", "b", "c1", "c2", "zeta", "eta", "sigma1", "xi")
_VAR_INDEX = {v: i for i, v in enumerate(VAR_ORDER)}


def _ordered(names):
    """The distinct names in VAR_ORDER; an unknown name raises ValueError."""
    try:
        return tuple(sorted(set(names), key=_VAR_INDEX.__getitem__))
    except KeyError as exc:
        raise ValueError(f"unknown variable {exc.args[0]!r}") from None


def _build(variables, pairs):
    """The canonical MultiPoly of (exponent tuple, DPoly) pairs.

    variables are distinct names in VAR_ORDER and every tuple matches them.
    Repeated exponents add, and zero sums and unused variables drop.
    """
    terms = {}
    for e, c in pairs:
        terms[e] = terms[e] + c if e in terms else c
    for e in [e for e, c in terms.items() if not c]:
        del terms[e]
    used = [i for i in range(len(variables)) if any(e[i] for e in terms)]
    if len(used) != len(variables):
        terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
        variables = tuple(variables[i] for i in used)
    p = object.__new__(MultiPoly)
    p.variables = variables
    p.terms = terms
    return p


def _spread(p, names):
    """The terms of p as (exponent tuple, coefficient) pairs over names.

    names may come in any order and must hold every variable of p; a name
    p lacks gets exponent 0.
    """
    if names == p.variables:
        return p.terms.items()
    at = [names.index(v) for v in p.variables]
    out = []
    for e, c in p.terms.items():
        big = [0] * len(names)
        for i, n in zip(at, e):
            big[i] = n
        out.append((tuple(big), c))
    return out


class MultiPoly:
    """Polynomial in a fixed tuple of named variables."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables=(), terms=None):
        variables = tuple(variables)
        names = _ordered(variables)
        if len(names) != len(variables):
            raise ValueError("repeated variable name")
        order = [variables.index(v) for v in names]
        pairs = []
        for exps, c in (terms or {}).items():
            exps = tuple(map(index, exps))
            if len(exps) != len(variables):
                raise ValueError("exponent arity does not match the variables")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            pairs.append((tuple(exps[i] for i in order), as_dpoly(c)))
        p = _build(names, pairs)
        self.variables = p.variables
        self.terms = p.terms

    @classmethod
    def scalar(cls, c):
        return _build((), [((), as_dpoly(c))])

    @classmethod
    def variable(cls, name):
        return cls((name,), {(1,): 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if is_scalar(other):
            other = MultiPoly.scalar(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __add__(self, other):
        if is_scalar(other):
            other = MultiPoly.scalar(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        merged = _ordered(self.variables + other.variables)
        return _build(merged, [*_spread(self, merged), *_spread(other, merged)])

    __radd__ = __add__

    def __neg__(self):
        return _build(self.variables, [(e, -c) for e, c in self.terms.items()])

    def __sub__(self, other):
        if not (is_scalar(other) or isinstance(other, MultiPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if is_scalar(other):
            return _build(self.variables, [(e, c * other) for e, c in self.terms.items()])
        if not isinstance(other, MultiPoly):
            return NotImplemented
        merged = _ordered(self.variables + other.variables)
        right = _spread(other, merged)
        return _build(merged, ((tuple(map(add, e1, e2)), c1 * c2)
                               for e1, c1 in _spread(self, merged) for e2, c2 in right))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Exact division by a scalar; see DPoly.__truediv__."""
        if not is_scalar(other):
            return NotImplemented
        if not other:
            raise ZeroDenominator("division of a polynomial by zero")
        return _build(self.variables, [(e, c / other) for e, c in self.terms.items()])

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return prod(repeat(self, n), start=MultiPoly.scalar(1))

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coefficient(self, name, power):
        """Coefficient polynomial of name**power, with name removed."""
        if name not in self.variables:
            return self if power == 0 else MultiPoly()
        i = self.variables.index(name)
        rest = self.variables[:i] + self.variables[i + 1:]
        return _build(rest, [(e[:i] + e[i + 1:], c)
                             for e, c in self.terms.items() if e[i] == power])

    def swap_vars(self, x, y):
        """Exchange the roles of two variables."""
        merged = _ordered(self.variables + (x, y))
        return _build(merged, _spread(self, tuple({x: y, y: x}.get(v, v) for v in merged)))

    def is_symmetric(self, x="a", y="b"):
        return self == self.swap_vars(x, y)

    def substitute(self, bindings):
        """Replace variables by polynomials or scalars; unbound ones pass through.

        Every variable starts bound to itself, and bindings override that.
        """
        values = {v: MultiPoly.variable(v) for v in self.variables}
        for name, val in bindings.items():
            if name not in _VAR_INDEX:
                raise ValueError(f"unknown variable {name!r}")
            values[name] = as_multipoly(val)
        merged = _ordered([v for val in values.values() for v in val.variables])
        powers = {name: [val] for name, val in values.items()}

        def power_of(name, n):
            cache = powers[name]
            while len(cache) < n:
                cache.append(cache[-1] * cache[0])
            return cache[n - 1]

        def pairs():
            # Streamed: a product of powers holds far more pairs than the sum.
            for e, c in self.terms.items():
                yield from _spread(prod((power_of(v, n) for v, n in zip(self.variables, e) if n),
                                        start=MultiPoly.scalar(c)), merged)

        return _build(merged, pairs())

    def evaluate_d(self, k):
        """Specialize d in every scalar to the rational number k."""
        return _build(self.variables,
                      [(e, as_dpoly(c(k))) for e, c in self.terms.items()])

    def two_var_terms(self, x, y):
        """Exponent map {(i, j): coeff} for a polynomial in x and y alone."""
        extra = [v for v in self.variables if v not in (x, y)]
        if extra:
            raise ValueError(f"unexpected variables {extra} (wanted only {x}, {y})")
        return dict(_spread(self, (x, y)))

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self):
        return joined((c.spelled()[0] if c.degree <= 0 else f"({c})",
                       monomial(zip(self.variables, e))) for e, c in self.sorted_terms())

    def __repr__(self):
        return f"MultiPoly({self})"


def as_multipoly(x):
    return x if isinstance(x, MultiPoly) else MultiPoly.scalar(x)


def substitute_homogeneous(p, numerators, den):
    """Substitute var -> numerators[var] / den into a homogeneous polynomial.

    One substitution of the numerators, then DPoly's exact division by
    den**degree, which raises PolynomialityViolation on a remainder; a
    constant p has degree 0 and comes back equal.
    """
    if not p.is_homogeneous():
        raise ValueError("shared-denominator substitution needs a homogeneous input")
    missing = [v for v in p.variables if v not in numerators]
    if missing:
        raise ValueError(f"no numerator given for {missing}")
    return p.substitute(numerators) / den ** p.total_degree()
