"""Stratum classes over the moduli of curves on a varying hypersurface.

Replacing the fixed form space by the tautological family over projective
space shifts both Chern roots by xi/d, where xi is the hyperplane class
of the moduli; the shifted classes stay polynomial in d.  _xi_slices is
that one shift, on the roots (a, b) and on the flag roots (eta, zeta).
"""

from __future__ import annotations

from .crs import crs_class
from .dpoly import D, DPoly
from .flagcalc import FlagClass, incidence_class, q_push
# substitute_homogeneous is unused here; tracers patch every module's binding of it.
from .multipoly import MultiPoly, _build, _ordered, _widen, substitute_homogeneous
from .partitions import validate_stratum
from .schur import schur_expand


def _xi_slices(poly, x, y):
    """The xi^t coefficients of poly with x and y sent to x + xi/d and y + xi/d.

    Slice t is (d/dx + d/dy) of slice t - 1, over t and then over d; the
    division by the monic D is exact or raises PolynomialityViolation.
    """
    t = 0
    while poly:
        yield poly
        t += 1
        poly = _build(poly.variables, [
            (e[:i] + (e[i] - 1,) + e[i + 1:], c * e[i]) for e, c in poly.terms.items()
            for i, v in enumerate(poly.variables) if e[i] and v in (x, y)]) / t / D


def _shift_roots(poly, x, y):
    """Send the roots x and y of a class to x + xi/d and y + xi/d."""
    merged = _ordered(poly.variables + ("xi",))
    k = merged.index("xi")
    return _build(merged, ((e[:k] + (t,) + e[k + 1:], c) for t, s in enumerate(
        _xi_slices(poly, x, y)) for e, c in _widen(s, merged)[1]))


class UniversalClass:
    """Stratum class with the moduli direction xi kept as a variable."""

    __slots__ = ("partition", "poly")

    def __init__(self, partition, poly):
        extra = [v for v in poly.variables if v not in ("a", "b", "xi")]
        if extra:
            raise ValueError(f"universal classes use a, b, xi; got {extra}")
        self.partition = partition
        self.poly = poly

    def xi_slice(self, t):
        """Schur expansion of the xi^t coefficient."""
        return schur_expand(self.poly.coefficient("xi", t))

    def __eq__(self, other):
        if not isinstance(other, UniversalClass):
            return NotImplemented
        return self.partition == other.partition and self.poly == other.poly

    def __str__(self):
        return str(self.poly)

    def __repr__(self):
        return f"UniversalClass({self.partition}: {self.poly})"


def universal_class(lam):
    """Stratum class of the family twisted by the moduli hyperplane class."""
    lam = validate_stratum(lam)
    return UniversalClass(lam, _shift_roots(crs_class(lam).to_roots(), "a", "b"))


def hilbert_degree(lam):
    """Degree of the stratum as a projective subvariety of the form space.

    The top xi slice: the class at a = b = 1, where s_{k,l} is k - l + 1, over D**codim.
    """
    lam = validate_stratum(lam)
    at_one = sum((c * (k - l + 1) for (k, l), c in crs_class(lam).expansion.items()),
                 DPoly())
    return at_one / D ** lam.codim


def universal_incidence_class(lam, m, n):
    """Incidence class of (point, curve in a moving hypersurface) pairs."""
    return FlagClass(_shift_roots(incidence_class(lam, m).poly, "eta", "zeta"), n)


def pencil_locus_class(lam, m, n):
    """Points whose m-fold tangent curves inside a pencil sweep the space.

    Push forward the xi-linear slice of the universal incidence class
    along the point map.
    """
    slices = _xi_slices(incidence_class(lam, m).poly, "eta", "zeta")
    next(slices, None)
    return q_push(FlagClass(next(slices, MultiPoly()), n))
