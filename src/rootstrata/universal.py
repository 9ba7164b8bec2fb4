"""Stratum classes over the moduli of curves on a varying hypersurface.

Replacing the fixed form space by the tautological family over projective
space shifts both Chern roots by xi/d, where xi is the hyperplane class
of the moduli; the shifted classes stay polynomial in d.
"""

from __future__ import annotations

from .crs import as_partition, crs_class, _peel
from .dpoly import D, DPoly
from .flagcalc import FlagClass, q_push
from .multipoly import MultiPoly, substitute_homogeneous
from .partitions import validate_stratum
from .schur import schur_expand

_A = MultiPoly.variable("a")
_B = MultiPoly.variable("b")
_XI = MultiPoly.variable("xi")
_ZETA = MultiPoly.variable("zeta")
_ETA = MultiPoly.variable("eta")


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
    lam = validate_stratum(as_partition(lam))
    base = crs_class(lam).to_roots()
    poly = substitute_homogeneous(base, {"a": _A * D + _XI, "b": _B * D + _XI}, D)
    return UniversalClass(lam, poly)


def hilbert_degree(lam):
    """Degree of the stratum as a projective subvariety of the form space."""
    lam = validate_stratum(as_partition(lam))
    u = universal_class(lam)
    top = u.poly.coefficient("xi", lam.codim)
    return next(iter(top.terms.values()), DPoly())


def universal_incidence_class(lam, m, n):
    """Incidence class of (point, curve in a moving hypersurface) pairs."""
    lam = validate_stratum(as_partition(lam))
    return FlagClass(_peel(lam, m, _ETA, _ZETA, _XI), n)


def pencil_locus_class(lam, m, n):
    """Points whose m-fold tangent curves inside a pencil sweep the space.

    Push forward the xi-linear piece of the universal incidence class
    along the point map.
    """
    u = universal_incidence_class(lam, m, n)
    linear = u.poly.coefficient("xi", 1)
    return q_push(FlagClass(linear, n))
