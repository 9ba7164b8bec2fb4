"""Stratum classes over the moduli of curves on a varying hypersurface.

Replacing the fixed form space by the tautological family over projective
space shifts both Chern roots by xi/d, where xi is the hyperplane class
of the moduli; the shifted classes stay polynomial in d.  _xi_slices is
that one shift, on the rows of a class in two roots: the roots (a, b) of
a stratum class, and the flag roots (zeta, eta) of crs's level rows.
"""

from __future__ import annotations

from itertools import accumulate, islice

from .crs import _level_rows, crs_class
from .dpoly import D, DPoly, _Result
from .flagcalc import FlagClass, q_push
# substitute_homogeneous is unused here; tracers patch every module's binding of it.
from .multipoly import _build, substitute_homogeneous
from .partitions import validate_stratum
from .schur import schur_expand


def _xi_slices(rows):
    """The xi^t coefficients of a class with both roots sent to x + xi/d and y + xi/d.

    rows[i] is the coefficient of x^(N - i) y^i in a class homogeneous of
    degree N.  Slice t is (d/dx + d/dy) of slice t - 1, over t and then over
    d: row i of a slice of degree n - 1 is (n - i) row_i + (i + 1) row_(i+1)
    of the slice before it.  The division by the monic D is exact or raises
    PolynomialityViolation.
    """
    t = 0
    while rows:
        yield rows
        t += 1
        n = len(rows) - 1
        rows = [((n - i) * rows[i] + (i + 1) * rows[i + 1]) / t / D for i in range(n)]


def _shift_roots(rows, x, y):
    """The class with rows[i] at x^(N - i) y^i, x and y sent to x + xi/d and y + xi/d.

    x, y and xi must come in multipoly.VAR_ORDER, the order _build keeps.
    """
    return _build((x, y, "xi"), [((len(s) - 1 - i, i, t), c) for t, s in
                                 enumerate(_xi_slices(rows)) for i, c in enumerate(s)])


class UniversalClass(_Result):
    """Stratum class with the moduli direction xi kept as a variable."""

    __slots__ = ("partition", "poly")
    _FIELDS = ("partition", "poly")

    def __init__(self, partition, poly):
        extra = [v for v in poly.variables if v not in ("a", "b", "xi")]
        if extra:
            raise ValueError(f"universal classes use a, b, xi; got {extra}")
        self.partition = partition
        self.poly = poly

    def xi_slice(self, t):
        """Schur expansion of the xi^t coefficient."""
        return schur_expand(self.poly.coefficient("xi", t))

    def __str__(self):
        return str(self.poly)

    def __repr__(self):
        return f"UniversalClass({self.partition}: {self.poly})"


def universal_class(lam):
    """Stratum class of the family twisted by the moduli hyperplane class.

    Row i of the class, at a^(n - i) b^i with n its codim, sums c_{n-l,l}
    over l <= min(i, n - i).
    """
    lam = validate_stratum(lam)
    cls, n = crs_class(lam), lam.codim
    half = list(accumulate(cls.coefficient(n - l, l) for l in range(n // 2 + 1)))
    return UniversalClass(lam, _shift_roots([half[min(i, n - i)] for i in range(n + 1)], "a", "b"))


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
    return FlagClass(_shift_roots(_level_rows(lam, m), "zeta", "eta"), n)


def pencil_locus_class(lam, m, n):
    """Points whose m-fold tangent curves inside a pencil sweep the space.

    Push forward the xi-linear slice of the universal incidence class
    along the point map.
    """
    _, linear = islice(_xi_slices(_level_rows(lam, m)), 2)
    flag = _build(("zeta", "eta"), [((len(linear) - 1 - i, i), c) for i, c in enumerate(linear)])
    return q_push(FlagClass(flag, n))
