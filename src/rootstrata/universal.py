"""Stratum classes over the moduli of curves on a varying hypersurface.

Replacing the fixed form space by the tautological family over projective
space shifts both Chern roots by xi/d, where xi is the hyperplane class
of the moduli; the shifted classes stay polynomial in d.  _xi_slices is
that one shift, on the rows of a class in two roots: the roots (a, b) of
a stratum class, and the flag roots (zeta, eta) of crs's level rows.
"""

from __future__ import annotations

from itertools import islice, zip_longest

from .crs import _class_rows, _level_rows, crs_class
from .dpoly import D, DPoly, _canonical, _Result
from .errors import PolynomialityViolation
from .flagcalc import FlagClass, q_push
# substitute_homogeneous is unused here; tracers patch every module's binding of it.
from .multipoly import _build, substitute_homogeneous
from .partitions import validate_stratum
from .schur import schur_expand


def _xi_slices(rows, den):
    """The xi^t coefficients of a class with both roots sent to x + xi/d and y + xi/d.

    rows[i] lists the integer numerators, over den, of the coefficient of
    x^(N - i) y^i in a class homogeneous of degree N; each slice comes as
    its rows of DPolys.  Slice t is (d/dx + d/dy) of slice t - 1, over t and
    then over d: row i of a slice of degree n - 1 is (n - i) row_i +
    (i + 1) row_(i+1) of the slice before it.  Over t is den times t; over d
    drops every row's constant numerator, which must be zero or
    PolynomialityViolation is raised.
    """
    t = 0
    while rows:
        yield [_canonical(nums, den) for nums in rows]
        n, t = len(rows) - 1, t + 1
        rows = [[(n - i) * x + (i + 1) * y
                 for x, y in zip_longest(rows[i], rows[i + 1], fillvalue=0)] for i in range(n)]
        if any(nums and nums[0] for nums in rows):
            raise PolynomialityViolation(f"inexact division by d in the xi^{t} slice")
        rows, den = [nums[1:] for nums in rows], den * t


def _shift_roots(rows, den, x, y):
    """The class with rows[i] / den at x^(N - i) y^i, x and y sent to x + xi/d and y + xi/d.

    x, y and xi must come in multipoly.VAR_ORDER, the order _build keeps.
    """
    return _build((x, y, "xi"), [((len(s) - 1 - i, i, t), c) for t, s in
                                 enumerate(_xi_slices(rows, den)) for i, c in enumerate(s)])


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

    The xi shift of the class's rows; rows i and n - i are equal, so either
    order of a and b places them.
    """
    lam = validate_stratum(lam)
    return UniversalClass(lam, _shift_roots(*_class_rows(crs_class(lam)), "a", "b"))


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
    return FlagClass(_shift_roots(*_level_rows(lam, m), "zeta", "eta"), n)


def pencil_locus_class(lam, m, n):
    """Points whose m-fold tangent curves inside a pencil sweep the space.

    Push forward the xi-linear slice of the universal incidence class
    along the point map.
    """
    _, linear = islice(_xi_slices(*_level_rows(lam, m)), 2)
    flag = _build(("zeta", "eta"), [((len(linear) - 1 - i, i), c) for i, c in enumerate(linear)])
    return q_push(FlagClass(flag, n))
