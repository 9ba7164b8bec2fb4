"""Classes twisted by the hyperplane class of a moving hypersurface."""

from fractions import Fraction
from math import factorial, prod

import pytest

from rootstrata.crs import crs_class
from rootstrata.dpoly import D, DPoly
from rootstrata.errors import InvalidPartition, PolynomialityViolation
from rootstrata.flagcalc import FlagClass, incidence_class, q_push
from rootstrata.multipoly import MultiPoly, substitute_homogeneous
from rootstrata.partitions import Partition
from rootstrata.schur import schur_expand
from rootstrata.universal import (_xi_slices, hilbert_degree, pencil_locus_class,
                                  universal_class, universal_incidence_class)
from strata_sweep import strata


def hilbert_formula(lam):
    """Hilbert's degree of the stratum in the space of degree-d forms.

    D. Hilbert, Ueber die Singularitaeten der Diskriminantenflaeche, Math.
    Ann. 30 (1887): pad lam with d - w ones; the locus has degree
    (prod lam_i / prod e_v!) (d - w + 1)(d - w + 2)...(d - w + k), where
    k = len(lam) and the e_v are the multiplicities of the parts.
    """
    parts, w = lam.parts, lam.weight
    top = Fraction(prod(parts), prod(factorial(parts.count(v)) for v in set(parts)))
    return top * prod(D - w + i for i in range(1, len(parts) + 1))


def _shift_by_substitution(poly, x, y):
    """Reference shift: x, y -> (x*d + xi) / d, (y*d + xi) / d over one d^codim."""
    xi = MultiPoly.variable("xi")
    return substitute_homogeneous(
        poly, {x: MultiPoly.variable(x) * D + xi, y: MultiPoly.variable(y) * D + xi}, D)


def test_universal_golden_small():
    u = universal_class((2,))
    assert str(u.poly) == "(d^2 - d)*a + (d^2 - d)*b + (2*d - 2)*xi"
    u3 = universal_class((3,))
    assert u3.xi_slice(2).coefficient(0, 0) == 3 * D - 6
    assert u3.xi_slice(1).coefficient(1, 0) == 3 * D * (D - 2)


def test_universal_restricts_to_stratum_class():
    """Setting xi to zero recovers the plain equivariant class."""
    for lam in strata(10):
        u = universal_class(lam)
        assert u.xi_slice(0) == crs_class(lam).expansion, lam


def test_universal_slices_have_expected_degrees():
    for lam in strata(8):
        u = universal_class(lam)
        codim = lam.codim
        for t in range(codim + 1):
            s = u.xi_slice(t)
            for (k, l), c in s.items():
                assert k + l == codim - t
                dp = c if isinstance(c, DPoly) else DPoly((c,))
                assert dp.degree <= lam.weight - t


def test_universal_class_matches_the_substitution():
    for lam in strata(12):
        wanted = _shift_by_substitution(crs_class(lam).to_roots(), "a", "b")
        assert universal_class(lam).poly == wanted, lam


def test_the_xi_shift_runs_no_dpoly_arithmetic(monkeypatch):
    """With the classes and levels computed once, the shift gives the same
    classes on integer rows alone: every DPoly operation raises."""
    cases = [(lam, m) for lam in strata(8) for m in sorted(set(lam.parts))]

    def classes():
        return ([universal_class(lam) for lam in strata(8)],
                [universal_incidence_class(lam, m, lam.codim + 2) for lam, m in cases])

    def used(*args, **kwargs):
        raise AssertionError("DPoly arithmetic")

    want = classes()
    for name in ("__add__", "__mul__", "__sub__", "__truediv__", "divmod"):
        monkeypatch.setattr(DPoly, name, used)
    got = classes()
    monkeypatch.undo()
    assert got == want


def test_the_xi_shift_refuses_a_slice_d_does_not_divide():
    """The class x over one: its xi^1 slice is the constant 1, which d does not divide."""
    with pytest.raises(PolynomialityViolation):
        list(_xi_slices([[1], []], 1))


def test_hilbert_degree_is_the_class_at_one_over_d_to_the_codim():
    """hilbert_degree reads the class at a = b = 1 over d^codim; that is the
    top xi slice of the universal class, which builds every slice."""
    for lam in strata(14):
        assert universal_class(lam).poly.coefficient("xi", lam.codim) == hilbert_degree(lam), lam


def test_hilbert_degrees():
    assert hilbert_degree((2,)) == 2 * (D - 1)
    assert hilbert_degree((3,)) == 3 * (D - 2)
    assert hilbert_degree((4,)) == 4 * (D - 3)
    # the degree-3 specialization is the twisted cubic in P^3
    assert hilbert_degree((3,))(3) == 3
    # discriminant hypersurface degree for plane conics
    assert hilbert_degree((2,))(2) == 2


@pytest.mark.parametrize("parts", [(10,) * 10, (50, 50), (7,) * 14 + (2,)])
def test_hilbert_formula_at_the_weight_bound(parts):
    lam = Partition(parts)
    assert hilbert_degree(lam) == hilbert_formula(lam)


def test_universal_incidence_restricts_to_incidence():
    for lam in strata(8):
        for m in sorted(set(lam.parts)):
            u = universal_incidence_class(lam, m, lam.codim + 2)
            inc = incidence_class(lam, m)
            assert u.poly.coefficient("xi", 0) == inc.poly, (lam, m)


def test_universal_incidence_matches_the_substitution():
    for lam in strata(10):
        for m in sorted(set(lam.parts)):
            got = universal_incidence_class(lam, m, lam.codim + 2).poly
            wanted = _shift_by_substitution(incidence_class(lam, m).poly, "eta", "zeta")
            assert got == wanted, (lam, m)


def _xi_peel(lam, m):
    """Universal incidence class peeled with xi inside the twist.

    The smaller class has d shifted to d - m and its roots sent to
    (eta*d + xi) / (d - m) and (zeta*(d - m) + eta*m + xi) / (d - m), times
    the product of (i*eta + (d - i)*zeta + xi) for i = 0 .. m-1.
    """
    eta, zeta, xi = (MultiPoly.variable(v) for v in ("eta", "zeta", "xi"))
    prev = crs_class(lam.remove_one(m)).to_roots()
    shifted = MultiPoly(prev.variables,
                        {e: c.compose(D - m) for e, c in prev.terms.items()})
    out = substitute_homogeneous(
        shifted, {"a": eta * D + xi, "b": zeta * (D - m) + eta * m + xi}, D - m)
    for i in range(m):
        out = out * (eta * i + zeta * (D - i) + xi)
    return out


def test_universal_incidence_is_the_xi_peel():
    """Shifting the incidence class by xi/d equals peeling with xi in the roots."""
    for lam in strata(10):
        for m in sorted(set(lam.parts)):
            got = universal_incidence_class(lam, m, lam.codim + 2)
            assert got.poly == _xi_peel(lam, m), (lam, m)


def test_pencil_golden():
    got = pencil_locus_class((2, 2), 2, 3)
    wanted = (D - 3) * (2 * D ** 2 + 5 * D - 6)
    assert got.coefficient(1) == wanted
    assert wanted(4) == 46
    assert wanted(5) == 138


def test_pencil_locus_is_the_xi_linear_slice():
    """The pencil locus pushes forward the xi^1 slice of the shifted incidence class."""
    for lam in strata(10):
        for m in sorted(set(lam.parts)):
            n = lam.codim + 2
            shifted = _shift_by_substitution(incidence_class(lam, m).poly, "eta", "zeta")
            linear = shifted.coefficient("xi", 1)
            assert pencil_locus_class(lam, m, n) == q_push(FlagClass(linear, n)), (lam, m)


def test_pencil_single_tangency_is_the_whole_plane():
    got = pencil_locus_class((2,), 2, 3)
    assert got.poly == MultiPoly.scalar(Fraction(1))


def test_universal_rejects_bad_strata():
    with pytest.raises(InvalidPartition):
        universal_class((2, 1))
