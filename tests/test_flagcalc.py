"""Pushforwards along the flag bundle and incidence classes."""

from fractions import Fraction

import pytest

from rootstrata import crs as crs_module
from rootstrata import flagcalc as flagcalc_module
from rootstrata import multipoly as multipoly_module
from rootstrata.crs import crs_class, crs_class_peeled
from rootstrata.dpoly import D
from rootstrata.errors import InvalidPartition
from rootstrata.flagcalc import (FlagClass, GrassClass, ProjClass, _resolution_peel,
                                 flex_point_locus_class, incidence_class,
                                 p_push, q_push, tangency_class_resolution)
from rootstrata.multipoly import MultiPoly
from rootstrata.plucker import plucker_table
from rootstrata.schur import SchurExpansion
from rootstrata.universal import pencil_locus_class, universal_incidence_class
from strata_sweep import strata

ZETA = MultiPoly.variable("zeta")
ETA = MultiPoly.variable("eta")


def test_p_push_segre_anchors():
    """p pushes zeta^a to the complete symmetric class of degree a-1."""
    for a in range(1, 7):
        got = p_push(FlagClass(ZETA ** a))
        wanted = SchurExpansion({(a - 1, 0): Fraction(1)})
        assert got.expansion == wanted, a
    # and the sign anchor: degree-one fibers push to the unit
    assert p_push(FlagClass(ZETA)).expansion == SchurExpansion(
        {(0, 0): Fraction(1)})


def test_p_push_kills_low_degrees():
    got = p_push(FlagClass(MultiPoly.scalar(Fraction(3))))
    assert got.expansion == SchurExpansion({})


def test_q_push_rules():
    for n in (4, 5):
        unit = q_push(FlagClass(ETA ** (n - 2), n))
        assert str(unit.poly) == "1"
        minus = q_push(FlagClass(ETA ** (n - 1), n))
        assert str(minus.poly) == "-zeta"
        low = q_push(FlagClass(ETA ** (n - 3), n))
        assert not low.poly.terms


def test_q_push_linearity_and_cutoff():
    n = 4
    f = FlagClass(ETA ** 2 * (D ** 2) + ETA ** 3 * 5, n)
    got = q_push(f)
    assert got.poly == MultiPoly.scalar(1) * (D ** 2) - ZETA * 5
    # zeta powers at or above n vanish in projective space
    high = q_push(FlagClass(ETA ** 2 * ZETA ** n, n))
    assert not high.poly.terms
    kept = q_push(FlagClass(ETA ** 2 * ZETA ** (n - 1), n))
    assert kept.poly == ZETA ** (n - 1)


def test_q_push_needs_ambient_dimension():
    with pytest.raises(ValueError):
        q_push(FlagClass(ETA ** 2))


def test_q_push_rejects_leftover_xi():
    xi = MultiPoly.variable("xi")
    with pytest.raises(ValueError):
        q_push(FlagClass(ETA ** 2 * xi, 4))


def test_proj_class_truncates():
    cut = ProjClass(ZETA ** 3 + ZETA, 3)
    assert cut.poly == ZETA
    assert cut.coefficient(1) == MultiPoly.scalar(1)


def test_proj_class_rejects_other_variables():
    with pytest.raises(ValueError):
        ProjClass(ETA, 3)


def test_grass_class_truncates_past_ambient():
    e = SchurExpansion({(3, 1): Fraction(1), (2, 2): Fraction(1)})
    cut = GrassClass(e, 4)
    assert cut.expansion == SchurExpansion({(2, 2): Fraction(1)})


def test_incidence_class_golden():
    inc = incidence_class((2, 2), 2)
    assert str(inc.poly) == (
        "(d^4 - 6*d^3 + 11*d^2 - 6*d)*zeta^3"
        " + (d^4 - d^3 - 10*d^2 + 12*d)*zeta^2*eta"
        " + (d^3 - d^2 - 6*d)*zeta*eta^2")
    assert str(inc.in_zeta_sigma()) == (
        "(-4*d^3 + 20*d^2 - 24*d)*zeta^3"
        " + (d^4 - 3*d^3 - 8*d^2 + 24*d)*zeta^2*sigma1"
        " + (d^3 - d^2 - 6*d)*zeta*sigma1^2")


def test_incidence_needs_a_matching_part():
    with pytest.raises((InvalidPartition, ValueError)):
        incidence_class((2, 2), 3)


def test_every_peel_refuses_a_missing_part():
    peels = [lambda: crs_class_peeled((2, 2), 3), lambda: incidence_class((2, 2), 3),
             lambda: tangency_class_resolution((2, 2), 4, peel=3)]
    for peel in peels:
        with pytest.raises(InvalidPartition, match=r"^3 is not a part of \(2,2\)$"):
            peel()


def test_half_p_push_recovers_the_stratum_class():
    inc = incidence_class((2, 2), 2)
    pushed = p_push(FlagClass(inc.poly))
    assert pushed.expansion * Fraction(1, 2) == crs_class((2, 2)).expansion


def test_tangency_matches_truncated_stratum_class():
    """Resolution route equals the recursion after ambient truncation."""
    for lam in strata(8):
        cls = crs_class(lam)
        for n in sorted({3, 4, 5, lam.codim + 2}):
            got = tangency_class_resolution(lam, n)
            assert got.expansion == cls.expansion.truncate(n - 2), (lam, n)


def test_tangency_peel_choice_does_not_matter():
    for lam in strata(8):
        if len(set(lam.parts)) < 2:
            continue
        n = lam.codim + 2
        results = {m: tangency_class_resolution(lam, n, peel=m)
                   for m in set(lam.parts)}
        baseline = tangency_class_resolution(lam, n)
        for m, got in results.items():
            assert got.expansion == baseline.expansion, (lam, m)


def test_resolution_route_reads_no_packed_level(monkeypatch):
    """A packed-kernel fault below the top level shows against the resolution route."""
    twist = crs_module._twist

    def doubled_at_codim_1(basis, m):
        row, bits = twist(basis, m)
        return ([2 * v for v in row] if len(basis[0]) == 2 else row), bits

    lam = (2, 2, 2)
    want = crs_class(lam).expansion
    want_incidence = incidence_class(lam, 2)
    crs_module._crs_cached.cache_clear()
    monkeypatch.setattr(crs_module, "_twist", doubled_at_codim_1)
    try:
        broken = crs_class(lam).expansion
        broken_incidence = incidence_class(lam, 2)
        resolved = tangency_class_resolution(lam, 6).expansion
    finally:
        monkeypatch.undo()
        crs_module._crs_cached.cache_clear()
    assert broken != want
    assert broken_incidence != want_incidence
    assert resolved == want


def test_incidence_class_is_the_resolution_peel():
    """The packed level read on the flag roots equals the resolution route's level."""
    pairs = [(lam, m) for lam in strata(14) for m in sorted(set(lam.parts))]
    assert len(pairs) == 272
    for lam, m in pairs:
        want = _resolution_peel(crs_class(lam.remove_one(m)).expansion, m)
        assert incidence_class(lam, m).poly == want, (lam, m)


def test_resolution_route_runs_no_multipoly_substitution_or_product(monkeypatch):
    """The route twists on rows of DPolys: no substitution and no MultiPoly product."""
    lams = strata(8)
    want = [crs_class(lam).expansion for lam in lams]

    def used(*args, **kwargs):
        raise AssertionError("MultiPoly layer used")

    for module in (multipoly_module, crs_module, flagcalc_module):
        monkeypatch.setattr(module, "substitute_homogeneous", used)
    for name in ("substitute", "__mul__"):
        monkeypatch.setattr(MultiPoly, name, used)
    for lam, wanted in zip(lams, want):
        assert tangency_class_resolution(lam, lam.codim + 2).expansion == wanted, lam


def test_flex_point_loci_golden():
    got = flex_point_locus_class((3, 2), 3, 4)
    assert got.coefficient(2) == D * (D - 4) * (3 * D ** 2 + 5 * D - 24)
    got = flex_point_locus_class((3, 2), 2, 4)
    assert got.coefficient(2) == D * (D - 2) * (D - 4) * (D ** 2 + 2 * D + 12)


def test_plucker_flex_count():
    """Flexes of a plane curve of degree d.

    Pluecker, Theorie der algebraischen Curven (1839): a smooth plane curve
    of degree d has 3d(d - 2) flexes.
    """
    assert flex_point_locus_class((3,), 3, 3).coefficient(2) == 3 * D * (D - 2)


def test_plucker_bitangent_contact_points():
    """Contact points of the bitangents of a plane curve of degree d.

    Pluecker, Theorie der algebraischen Curven (1839): a smooth plane curve
    of degree d has d(d - 2)(d - 3)(d + 3)/2 bitangents; each touches at two
    points.
    """
    got = flex_point_locus_class((2, 2), 2, 3).coefficient(2)
    assert got == D * (D - 2) * (D - 3) * (D + 3)


def test_salmon_flecnodal_curve_degree():
    """The flecnodal curve of a surface of degree d in P^3.

    Salmon, A Treatise on the Analytic Geometry of Three Dimensions: the
    points with a line of four-point contact lie on the intersection of the
    surface with a surface of degree 11d - 24, a curve of degree d(11d - 24).
    """
    assert flex_point_locus_class((4,), 4, 4).coefficient(2) == D * (11 * D - 24)


def point_pushforward_checks(lam):
    """(what, got, want) for each check of q_push on the loci of lam.

    A second route to q_push: by the projection formula the zeta^j
    coefficient of q_*(I) over P^(n-1) is the integral of I*zeta^(n-1-j) over
    the space of lines, the s_{n-2,n-2} coefficient of p_*(I*zeta^(n-1-j)).
    A locus of codimension n - 1 is a finite set of points, lam.multiplicity(m)
    on each line the Pluecker number Pl_{lam;0} counts.  what starts with
    "points" for such a count.
    """
    for m in sorted(set(lam.parts)):
        flex = incidence_class(lam, m).poly
        # the polynomial does not depend on the ambient n
        pencil = universal_incidence_class(lam, m, 3).poly.coefficient("xi", 1)
        for n in range(3, lam.codim + 4):
            for push, inc in ((flex_point_locus_class, flex), (pencil_locus_class, pencil)):
                locus = push(lam, m, n)
                for j in range(n):
                    lines = p_push(FlagClass(inc * ZETA ** (n - 1 - j), n))
                    yield (f"zeta^{j} of {push.__name__} at m={m}, n={n}",
                           locus.coefficient(j), lines.expansion.coefficient(n - 2, n - 2))
            if lam.codim == 2 * (n - 2):
                yield (f"points of flex_point_locus_class at m={m}, n={n}",
                       flex_point_locus_class(lam, m, n).coefficient(n - 1),
                       lam.multiplicity(m) * plucker_table(lam).polynomial(0))


def test_point_pushforward_matches_the_line_pushforward():
    checked = points = 0
    for lam in strata(8):
        for what, got, want in point_pushforward_checks(lam):
            assert got == want, (lam, what)
            if what.startswith("points"):
                points += 1
            else:
                checked += 1
    assert (checked, points) == (1758, 15)


def test_flex_point_locus_single_tangency_is_the_curve():
    got = flex_point_locus_class((2,), 2, 3)
    assert str(got.poly) == "(d)*zeta"
