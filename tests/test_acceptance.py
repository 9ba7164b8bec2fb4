"""Acceptance gate: twelve criteria, one printed verdict line each.

Each test prints `acceptance NN <name>: PASS|FAIL` with capture suspended
so the verdicts stay visible in the pytest output, then asserts.
"""

import time
from fractions import Fraction

import rootstrata.crs as crs_mod
from rootstrata.crs import crs_class, crs_class_at, leading_term
from rootstrata.dpoly import D, DPoly, interpolate
from rootstrata.flagcalc import (FlagClass, flex_point_locus_class,
                                 incidence_class, p_push,
                                 tangency_class_resolution)
from rootstrata.plucker import (asymptotic_plucker, degree_table,
                                hyperflex_count, lines_on_hypersurface,
                                mflex_polynomial, plucker_point,
                                plucker_table)
from rootstrata.schur import SchurExpansion
from rootstrata.multipoly import MultiPoly
from rootstrata.universal import pencil_locus_class, universal_class
from strata_sweep import strata

A = MultiPoly.variable("a")
B = MultiPoly.variable("b")
XI = MultiPoly.variable("xi")


def report(capsys, num, name, ok, extra=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"acceptance {num:02d} {name}: {verdict}"
    if extra:
        line += f"  [{extra}]"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_golden_classes(capsys):
    ok = crs_class((2,)).expansion == SchurExpansion(
        {(1, 0): D * (D - 1)})
    ok = ok and crs_class((3,)).expansion == SchurExpansion(
        {(2, 0): D * (D - 1) * (D - 2), (1, 1): 3 * D * (D - 2)})
    ok = ok and crs_class((2, 2)).expansion == SchurExpansion(
        {(2, 0): D * (D - 1) * (D - 2) * (D - 3) / 2,
         (1, 1): D * (D - 2) * (D - 3) * (D + 3) / 2})
    report(capsys, 1, "golden stratum classes", ok)


def test_criterion_02_golden_plucker_polynomials(capsys):
    ok = plucker_table((2,)).polynomial(1) == D * (D - 1)
    ok = ok and plucker_table((4,)).polynomial(1) == \
        2 * D * (3 * D - 2) * (D - 3)
    ok = ok and plucker_table((4,)).polynomial(3) == \
        D * (D - 1) * (D - 2) * (D - 3)
    ok = ok and plucker_table((2, 2, 2, 2)).polynomial(0) == \
        (D * (D - 7) * (D - 6) * (D - 5) * (D - 4)
         * (D ** 3 + 6 * D ** 2 + 7 * D - 30)) / 12
    report(capsys, 2, "golden tangent-line polynomials", ok)


def test_criterion_03_hyperflex_integers(capsys):
    wanted = [9, 575, 99715, 33899229, 19134579541, 16213602794675,
              19275975908850375]
    t0 = time.perf_counter()
    got = [hyperflex_count(n) for n in range(3, 10)]
    elapsed = time.perf_counter() - t0
    ok = got == wanted and elapsed < 5
    report(capsys, 3, "hyperflex counts n=3..9", ok, f"{elapsed:.2f}s")


def test_criterion_04_lines_on_hypersurfaces(capsys):
    ok = lines_on_hypersurface(3) == 27
    ok = ok and lines_on_hypersurface(4) == 2875
    for n in range(3, 10):
        ok = ok and lines_on_hypersurface(n) == \
            (2 * n - 3) * hyperflex_count(n)
    report(capsys, 4, "line counts vs hyperflex counts", ok,
           "independent Euler-class route")


def test_criterion_05_triple_route_equivalence(capsys):
    t0 = time.perf_counter()
    crs_mod._crs_cached.cache_clear()
    lams = strata(9)
    ok = len(lams) == 30
    for lam in lams:
        symbolic = crs_class(lam).expansion
        # per-integer recursion plus interpolation
        points = range(lam.weight, 2 * lam.weight + 2)
        per_d = {d0: crs_class_at(lam, d0) for d0 in points}
        for kl in symbolic.indices():
            samples = [(d0, per_d[d0].coefficient(*kl)) for d0 in points]
            if interpolate(samples, lam.weight) != symbolic.coefficient(*kl):
                ok = False
        # classical resolution route with just-large-enough ambient space
        resolved = tangency_class_resolution(lam, lam.codim + 2).expansion
        if resolved != symbolic:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    report(capsys, 5, "triple-route equivalence on 30 strata", ok,
           f"{elapsed:.1f}s")


def test_criterion_06_leading_terms(capsys):
    ok = True
    for lam in strata(10):
        if crs_class(lam).leading_slice() != leading_term(lam):
            ok = False
        if lam:
            falling = DPoly((1,))
            for i in range(lam.weight):
                falling = falling * (D - i)
            point = falling / lam.multiplicity_factorial()
            if plucker_point(lam) != point:
                ok = False
    report(capsys, 6, "leading terms and point conditions", ok)


def test_criterion_07_degree_table(capsys):
    ok = list(degree_table((10, 2, 2))) == [
        (11, 14), (9, 14), (7, 14), (5, 13), (3, 12), (1, 11)]
    for lam in strata(12):
        table = plucker_table(lam)
        for i, expected in degree_table(lam):
            if table.polynomial(i).degree != expected:
                ok = False
    report(capsys, 7, "degree-drop predictions up to weight 12", ok)


def test_criterion_08_asymptotics(capsys):
    ok = True
    for lam in strata(10):
        table = plucker_table(lam)
        w = lam.weight
        vanished = False
        for i, value in asymptotic_plucker(lam):
            p = table.polynomial(i)
            top = p.coeffs[w] if p.degree == w else Fraction(0)
            if value != top:
                ok = False
            vanished = vanished or value == 0
        if lam:
            threshold = Fraction(lam.codim, 2) + 2
            if vanished != (lam.largest >= threshold):
                ok = False
    ok = ok and dict(asymptotic_plucker((2, 2, 2, 2)))[0] == Fraction(1, 12)
    ok = ok and dict(asymptotic_plucker((3, 3)))[2] == Fraction(1, 2)
    ok = ok and dict(asymptotic_plucker((3, 3, 3)))[0] == Fraction(1, 6)
    report(capsys, 8, "asymptotic coefficients up to weight 10", ok)


def test_criterion_09_pushforward_examples(capsys):
    inc = incidence_class((2, 2), 2)
    ok = str(inc.poly) == (
        "(d^4 - 6*d^3 + 11*d^2 - 6*d)*zeta^3"
        " + (d^4 - d^3 - 10*d^2 + 12*d)*zeta^2*eta"
        " + (d^3 - d^2 - 6*d)*zeta*eta^2")
    half_push = p_push(FlagClass(inc.poly)).expansion * Fraction(1, 2)
    ok = ok and half_push == crs_class((2, 2)).expansion
    flex3 = flex_point_locus_class((3, 2), 3, 4)
    ok = ok and flex3.coefficient(2) == D * (D - 4) * (3 * D ** 2 + 5 * D - 24)
    flex2 = flex_point_locus_class((3, 2), 2, 4)
    ok = ok and flex2.coefficient(2) == D * (D - 2) * (D - 4) * (D ** 2 + 2 * D + 12)
    report(capsys, 9, "incidence and tangency-point pushforwards", ok)


def test_criterion_10_universal_classes(capsys):
    u2 = universal_class((2,)).poly
    ok = u2 == (A + B) * (D * (D - 1)) + XI * (2 * (D - 1))
    u3 = universal_class((3,)).poly
    wanted3 = ((A ** 2 + B ** 2) * (D * (D - 1) * (D - 2))
               + A * B * (D * (D - 2) * (D + 2))
               + (A + B) * XI * (3 * D * (D - 2))
               + XI ** 2 * (3 * (D - 2)))
    ok = ok and u3 == wanted3
    pencil = pencil_locus_class((2, 2), 2, 3)
    wanted = (D - 3) * (2 * D ** 2 + 5 * D - 6)
    ok = ok and pencil.coefficient(1) == wanted
    ok = ok and wanted(4) == 46 and wanted(5) == 138
    report(capsys, 10, "universal and pencil classes", ok,
           "pencil degree at d=5 is 138; the quoted 46 is the d=4 value")


def test_criterion_11_performance(capsys):
    crs_mod._crs_cached.cache_clear()
    t0 = time.perf_counter()
    for lam in strata(12):
        plucker_table(lam)
    tables = time.perf_counter() - t0
    crs_mod._crs_cached.cache_clear()
    t0 = time.perf_counter()
    plucker_table((2,) * 10)
    stretch = time.perf_counter() - t0
    ok = tables < 60 and stretch < 30
    report(capsys, 11, "performance budget", ok,
           f"weight<=12 tables {tables:.1f}s, weight-20 stretch {stretch:.1f}s")


def test_criterion_12_mflex_closed_form(capsys):
    ok = True
    for m in range(2, 13):
        table = plucker_table((m,))
        for i in range((m - 1) // 2 + 1):
            if mflex_polynomial(m, i) != table.polynomial(m - 1 - 2 * i):
                ok = False
    report(capsys, 12, "m-fold flex closed form up to m=12", ok)
