"""Torus localization at fixed d: a route independent of the peel.

The map (P^1)^k x P(Sym^(d-w)) -> P(Sym^d) sends (l_1..l_k, g) to
g * prod l_j^lambda_j onto the stratum closure, with degree prod e_v!
over the multiplicities e_v of the part values (Feher, Nemethi, Rimanyi,
Coincident root loci of binary forms, Michigan Math. J. 54 (2006)).
The Atiyah-Bott sum over its torus fixed points gives the cone class at
the weights (alpha, beta) of the two roots:

    (1/prod e_v!) sum over s in {0,1}^k and 0 <= r <= d - w of
    prod_{i != n} (i*alpha + (d - i)*beta)
    / (prod_j tau(s_j) * prod_{i != r, 0 <= i <= d - w} (i - r)(alpha - beta)),

with n = r + sum of lambda_j over s_j = 1, tau(1) = beta - alpha and
tau(0) = alpha - beta.  Adding xi to every numerator weight moves the
hypersurface along the moduli, which gives the universal class.
"""

import importlib.util
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import comb, factorial
from pathlib import Path

from rootstrata.crs import crs_class, crs_class_at
from rootstrata.flagcalc import incidence_class
from rootstrata.partitions import Partition
from rootstrata.universal import universal_class, universal_incidence_class
from strata_sweep import strata


def _fixed_point_sum(parts, w, d, alpha, beta, xi):
    """The Atiyah-Bott sum above over s in {0,1}^len(parts), before the 1/prod e_v!."""
    total = Fraction(0)
    for s in product((0, 1), repeat=len(parts)):
        ones = sum(p for p, bit in zip(parts, s) if bit)
        tau = 1
        for bit in s:
            tau *= beta - alpha if bit else alpha - beta
        for r in range(d - w + 1):
            num = 1
            for i in range(d + 1):
                if i != r + ones:
                    num *= i * alpha + (d - i) * beta + xi
            den = tau
            for i in range(d - w + 1):
                if i != r:
                    den *= (i - r) * (alpha - beta)
            total += Fraction(num, den)
    return total


def localized(lam, d, alpha, beta, xi=0):
    """The Atiyah-Bott sum above, exactly, at integer weights."""
    return (_fixed_point_sum(lam.parts, lam.weight, d, alpha, beta, xi)
            / lam.multiplicity_factorial())


def localized_incidence(lam, m, d, alpha, beta, xi=0):
    """The incidence class of lam and its part m at (zeta, eta) = (alpha, beta).

    The peeled root, one part equal to m, is fixed at s = 0 with its tau
    factor left out; the other parts run over {0,1} as in localized, n
    still counts lam's whole weight, and the sum is divided by the
    multiplicity factorial of lam without the peeled part.
    """
    sub = lam.remove_one(m)
    return (_fixed_point_sum(sub.parts, lam.weight, d, alpha, beta, xi)
            / sub.multiplicity_factorial())


def _grouped(parts, w, d, factor):
    """_fixed_point_sum / factor at d, grouped by the number j of ones in s and
    the sum of their parts, as a function of the point (alpha, beta, xi).

    tau over s is (-1)^j (alpha - beta)^k and n sees s only through that
    sum, so a subset-sum count over the parts replaces the 2^k terms.  The
    r-th denominator is (-1)^r r! (e - r)! (alpha - beta)^e with e = d - w,
    and each numerator leaves one factor out: a prefix times a suffix product.
    The weight W[n] of the n-th product, the sum of (-1)^(j+r) count C(e, r)
    over r + ones = n, does not depend on the point, so it is computed once;
    each point is then one sum over n <= d.
    """
    k, e = len(parts), d - w
    counts = {(0, 0): 1}  # (j, sum over the ones): how many s
    for p in parts:
        grown = dict(counts)
        for (j, ones), c in counts.items():
            grown[j + 1, ones + p] = grown.get((j + 1, ones + p), 0) + c
        counts = grown
    weights = [0] * (d + 1)
    for (j, ones), c in counts.items():
        for r in range(e + 1):
            weights[r + ones] += (-1) ** (j + r) * c * comb(e, r)
    scale = factorial(e) * factor

    def at(alpha, beta, xi=0):
        factors = [i * alpha + (d - i) * beta + xi for i in range(d + 1)]
        prefix, suffix = [1], [1]
        for f, g in zip(factors, reversed(factors)):
            prefix.append(prefix[-1] * f)
            suffix.append(suffix[-1] * g)
        total = sum(c * prefix[n] * suffix[d - n] for n, c in enumerate(weights) if c)
        return Fraction(total, scale * (alpha - beta) ** (k + e))

    return at


def localizer(lam, d):
    """localized at d, summed by subset sums of the parts, as a function of the point."""
    return _grouped(lam.parts, lam.weight, d, lam.multiplicity_factorial())


def incidence_localizer(lam, m, d):
    """localized_incidence at d, summed by subset sums, as a function of the point."""
    sub = lam.remove_one(m)
    return _grouped(sub.parts, lam.weight, d, sub.multiplicity_factorial())


def localized_by_subset_sums(lam, d, alpha, beta, xi=0):
    """localized, summed by subset sums of the parts."""
    return localizer(lam, d)(alpha, beta, xi)


def localized_incidence_by_subset_sums(lam, m, d, alpha, beta, xi=0):
    """localized_incidence, summed by subset sums of the parts."""
    return incidence_localizer(lam, m, d)(alpha, beta, xi)


def at_point(poly, d, **point):
    """Value of a polynomial with DPoly coefficients at d and the point."""
    total = Fraction(0)
    for e, c in poly.terms.items():
        term = c(d)
        for v, k in zip(poly.variables, e):
            term *= point[v] ** k
        total += term
    return total


def in_root(poly, d, x="a", y="b", **point):
    """poly at d, y = 1 and the point, as its ascending coefficients in the root x.

    Each d-coefficient is evaluated once; horner then gives the value at any x.
    """
    row = [Fraction(0)] * (poly.total_degree() + 1)
    for e, c in poly.terms.items():
        term, power = c(d), 0
        for v, k in zip(poly.variables, e):
            if v == x:
                power = k
            elif v != y:
                term *= point[v] ** k
        row[power] += term
    return row


def horner(row, t):
    """The polynomial with ascending coefficients row, at t."""
    value = Fraction(0)
    for c in reversed(row):
        value = value * t + c
    return value


def class_grid(lam):
    """(d, t, symbolic, localized) over the grid that pins crs_class(lam): d = w .. 2w,
    (a, b) = (t, 1) for t = 2 .. codim + 2.

    CRSClass enforces that the class is homogeneous of degree codim in (a, b)
    and that each coefficient has degree <= w in d; the class localization
    computes obeys the same bounds.  Their difference, at b = 1 and a fixed d,
    is a polynomial of degree <= codim in t that vanishes at codim + 1 values,
    so each of its coefficients vanishes at w + 1 values of d and is zero:
    agreement on the grid pins every coefficient, with no interpolation.
    """
    roots = crs_class(lam).to_roots()
    w = lam.weight
    for d in range(w, 2 * w + 1):
        row, localize = in_root(roots, d), localizer(lam, d)
        for t in range(2, lam.codim + 3):
            yield d, t, horner(row, t), localize(t, 1)


def test_localization_matches_the_fixed_d_recursion():
    checked = 0
    for lam in strata(7):
        w = lam.weight
        for d in range(w, 2 * w + 2):
            roots = crs_class_at(lam, d).to_roots()
            for t in range(2, lam.codim + 4):
                assert at_point(roots, d, a=t, b=1) == localized(lam, d, t, 1), (lam, d, t)
                checked += 1
    assert checked == 611


def test_localization_with_xi_matches_the_universal_class():
    """An independent check of the xi/d root shift in universal_class."""
    checked = 0
    for lam in strata(7):
        poly = universal_class(lam).poly
        w = lam.weight
        for d in range(max(w, 1), 2 * w + 2):
            for t, x in ((2, 1), (3, 5), (5, -2)):
                got = at_point(poly, d, a=t, b=1, xi=x)
                assert got == localized(lam, d, t, 1, x), (lam, d, t, x)
                checked += 1
    assert checked == 312


def test_subset_sums_match_the_plain_sum():
    checked = 0
    for lam in strata(7):
        w = lam.weight
        for d in range(w, 2 * w + 2):
            for t, x in ((2, 0), (3, 0), (3, 5), (5, -2)):
                want = localized(lam, d, t, 1, x)
                assert localized_by_subset_sums(lam, d, t, 1, x) == want, (lam, d, t, x)
                checked += 1
        for m in sorted(set(lam.parts)):
            for d in (w, w + 1, 2 * w + 3):
                for alpha, beta, xi in ((2, 3, 0), (5, -1, 0), (-3, 4, 2)):
                    want = localized_incidence(lam, m, d, alpha, beta, xi)
                    got = localized_incidence_by_subset_sums(lam, m, d, alpha, beta, xi)
                    assert got == want, (lam, m, d, alpha, beta, xi)
                    checked += 1
    assert checked == 420 + 171


def test_localization_matches_the_class_through_weight_20():
    """The symbolic class in the roots at d = w and 2w + 3, on all 627 strata."""
    checked = 0
    for lam in strata(20):
        roots = crs_class(lam).to_roots()
        w = lam.weight
        for d in (w, 2 * w + 3):
            localize = localizer(lam, d)
            for t in (2, 3):
                want = localize(t, 1)
                assert at_point(roots, d, a=t, b=1) == want, (lam, d, t)
                checked += 1
    assert checked == 2508


def test_localization_matches_the_incidence_classes():
    """The flag-root classes, fixed and universal, on all (lam, m) of weight <= 9."""
    checked = 0
    for lam in strata(9):
        for m in sorted(set(lam.parts)):
            universal = universal_incidence_class(lam, m, 5).poly
            fixed = incidence_class(lam, m).poly
            w = lam.weight
            for d in (w, w + 1, 2 * w + 3):
                for alpha, beta, xi in ((2, 3, 0), (5, -1, 0), (2, 3, 7), (-3, 4, 2)):
                    want = localized_incidence(lam, m, d, alpha, beta, xi)
                    got = at_point(universal, d, zeta=alpha, eta=beta, xi=xi)
                    assert got == want, (lam, m, d, alpha, beta, xi)
                    if not xi:
                        got = at_point(fixed, d, zeta=alpha, eta=beta)
                        assert got == want, (lam, m, d, alpha, beta)
                    checked += 1
    assert checked == 540


def test_grouped_localization_matches_the_incidence_classes_through_weight_14():
    """The flag-root classes on all 272 (lam, m) of weight <= 14, by subset sums."""
    checked = 0
    for lam in strata(14):
        for m in sorted(set(lam.parts)):
            universal = universal_incidence_class(lam, m, 5).poly
            fixed = incidence_class(lam, m).poly
            w = lam.weight
            for d in (w, 2 * w + 3):
                localize = incidence_localizer(lam, m, d)
                for alpha, beta, xi in ((2, 3, 0), (-3, 4, 2)):
                    want = localize(alpha, beta, xi)
                    got = at_point(universal, d, zeta=alpha, eta=beta, xi=xi)
                    assert got == want, (lam, m, d, alpha, beta, xi)
                    if not xi:
                        got = at_point(fixed, d, zeta=alpha, eta=beta)
                        assert got == want, (lam, m, d, alpha, beta)
                    checked += 1
    assert checked == 1088


def test_localization_grid_pins_every_class_through_weight_12():
    """class_grid on all strata of weight <= 12 (CI runs check_localization.py to 18)."""
    checked = 0
    for lam in strata(12):
        for d, t, got, want in class_grid(lam):
            assert got == want, (lam, d, t)
            checked += 1
    assert checked == 6721  # the empty stratum is one point, d = 0 and t = 2


def d_degree(poly, n, w, label):
    """The largest degree D in d of a coefficient of poly, once the two bounds a
    pinning grid relies on hold: every term has degree n in the variables, and D <= w."""
    assert all(sum(e) == n for e in poly.terms), label
    top = max(c.degree for c in poly.terms.values())
    assert top <= w, (label, top)
    return top


def test_localization_grid_pins_every_universal_class_through_weight_8():
    """universal_class on the grid d = w .. w + D, (a, b, xi) = (t, 1, x) for
    t = 2 .. codim + 2 and x = 0 .. codim, on all strata of weight <= 8, where D
    is the largest degree in d of a coefficient.

    UniversalClass enforces no degree bound, so the test asserts the two it
    relies on: every term has degree codim in (a, b, xi), as the localized
    class has, and D <= w.  At each d on the grid the difference, at b = 1, is
    then a polynomial of degree <= codim in t and in x that vanishes on
    (codim + 1)^2 points, so it is zero.  Agreement thus proves that the
    computed class is the localized class at D + 1 degrees, and so is the one
    polynomial of degree <= D in d through them.  It is the class at every d
    if the class is a polynomial of degree <= D in d, which the grid itself
    cannot show.
    """
    checked = 0
    for lam in strata(8):
        poly = universal_class(lam).poly
        w, codim = lam.weight, lam.codim
        top = d_degree(poly, codim, w, lam)
        for d in range(w, w + top + 1):
            localize = localizer(lam, d)
            for x in range(codim + 1):
                row = in_root(poly, d, xi=x)
                for t in range(2, codim + 3):
                    want = localize(t, 1, x)
                    assert horner(row, t) == want, (lam, d, t, x)
                    checked += 1
    assert checked == 5074


def test_localization_grid_pins_every_incidence_class_through_weight_12():
    """incidence_class(lam, m) on the grid d = w .. w + D, (zeta, eta) = (t, 1) for
    t = 2 .. N + 2, on all (lam, m) of weight <= 12, where N = codim + 1 is its
    degree in the flag roots and D is the largest degree in d of a coefficient.

    FlagClass enforces no degree bound, so the test asserts the two it relies
    on: every term has degree N in (zeta, eta), as the localized class has, and
    D <= w.  At each d on the grid the difference, at eta = 1, is then a
    polynomial of degree <= N in t that vanishes at N + 1 points, so it is
    zero.  Agreement thus proves that the computed class is the localized class
    at D + 1 degrees, and so is the one polynomial of degree <= D in d through
    them.  It is the class at every d if the class is a polynomial of degree
    <= D in d, which the grid itself cannot show.
    """
    pairs = checked = 0
    for lam in strata(12):
        for m in sorted(set(lam.parts)):
            poly = incidence_class(lam, m).poly
            w, n = lam.weight, lam.codim + 1
            top = d_degree(poly, n, w, (lam, m))
            for d in range(w, w + top + 1):
                localize = incidence_localizer(lam, m, d)
                row = in_root(poly, d, "zeta", "eta")
                for t in range(2, n + 3):
                    assert horner(row, t) == localize(t, 1), (lam, m, d, t)
                    checked += 1
            pairs += 1
    assert (pairs, checked) == (139, 14429)


def test_localization_grid_pins_every_universal_incidence_class_through_weight_8():
    """universal_incidence_class(lam, m, 5) on the grid d = w .. w + D,
    (zeta, eta, xi) = (t, 1, x) for t = 2 .. N + 2 and x = 0 .. N, on all
    (lam, m) of weight <= 8, where N = codim + 1 is its degree in (zeta, eta, xi)
    and D is the largest degree in d of a coefficient.

    FlagClass enforces no degree bound, so the test asserts the two it relies
    on: every term has degree N in (zeta, eta, xi), as the localized class has,
    and D <= w.  At each d on the grid the difference, at eta = 1, is then a
    polynomial of degree <= N in t and in x that vanishes on (N + 1)^2 points,
    so it is zero.  Agreement thus proves that the computed class is the
    localized class at D + 1 degrees, and so is the one polynomial of degree
    <= D in d through them.  It is the class at every d if the class is a
    polynomial of degree <= D in d, which the grid itself cannot show.
    """
    pairs = checked = 0
    for lam in strata(8):
        for m in sorted(set(lam.parts)):
            poly = universal_incidence_class(lam, m, 5).poly
            w, n = lam.weight, lam.codim + 1
            top = d_degree(poly, n, w, (lam, m))
            for d in range(w, w + top + 1):
                localize = incidence_localizer(lam, m, d)
                for x in range(n + 1):
                    row = in_root(poly, d, "zeta", "eta", xi=x)
                    for t in range(2, n + 3):
                        assert horner(row, t) == localize(t, 1, x), (lam, m, d, t, x)
                        checked += 1
            pairs += 1
    assert (pairs, checked) == (30, 10439)


CHECK_LOCALIZATION = Path(__file__).with_name("check_localization.py")


def test_localization_check_passes_at_weight_6():
    proc = subprocess.run([sys.executable, str(CHECK_LOCALIZATION), "6"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "ok: 11 strata of weight <= 6\n", "")


def test_localization_check_reports_the_first_disagreeing_point_in_one_line(capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location("check_localization", CHECK_LOCALIZATION)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def last_point_off_at_weight_3(lam):
        points = list(class_grid(lam))
        if lam.weight == 3:
            d, t, got, want = points[-1]
            points[-1] = d, t, got, want + 1
        return points

    monkeypatch.setattr(script, "class_grid", last_point_off_at_weight_3)
    assert script.main(script.failure, ["6"]) == 1
    d, t, got, want = list(class_grid(Partition((3,))))[-1]
    assert (d, t) == (6, 4)
    assert capsys.readouterr().out == (
        f"FAIL (3): localization at d=6, a=4 gives {want + 1}, symbolic {got}\n")


def test_localization_check_pins_one_named_class(capsys, monkeypatch):
    """`--class` runs class_grid on that one class, and stops at its first bad point."""
    proc = subprocess.run([sys.executable, str(CHECK_LOCALIZATION), "--class", "3,2^2"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok: (3,2,2)\n", "")

    spec = importlib.util.spec_from_file_location("check_localization", CHECK_LOCALIZATION)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def first_point_off(lam):
        (d, t, got, want), *rest = class_grid(lam)
        return [(d, t, got, want - 1), *rest]

    monkeypatch.setattr(script, "class_grid", first_point_off)
    assert script.main(script.failure, ["--class", "3,2^2"]) == 1
    d, t, got, want = next(class_grid(Partition((3, 2, 2))))
    assert (d, t) == (7, 2)
    assert capsys.readouterr().out == (
        f"FAIL (3,2,2): localization at d=7, a=2 gives {want - 1}, symbolic {got}\n")
