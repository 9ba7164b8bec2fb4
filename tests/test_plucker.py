"""Tangent-line counts, their degrees, asymptotics, and closed forms."""

import importlib.util
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rootstrata import flagcalc
from rootstrata.combinat import kostka
from rootstrata.crs import crs_class, crs_class_at
from rootstrata.dpoly import D, DPoly
from rootstrata.errors import OutOfRange
from rootstrata.flagcalc import ProjClass
from rootstrata.partitions import MAX_WEIGHT, Partition
from rootstrata.plucker import (asymptotic_plucker, degree_table,
                                hyperflex_count, lines_on_hypersurface,
                                mflex_coefficient, mflex_polynomial,
                                plucker_point, plucker_table)
from strata_sweep import strata


def test_tables_match_class_coefficients():
    for lam in strata(8):
        cls = crs_class(lam)
        table = plucker_table(lam)
        codim = lam.codim
        for j in range(codim // 2 + 1):
            i = codim - 2 * j
            assert table.polynomial(i) == cls.coefficient(codim - j, j)


def test_golden_factored_forms():
    assert plucker_table((2,)).polynomial(1) == D * (D - 1)
    assert plucker_table((4,)).polynomial(1) == 2 * D * (3 * D - 2) * (D - 3)
    assert plucker_table((4,)).polynomial(3) == D * (D - 1) * (D - 2) * (D - 3)
    wanted = (D * (D - 7) * (D - 6) * (D - 5) * (D - 4)
              * (D ** 3 + 6 * D ** 2 + 7 * D - 30)) / 12
    assert plucker_table((2, 2, 2, 2)).polynomial(0) == wanted


def test_point_condition_is_the_top_entry():
    for lam in strata(8):
        if not lam:
            continue
        assert plucker_point(lam) == plucker_table(lam).polynomial(lam.codim)


def test_point_condition_falling_factorial():
    for m in range(2, 7):
        falling = DPoly((1,))
        for i in range(m):
            falling = falling * (D - i)
        assert plucker_point((m,)) == falling
    # repeated parts divide by the multiplicity factorial
    assert plucker_point((2, 2)) == plucker_point((4,)) / 2


def test_degree_table_examples():
    assert list(degree_table((10, 2, 2))) == [
        (11, 14), (9, 14), (7, 14), (5, 13), (3, 12), (1, 11)]
    assert list(degree_table((2, 2))) == [(2, 4), (0, 4)]


def test_degree_rule_matches_actual_degrees():
    for lam in strata(10):
        table = plucker_table(lam)
        for i, expected in degree_table(lam):
            assert table.polynomial(i).degree == expected, (lam, i)


def test_asymptotics_are_top_coefficients():
    for lam in strata(9):
        table = plucker_table(lam)
        w = lam.weight
        for i, value in asymptotic_plucker(lam):
            p = table.polynomial(i)
            top = p.coeffs[w] if p.degree == w else Fraction(0)
            assert value == top, (lam, i)


def test_asymptotic_special_values():
    assert dict(asymptotic_plucker((2, 2, 2, 2))) == {
        4: Fraction(1, 24), 2: Fraction(1, 8), 0: Fraction(1, 12)}
    assert dict(asymptotic_plucker((3, 3))) == {
        4: Fraction(1, 2), 2: Fraction(1, 2), 0: Fraction(1, 2)}
    assert dict(asymptotic_plucker((3, 3, 3))) == {
        6: Fraction(1, 6), 4: Fraction(1, 3), 2: Fraction(1, 2),
        0: Fraction(1, 6)}


def test_asymptotic_vanishing_condition():
    """Some leading coefficient vanishes iff the largest part dominates."""
    for lam in strata(9):
        if not lam:
            continue
        reduced = lam.reduction()
        vanish = any(v == 0 for _, v in asymptotic_plucker(lam))
        threshold = Fraction(reduced.weight, 2) + 2
        assert vanish == (lam.largest >= threshold), lam


def test_mflex_assembly_matches_recursion():
    for m in range(2, 11):
        table = plucker_table((m,))
        for i in range((m - 1) // 2 + 1):
            assert mflex_polynomial(m, i) == table.polynomial(m - 1 - 2 * i)


def test_mflex_golden():
    assert mflex_polynomial(4, 1) == 2 * D * (3 * D - 2) * (D - 3)


def test_mflex_domain():
    with pytest.raises(OutOfRange):
        mflex_coefficient(4, 2, 3)  # needs m >= 2i + 1
    with pytest.raises(OutOfRange):
        mflex_coefficient(4, 1, 4)  # k must stay below m


def test_hyperflex_golden_values():
    wanted = [9, 575, 99715, 33899229, 19134579541, 16213602794675,
              19275975908850375]
    assert [hyperflex_count(n) for n in range(3, 10)] == wanted
    with pytest.raises(OutOfRange):
        hyperflex_count(2)


def test_lines_on_hypersurfaces():
    assert lines_on_hypersurface(3) == 27
    assert lines_on_hypersurface(4) == 2875
    for n in range(3, 8):
        assert lines_on_hypersurface(n) == (2 * n - 3) * hyperflex_count(n)


def test_table_iteration_and_str():
    table = plucker_table((3,))
    assert [i for i, _ in table] == [2, 0]
    assert "Pl" in str(table)


def test_closed_forms_refuse_degrees_above_the_weight_bound():
    """Degrees past MAX_WEIGHT are refused before any Stirling recursion runs."""
    refused = [lambda: mflex_coefficient(MAX_WEIGHT + 1, 0, 0),
               lambda: mflex_polynomial(900, 0),
               lambda: hyperflex_count(300),
               lambda: lines_on_hypersurface(300)]
    for call in refused:
        with pytest.raises(OutOfRange):
            call()
    assert mflex_coefficient(MAX_WEIGHT, 0, 0) == 1
    n = (MAX_WEIGHT + 3) // 2  # the largest n with 2n - 3 <= MAX_WEIGHT
    assert lines_on_hypersurface(n) == (2 * n - 3) * hyperflex_count(n)


def test_degree_rule_and_asymptotics_hold_through_weight_20():
    """The degree upper bound is attained and the leading terms agree, at scale."""
    checked = 0
    for lam in strata(20):
        table = plucker_table(lam)
        w = lam.weight
        for (i, degree), (j, value) in zip(degree_table(lam), asymptotic_plucker(lam),
                                           strict=True):
            p = table.polynomial(i)
            assert i == j and p.degree == degree, (lam, i)
            assert value == (p.coeffs[w] if p.degree == w else 0), (lam, i)
            checked += 1
    assert checked == 4427


def test_salmon_quadritangent_count():
    """Lines tangent at four points to a degree-d surface in P^3.

    Salmon, A Treatise on the Analytic Geometry of Three Dimensions: the
    quadritangent lines number d(d - 4)(d - 5)(d - 6)(d - 7)(d^3 + 6d^2 + 7d - 30)/12.
    """
    salmon = (D * (D - 4) * (D - 5) * (D - 6) * (D - 7)
              * (D ** 3 + 6 * D ** 2 + 7 * D - 30)) / 12
    assert plucker_table((2, 2, 2, 2)).polynomial(0) == salmon
    # the per-degree recursion is a route independent of the symbolic peel
    for d0 in range(8, 14):
        assert crs_class_at((2, 2, 2, 2), d0).coefficient(2, 2) == salmon(d0)
    # zero for degrees 4 to 7; 8*4*3*2*1*922/12 quadritangents on an octic
    assert [salmon(d) for d in range(4, 9)] == [0, 0, 0, 0, 14752]


def test_salmon_five_fold_contact_count():
    """Lines with five-point contact to a degree-d surface in P^3.

    Salmon, A Treatise on the Analytic Geometry of Three Dimensions; also
    Eisenbud-Harris, 3264 and All That, Ch. 11: such lines number
    5d(d - 4)(7d - 12).
    """
    salmon = 5 * D * (D - 4) * (7 * D - 12)
    assert plucker_table((5,)).polynomial(0) == salmon


CHECK_THEOREMS = Path(__file__).with_name("check_theorems.py")


def test_theorem_check_passes_at_weight_10():
    proc = subprocess.run([sys.executable, str(CHECK_THEOREMS), "10"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "ok: 42 strata of weight <= 10\n", "")


def test_theorem_check_reports_a_wrong_leading_term_in_one_line(capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location("check_theorems", CHECK_THEOREMS)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    def off_by_one_at_weight_6(lam):
        return [(i, v + (lam.weight == 6)) for i, v in asymptotic_plucker(lam)]

    monkeypatch.setattr(script, "asymptotic_plucker", off_by_one_at_weight_6)
    assert script.main(script.failure, ["8"]) == 1
    out = capsys.readouterr().out
    assert out == "FAIL (6): leading d^6 coefficient of Pl_5 is 1, not 2\n"

    # the Hilbert leg reports the same way
    monkeypatch.undo()
    hilbert = script.hilbert_degree

    def doubled_at_weight_3(lam):
        return hilbert(lam) * (2 if lam.weight == 3 else 1)

    monkeypatch.setattr(script, "hilbert_degree", doubled_at_weight_3)
    assert script.main(script.failure, ["6"]) == 1
    assert capsys.readouterr().out == (
        f"FAIL (3): hilbert_degree is {6 * D - 12}, Hilbert's formula gives {3 * D - 6}\n")

    # and so does the point-pushforward leg
    monkeypatch.undo()
    push = flagcalc.q_push

    def doubled(f):
        got = push(f)
        return ProjClass(got.poly * 2, got.ambient_n)

    monkeypatch.setattr(flagcalc, "q_push", doubled)
    assert script.main(script.failure, ["6"]) == 1
    assert capsys.readouterr().out == (
        f"FAIL (2): zeta^1 of flex_point_locus_class at m=2, n=3 is {2 * D}, "
        f"the line pushforward gives {D}\n")
