"""Stratum classes: recursion, twists, peel order, and specializations."""

import ast
import hashlib
import importlib.util
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootstrata import crs as crs_module
from rootstrata import flagcalc as flagcalc_module
from rootstrata.combinat import kostka
from rootstrata.crs import (CRSClass, _basis, _digits, _level_rows, _schur_readout,
                            _twist, crs_class, crs_class_at, crs_class_peeled, crs_m_closed,
                            euler_identity_check, euler_pol, leading_term,
                            weighted_product)
from rootstrata.dpoly import (DPoly, _canonical, common_numerators, pseudo_divmod,
                              taylor_shift)
from rootstrata.errors import DegreeTooSmall, InvalidPartition, PolynomialityViolation
from rootstrata.flagcalc import FlagClass, _resolution_peel, p_push
from rootstrata.multipoly import MultiPoly
from rootstrata.partitions import Partition, stratum_partitions
from rootstrata.schur import SchurExpansion, divided_difference, schur_expand, schur_to_chern
from rootstrata.universal import universal_class
import strata_sweep
from strata_sweep import strata
from test_schur import strip_expand


# Two deterministic cases first, so the kernel faults they catch stop tier-1 early.

def test_packed_level_has_room_for_the_width_of_a_lone_row():
    """One row e^5 at m = 1: in d its coefficients, those of (d - 1)^5, reach
    10, which only the width term of W leaves room for."""
    rows = _divisible_rows(0, [[0, 0, 0, 0, 0, 1]])
    packed, bits = _twist(_basis(rows, 1), 1)
    assert _schur_readout(packed, 1, bits) == list_level(rows, 1, 1)
    listed = [_canonical(nums, 1) for nums in list_rows(rows, 1)]
    assert [_canonical(_digits(v, bits), 1) for v in packed] == listed


def test_level_rows_keep_the_denominator_of_the_smaller_class():
    """incidence_class((2, 2, 2), 2) reads the rows of a level whose smaller
    class (2, 2) carries a 1/2: each row is the list kernel's, over that den."""
    row, den = list_roots_row(crs_class((2, 2)), 2)
    assert den == 2
    rows, level_den = _level_rows((2, 2, 2), 2)
    assert [_canonical(nums, level_den) for nums in rows] == [
        _canonical(nums, den) for nums in list_euler_row(list_twist_row(row, 2), 2)]


def test_empty_partition_is_the_unit():
    got = crs_class(())
    assert got.expansion == SchurExpansion({(0, 0): Fraction(1)})


def test_rejects_parts_below_two():
    with pytest.raises(InvalidPartition):
        crs_class((2, 1))


def test_codim_and_degree_shape():
    for lam in strata(8):
        cls = crs_class(lam)
        codim = lam.codim
        for (k, l), c in cls.expansion.items():
            assert k + l == codim
            assert c.degree <= lam.weight


def test_single_part_closed_form_matches_recursion():
    for m in range(2, 9):
        assert crs_m_closed(m).expansion == crs_class((m,)).expansion


def test_peel_independence():
    """Peeling any largest-or-other part gives the same class."""
    for lam in strata(9):
        cls = crs_class(lam)
        for m in set(lam.parts):
            peeled = crs_class_peeled(lam, m)
            assert peeled.expansion == cls.expansion, (lam, m)


def test_weighted_product_small():
    wp = weighted_product(2)
    assert str(wp) == "(d)*a*b + (d^2 - d)*b^2"
    assert wp.variables == ("a", "b")


def _assert_per_d_route_matches_symbolic(monkeypatch, cases):
    """crs_class_at equals the symbolic class evaluated at d, working on integer
    rows alone, apart from every symbolic layer."""
    want = [crs_class(lam).evaluate(d0) for lam, d0 in cases]

    def used(*args, **kwargs):
        raise AssertionError("layer used")

    for name in ("weighted_product", "divided_difference", "schur_expand",
                 "_basis", "_twist", "_packed_level", "taylor_shift"):
        monkeypatch.setattr(crs_module, name, used)
    monkeypatch.setattr(flagcalc_module, "_resolution_peel", used)
    for name in ("substitute", "__mul__", "evaluate_d"):
        monkeypatch.setattr(MultiPoly, name, used)
    monkeypatch.setattr(SchurExpansion, "to_roots", used)
    for (lam, d0), wanted in zip(cases, want):
        assert crs_class_at(lam, d0) == wanted, (lam, d0)


def test_integer_specialization_matches_symbolic(monkeypatch):
    # at the weight bound: the longest chain of parts and the widest part
    _assert_per_d_route_matches_symbolic(
        monkeypatch, [(Partition((2,) * 50), 100), (Partition((10,) * 10), 101)])


def test_bound_classes_keep_every_coefficient():
    """Every coefficient of the classes at the weight bound, pinned by sha256."""
    pinned = {"2^50": "02c3ae326db27ec9", "10^10": "ba659040858e4c07",
              "5^20": "88704544fb7a2bf7", "7^14,2": "d1423a9bc5b0d454"}
    got = {lam: hashlib.sha256(str(crs_class(lam)).encode()).hexdigest()[:16]
           for lam in pinned}
    assert got == pinned


def test_bound_classes_keep_every_chern_coefficient():
    """Every coefficient of the Chern form at the weight bound, pinned by sha256."""
    pinned = {"10^10": "46925201a7435fa2", "50,50": "17cdf8131f89fe55"}
    got = {lam: hashlib.sha256(str(schur_to_chern(crs_class(lam).expansion)).encode())
           .hexdigest()[:16] for lam in pinned}
    assert got == pinned


def test_per_d_route_reads_no_polynomial_layer(monkeypatch):
    _assert_per_d_route_matches_symbolic(
        monkeypatch,
        [(lam, d0) for lam in strata(8) for d0 in range(lam.weight, lam.weight + 4)])


def test_specialization_below_weight_fails():
    with pytest.raises(DegreeTooSmall):
        crs_class_at((2, 2), 3)


def test_classes_take_integer_values_at_integers():
    """Counts of tangent lines are integers wherever d is an integer."""
    for lam in strata(8):
        cls = crs_class(lam)
        for (k, l), c in cls.expansion.items():
            for d0 in range(-lam.weight, 2 * lam.weight + 2):
                assert c(d0).denominator == 1, (lam, (k, l), d0)


def test_euler_identity():
    for d0 in range(2, 8):
        assert euler_identity_check(d0)
    with pytest.raises(DegreeTooSmall):
        euler_identity_check(1)


def test_euler_pol_expands_in_schur_basis():
    e = schur_expand(euler_pol(4))
    assert e.coefficient(5, 0) == 0  # e is divisible by ab for d >= 1
    assert e.coefficient(4, 1) != 0


def test_leading_terms_match_reduced_h_expansion():
    lead = leading_term((2, 2))
    assert lead == SchurExpansion({(2, 0): Fraction(1, 2),
                                   (1, 1): Fraction(1, 2)})
    assert leading_term((3,)) == SchurExpansion({(2, 0): Fraction(1)})


@given(st.sampled_from(strata(9)))
@settings(max_examples=30, deadline=None)
def test_leading_slice_equals_leading_term(lam):
    cls = crs_class(lam)
    assert cls.leading_slice() == leading_term(lam)


def test_string_forms():
    assert "s_{1,0}" in str(crs_class((2,)))


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_long_class_chain_keeps_the_stack_flat():
    lam = (2,) * 12
    want = crs_class_at(lam, 30)
    crs_module._crs_cached.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        got = crs_class(lam)
    finally:
        sys.setrecursionlimit(limit)
    assert got.evaluate(30) == want
    assert crs_module._crs_cached.cache_info().currsize == len(lam) + 1


def test_cached_expansions_are_read_only():
    cls = crs_class((2, 2))
    before = dict(cls.expansion.coeffs)
    with pytest.raises(TypeError):
        cls.expansion.coeffs[(4, 0)] = DPoly((1,))
    with pytest.raises(TypeError):
        del cls.expansion.coeffs[(2, 0)]
    assert dict(crs_class((2, 2)).expansion.coeffs) == before


def test_every_coefficient_is_a_dpoly():
    """Constant coefficients are constant DPolys, never bare Fractions."""
    expansions = [crs_class(lam).expansion for lam in strata(6)]
    expansions += [crs_class_at(lam, lam.weight + 1) for lam in strata(6)]
    expansions += [crs_class(lam).leading_slice() for lam in strata(6)]
    expansions.append(schur_expand(euler_pol(5)))
    coeffs = [c for e in expansions for c in e.coeffs.values()]
    coeffs += [c for lam in strata(5) for c in universal_class(lam).poly.terms.values()]
    coeffs.append(crs_class((2,)).coefficient(5, 5))
    assert all(type(c) is DPoly for c in coeffs)
    assert any(c.degree == 0 for c in coeffs) and any(c.degree > 0 for c in coeffs)


@pytest.mark.parametrize("call", [
    lambda: Partition((3, 2.9)),
    lambda: crs_class((2.9,)),
    lambda: crs_class_at((2,), 2.7),
    lambda: crs_class_at((2,), "3"),
    lambda: euler_pol(3.5),
    lambda: MultiPoly(("a",), {("2",): 1}),
    lambda: MultiPoly(("a",), {(2.0,): 1}),
    lambda: SchurExpansion({(1.5, 0): 1}),
    lambda: kostka((2, 2), (1, 1, 1, 1.0)),
    lambda: kostka((2.0, 2), (1, 1, 1, 1)),
], ids=["partition", "crs_class", "crs_class_at", "crs_class_at-str", "euler_pol",
        "exponent-str", "exponent-float", "schur-index", "kostka-content", "kostka-shape"])
def test_non_integral_inputs_raise_type_error(call):
    """Floats and strings are refused, never truncated to the integer below."""
    with pytest.raises(TypeError):
        call()


def test_row_kernel_matches_the_resolution_peel():
    """The packed level equals the line pushforward of the resolution route's level."""
    for lam in strata(12):
        for m in set(lam.parts):
            oracle = p_push(FlagClass(
                _resolution_peel(crs_class(lam.remove_one(m)).expansion, m))).expansion
            want = oracle * Fraction(1, lam.multiplicity(m))
            assert crs_class_peeled(lam, m).expansion == want, (lam, m)


@given(st.integers(0, 9), st.integers(1, 4), st.integers(1, 12), st.data())
@settings(max_examples=60, deadline=None)
def test_schur_readout_identity(top, width, den, data):
    """P[l] - P[k + 1] is the s_{k,l} coefficient of the divided difference of P."""
    entry = st.lists(st.integers(-50, 50), min_size=width, max_size=width)
    row = data.draw(st.lists(entry, min_size=top + 1, max_size=top + 1))
    p = MultiPoly(("a", "b"), {(i, top - i): DPoly(Fraction(x, den) for x in nums)
                               for i, nums in enumerate(row)})
    assert (_schur_readout([_pack(nums, 8) for nums in row], den, 8)
            == strip_expand(divided_difference(p)))


def _pack(nums, bits):
    """The integers nums, lowest first, as one int at d = 2^bits."""
    v = 0
    for x in reversed(nums):
        v = (v << bits) + x
    return v


@pytest.mark.parametrize("lam, m", [((2, 2, 2), 2), ((3, 3, 2), 3), ((5, 3), 5)])
def test_a_perturbed_smaller_class_breaks_polynomiality(monkeypatch, lam, m):
    """Adding 1 to any coefficient of the smaller class leaves a remainder."""
    sub = Partition(lam).remove_one(m)
    true_class = crs_class(sub)
    for kl in true_class.expansion.coeffs:
        coeffs = dict(true_class.expansion.coeffs)
        coeffs[kl] = coeffs[kl] + 1
        bad = CRSClass(sub, SchurExpansion(coeffs))
        monkeypatch.setattr(crs_module, "crs_class",
                            lambda x, bad=bad: bad if Partition(x) == sub else crs_class(x))
        # a failed check keeps nothing on the class, so the second peel checks again
        for _ in range(2):
            with pytest.raises(PolynomialityViolation):
                crs_class_peeled(lam, m)


def test_each_smaller_class_is_put_in_the_basis_once(monkeypatch):
    """From a cold cache, the 134 peels up to weight 14 run the m-independent
    half once for each of their 34 smaller classes, and give the classes a
    peel that keeps nothing gives."""
    lams = [lam for lam in strata(14) if lam]
    calls = []

    def counted(rows, m):
        calls.append(m)
        return _basis(rows, m)

    def fresh(x):
        # a fresh copy of the smaller class carries no basis, so the peel runs both halves
        cls = crs_class(x)
        return CRSClass(cls.partition, cls.expansion)

    crs_module._crs_cached.cache_clear()
    monkeypatch.setattr(crs_module, "_basis", counted)
    got = [crs_class(lam) for lam in lams]
    assert (len(lams), len(calls)) == (134, 34)
    monkeypatch.setattr(crs_module, "crs_class", fresh)
    for lam, cls in zip(lams, got):
        assert crs_class_peeled(lam, lam.largest) == cls, lam
    assert len(calls) == 34 + 134


# The list kernel the packed level replaced, kept as its reference: rows of
# d-coefficient lists of one width, over one shared denominator.

def list_roots_row(cls, m):
    """The class on the roots a, b with d shifted to d - m, as (row, den)."""
    n, width = cls.partition.codim, cls.partition.weight + 1
    lists, den = common_numerators(
        [cls.coefficient(n - l, l) for l in range(n // 2 + 1)])
    half, acc = [], [0] * width
    for nums in lists:
        acc = [x + y for x, y in zip(acc, nums + [0] * (width - len(nums)))]
        half.append(taylor_shift(acc, -m))
    return [half[min(i, n - i)] for i in range(n + 1)], den


def list_twist_row(row, m):
    """Send a to a*d / (d - m) and b to (b*(d - m) + a*m) / (d - m)."""
    n, width = len(row) - 1, len(row[0])
    out, divisor = [], [1]
    for i in range(n + 1):
        acc = [0] * (width + i)
        for j in range(i + 1):
            scale = comb(n - j, i - j) * m ** (i - j)
            acc[j:j + width] = [x + scale * y for x, y in zip(acc[j:j + width], row[j])]
        quot, rem = pseudo_divmod(acc, divisor)
        if any(rem):
            raise PolynomialityViolation(f"(d - {m})**{i} leaves a remainder")
        out.append(quot)
        divisor = [y - m * x for x, y in zip(divisor + [0], [0] + divisor)]
    return out


def list_euler_row(row, m):
    """Multiply by (i*a + (d - i)*b) for i = 0 .. m-1, one factor at a time."""
    row = [nums + [0] * m for nums in row]
    zero = [0] * len(row[0])
    for i in range(m):
        out, prev = [], zero
        for cur in row + [zero]:
            out.append([i * (p - c) + s for p, c, s in zip(prev, cur, [0] + cur)])
            prev = cur
        row = out
    return row


def list_schur_readout(row, den):
    """Schur coefficient of s_{k,l} is row[l] - row[k + 1], over den."""
    top = len(row) - 1
    return SchurExpansion({
        (top - 1 - l, l): _canonical([x - y for x, y in zip(row[l], row[top - l])], den)
        for l in range((top + 1) // 2)})


def list_rows(rows, m):
    """The list kernel's level rows, before the readout, on rows of e-coefficients, e = d - m."""
    width = max(map(len, rows))
    row = [taylor_shift(nums + [0] * (width - len(nums)), -m) for nums in rows]
    return list_euler_row(list_twist_row(row, m), m)


def list_level(rows, m, den):
    """The list kernel on rows of e-coefficients, e = d - m."""
    return list_schur_readout(list_rows(rows, m), den)


def test_list_reference_reproduces_the_classes():
    for lam in strata(10):
        for m in set(lam.parts):
            row, den = list_roots_row(crs_class(lam.remove_one(m)), m)
            got = list_schur_readout(list_euler_row(list_twist_row(row, m), m),
                                     den * lam.multiplicity(m))
            assert got == crs_class(lam).expansion, (lam, m)


def _divisible_rows(n, gs):
    """Rows of sum over k of e^(n-k) gs[k](e) (b - a)^k a^(n-k), by a^i b^(n-i).

    The twist sends b - a to e*(b - a) and a to a*(e + m), so these are
    exactly the rows whose twisted row i the power e^i divides.
    """
    width = max(len(g) + n - k for k, g in enumerate(gs))
    rows = [[0] * width for _ in range(n + 1)]
    for k, g in enumerate(gs):
        for t in range(k + 1):  # b^t (-a)^(k-t) a^(n-k) lands on row n - t
            scale = comb(k, t) * (-1) ** (k - t)
            for u, x in enumerate(g):
                rows[n - t][n - k + u] += scale * x
    return rows


@given(st.integers(0, 12), st.integers(1, 14), st.integers(1, 10 ** 12), st.data())
@settings(max_examples=150, deadline=None)
def test_packed_level_matches_the_list_kernel(n, m, den, data):
    """Same readout as the list kernel, or PolynomialityViolation from both."""
    big = st.integers(-(2 ** 300), 2 ** 300)
    kind = data.draw(st.sampled_from(["divisible", "perturbed", "random"]))
    if kind == "random":
        width = data.draw(st.integers(1, 30))
        rows = data.draw(st.lists(st.lists(big, min_size=width, max_size=width),
                                  min_size=n + 1, max_size=n + 1))
    else:
        # lengths drawn uniformly: wide rows, where the digits need the most
        # room, come up as often as narrow ones
        sizes = [data.draw(st.integers(1, 30 - (n - k))) for k in range(n + 1)]
        gs = [data.draw(st.lists(big, min_size=size, max_size=size)) for size in sizes]
        rows = _divisible_rows(n, gs)
        if kind == "perturbed":
            i = data.draw(st.integers(0, n))
            t = data.draw(st.integers(0, max(0, min(n, len(rows[i])) - 1)))
            rows[i][t] += data.draw(big.filter(bool))
    try:
        want = list_level(rows, m, den)
    except PolynomialityViolation:
        with pytest.raises(PolynomialityViolation):
            _basis(rows, m)
    else:
        packed, bits = _twist(_basis(rows, m), m)
        assert _schur_readout(packed, den, bits) == want
        # each packed row, read alone, is the list kernel's row: the incidence
        # class reads single rows off the same digits
        listed = list_rows(rows, m)
        for nums in listed:
            while nums and not nums[-1]:
                nums.pop()
        assert [_digits(v, bits) for v in packed] == listed


@pytest.mark.parametrize("n", range(4))
def test_packed_level_has_room_for_wide_rows_of_large_numerators(n):
    """Every numerator at the bound, signs alternating, at every width: the
    digits need all the room W gives them, whatever hypothesis draws."""
    big = 2 ** 300 - 1
    for m in (2, 3, 7):
        for width in (n + 1, n + 5, 20):
            gs = [[(-1) ** u * big for u in range(width - (n - k))] for k in range(n + 1)]
            rows = _divisible_rows(n, gs)
            packed, bits = _twist(_basis(rows, m), m)
            assert _schur_readout(packed, 1, bits) == list_level(rows, m, 1), (m, width)


CHECK_ROUTES = Path(__file__).with_name("check_routes.py")


def test_route_check_passes_at_weight_6():
    proc = subprocess.run([sys.executable, str(CHECK_ROUTES), "6"],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "ok: 11 strata of weight <= 6\n", "")


@pytest.mark.parametrize(
    "argv", [[], ["x"], ["--class", "2,1"], ["\u00b2"], ["9" * 5000], ["101"]])
@pytest.mark.parametrize(
    "script", ["check_routes.py", "check_theorems.py", "check_localization.py"])
def test_check_scripts_print_the_usage_line_without_a_weight(script, argv):
    proc = subprocess.run([sys.executable, str(CHECK_ROUTES.with_name(script)), *argv],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"usage: {script} <max_weight> | --class <partition>\n")


def test_check_scripts_stop_before_making_the_strata_they_do_not_check(capsys, monkeypatch):
    made = []

    def counted(weight):
        for lam in stratum_partitions(weight):
            made.append(lam)
            yield lam

    monkeypatch.setattr(strata_sweep, "stratum_partitions", counted)
    assert strata_sweep.main(lambda lam: "stop", ["30"]) == 1
    assert capsys.readouterr().out == "FAIL stop\n"
    assert made == [Partition(())]
    assert strata_sweep.main(lambda lam: None, ["6"]) == 0
    assert capsys.readouterr().out == "ok: 11 strata of weight <= 6\n"


def test_route_check_reports_a_disagreeing_route_in_one_line(capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location("check_routes", CHECK_ROUTES)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    resolve = script.tangency_class_resolution

    def doubled_at_weight_4(lam, n):
        cls = resolve(lam, n)
        if lam.weight == 4:
            cls.expansion = cls.expansion * 2
        return cls

    monkeypatch.setattr(script, "tangency_class_resolution", doubled_at_weight_4)
    assert script.main(script.failure, ["6"]) == 1
    symbolic = crs_class((4,)).expansion
    assert capsys.readouterr().out == (
        f"FAIL (4): resolution route gives {symbolic * 2}, symbolic {symbolic}\n")

    def doubled_at_weight_3(lam, d0):
        return crs_class_at(lam, d0) * (2 if lam.weight == 3 else 1)

    monkeypatch.setattr(script, "crs_class_at", doubled_at_weight_3)
    assert script.main(script.failure, ["6"]) == 1
    want = crs_class((3,)).coefficient(1, 1)(3)
    assert capsys.readouterr().out == (
        f"FAIL (3): per-d route at d=3 gives s_{{1,1}} = {want * 2}, symbolic {want}\n")

    monkeypatch.undo()
    localize = script.localized_by_subset_sums

    def doubled_at_weight_2(lam, d, alpha, beta):
        return localize(lam, d, alpha, beta) * (2 if lam.weight == 2 else 1)

    monkeypatch.setattr(script, "localized_by_subset_sums", doubled_at_weight_2)
    assert script.main(script.failure, ["6"]) == 1
    want = localize(Partition((2,)), 2, 2, 1)
    assert capsys.readouterr().out == (
        f"FAIL (2): localization at d=2, a=2 gives {want * 2}, symbolic {want}\n")


def _decorator_names(node):
    """The last dotted name of each decorator on the test function a node id names."""
    file, _, name = node.partition("::")
    tree = ast.parse(CHECK_ROUTES.with_name(file).read_text())
    test = next(f for f in tree.body
                if isinstance(f, ast.FunctionDef) and f.name == name.partition("[")[0])
    return {ast.unparse(getattr(d, "func", d)).rpartition(".")[2] for d in test.decorator_list}


def test_mutant_check_reports_a_stale_entry_without_running_pytest(capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "check_mutants", CHECK_ROUTES.with_name("check_mutants.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def refuse(*args, **kwargs):
        raise AssertionError("pytest started")

    monkeypatch.setattr(script.subprocess, "run", refuse)
    for file, old, _, why, killers in script.MUTANTS:
        assert (script.SRC / "rootstrata" / file).read_text().count(old) == 1, why
        assert killers and not any(map(script.missing, killers)), why
        # one run decides the verdict, so no killer may draw its examples
        assert not any("given" in _decorator_names(node) for node in killers), why
    killer = "test_crs.py::test_packed_level_matches_the_list_kernel"
    stale = ("crs.py", "v = (v << bits) - m * v + y", "v = 0", "every class", [killer])
    assert script.main([stale]) == 1
    assert capsys.readouterr().out == (
        "FAIL crs.py (every class): old text occurs 0 times, the mutant no longer applies\n")
    gone = ("crs.py", "v = (v << bits) - m * v + x", "v = 0", "every class",
            [killer, "test_crs.py::test_gone"])
    assert script.main([gone]) == 1
    assert capsys.readouterr().out == (
        "FAIL crs.py (every class): killer node test_crs.py::test_gone names no test\n")


@pytest.mark.parametrize("code,verdict", [(0, "its killer nodes pass"), (1, None),
                                          (4, "its killer nodes exited 4, not with a failed test")])
def test_mutant_check_decides_on_one_run_of_the_killer_nodes(code, verdict, capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "check_mutants", CHECK_ROUTES.with_name("check_mutants.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    runs = []

    def fake_pytest(tmp, src, tests):
        runs.append(list(tests))
        return code

    monkeypatch.setattr(script, "_pytest", fake_pytest)
    entry = script.MUTANTS[0]
    file, _, _, why, killers = entry
    line = verdict and f"{file} ({why}): {verdict}"
    assert script.failure(*entry) == line
    assert runs == [[str(script.TESTS / node) for node in killers]]
    assert script.main([entry]) == (1 if line else 0)
    assert capsys.readouterr().out == (f"FAIL {line}\n" if line else "ok: 1 mutants killed\n")
