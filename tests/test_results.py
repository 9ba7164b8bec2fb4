"""The result classes' shared equality, and refusals that no other test reaches."""

from fractions import Fraction

import pytest

from rootstrata import docs, plucker
from rootstrata.combinat import kostka
from rootstrata.crs import CRSClass
from rootstrata.dpoly import D
from rootstrata.errors import DegreeMismatch, OutOfRange, PolynomialityViolation
from rootstrata.flagcalc import FlagClass, GrassClass, ProjClass
from rootstrata.multipoly import MultiPoly, substitute_homogeneous
from rootstrata.partitions import Partition
from rootstrata.plucker import (PluckerTable, degree_table, lines_on_hypersurface,
                                mflex_polynomial)
from rootstrata.schur import SchurExpansion
from rootstrata.universal import UniversalClass

_A, _B, _ZETA = (MultiPoly.variable(v) for v in ("a", "b", "zeta"))

# (class, its _FIELDS, a builder of fresh equal instances, another value of each
# field, the repr of a built instance)
RESULTS = [
    (CRSClass, ("partition", "expansion"),
     lambda: CRSClass(Partition((2,)), SchurExpansion({(1, 0): D ** 2 - D})),
     {"partition": Partition((3,)), "expansion": SchurExpansion({(1, 0): D ** 2})},
     "CRSClass([(2)] = (d^2 - d)*s_{1,0})"),
    (PluckerTable, ("partition", "entries"),
     lambda: PluckerTable(Partition((3,)), [(2, D ** 3), (0, 3 * D)]),
     {"partition": Partition((4,)), "entries": ((2, D ** 3),)},
     "PluckerTable(Pl_{(3),2} = d^3\nPl_{(3),0} = 3*d)"),
    (SchurExpansion, ("coeffs",),
     lambda: SchurExpansion({(1, 0): D, (0, 0): 3}),
     {"coeffs": SchurExpansion({(1, 0): D}).coeffs},
     "SchurExpansion((d)*s_{1,0} + 3)"),
    (FlagClass, ("poly", "ambient_n"),
     lambda: FlagClass(MultiPoly.variable("zeta") * D, 3),
     {"poly": MultiPoly.variable("eta") * D, "ambient_n": 4},
     "FlagClass((d)*zeta, n=3)"),
    (GrassClass, ("expansion", "ambient_n"),
     lambda: GrassClass(SchurExpansion({(1, 0): D}), 4),
     {"expansion": SchurExpansion({(1, 1): D}), "ambient_n": 5},
     "GrassClass((d)*s_{1,0}, n=4)"),
    (ProjClass, ("poly", "ambient_n"),
     lambda: ProjClass(MultiPoly.variable("zeta") * D, 3),
     {"poly": MultiPoly.variable("zeta") * 2, "ambient_n": 4},
     "ProjClass((d)*zeta, n=3)"),
    (UniversalClass, ("partition", "poly"),
     lambda: UniversalClass(Partition((2,)), MultiPoly.variable("xi") * (2 * D - 2)),
     {"partition": Partition((3,)), "poly": MultiPoly.variable("a")},
     "UniversalClass((2): (2*d - 2)*xi)"),
]


@pytest.mark.parametrize("cls,fields,make,changed,text", RESULTS,
                         ids=[case[0].__name__ for case in RESULTS])
def test_results_compare_field_by_field(cls, fields, make, changed, text):
    a, b = make(), make()
    assert type(a) is cls and cls._FIELDS == fields
    assert a == b and not a != b
    assert repr(a) == text
    for field in fields:
        c = make()
        setattr(c, field, changed[field])
        assert a != c and c != a, field
    # a slot outside _FIELDS, such as CRSClass's peel memo, is no part of the value
    for name in set(cls.__slots__) - set(fields):
        c = make()
        setattr(c, name, object())
        assert a == c, name
    for make_other in [case[2] for case in RESULTS if case[0] is not cls] + [object]:
        other = make_other()
        assert a.__eq__(other) is NotImplemented and a != other, type(other)
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def test_results_of_two_types_differ_with_equal_fields():
    assert FlagClass(_ZETA, 3) != ProjClass(_ZETA, 3)
    assert ProjClass(_ZETA, 3) != FlagClass(_ZETA, 3)


def _degree_table_of_a_wrong_table():
    """degree_table((2,)) on a table whose one entry has degree 1, not 2."""
    wrong = PluckerTable(Partition((2,)), [(1, D)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(plucker, "plucker_table", lambda lam: wrong)
        degree_table((2,))


def _lines_on_a_cubic_of_half_a_line():
    """lines_on_hypersurface(3) on an expansion whose balanced coefficient is 1/2."""
    half = SchurExpansion({(2, 2): Fraction(1, 2)})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(plucker, "schur_expand", lambda form: half)
        lines_on_hypersurface(3)


REFUSALS = [
    ("crs-off-diagonal",
     lambda: CRSClass(Partition((2,)), SchurExpansion({(2, 0): D ** 2})),
     ValueError, "index (2,0) off the codimension-1 diagonal"),
    ("crs-above-the-weight",
     lambda: CRSClass(Partition((2,)), SchurExpansion({(1, 0): D ** 3})),
     ValueError, "coefficient of s_{1,0} exceeds degree 2"),
    ("crs-top-below-the-weight",
     lambda: CRSClass(Partition((2,)), SchurExpansion({(1, 0): D})),
     ValueError, "top coefficient must have degree exactly 2, got d"),
    ("flag-variables", lambda: FlagClass(_A),
     ValueError, "flag classes use zeta, eta, xi; got ['a']"),
    ("flag-ambient", lambda: FlagClass(_ZETA, 2),
     ValueError, "ambient projective space needs n >= 3"),
    ("universal-variables", lambda: UniversalClass(Partition((2,)), _ZETA),
     ValueError, "universal classes use a, b, xi; got ['zeta']"),
    ("multipoly-repeated-name", lambda: MultiPoly(("a", "a"), {(1, 0): 1}),
     ValueError, "repeated variable name"),
    ("multipoly-arity", lambda: MultiPoly(("a",), {(1, 1): 1}),
     ValueError, "exponent arity does not match the variables"),
    ("multipoly-negative-exponent", lambda: MultiPoly(("a",), {(-1,): 1}),
     ValueError, "negative exponent"),
    ("schur-index", lambda: SchurExpansion({(0, 1): 1}),
     ValueError, "bad index (0, 1): need k >= l >= 0"),
    ("substitution-not-homogeneous",
     lambda: substitute_homogeneous(_A + 1, {"a": MultiPoly.scalar(1)}, D),
     ValueError, "shared-denominator substitution needs a homogeneous input"),
    ("substitution-missing-numerator",
     lambda: substitute_homogeneous(_A * _B, {"a": MultiPoly.scalar(1)}, D),
     ValueError, "no numerator given for ['b']"),
    ("kostka-negative-content", lambda: kostka((2,), (3, -1)),
     ValueError, "negative content"),
    ("degree-table-mismatch", _degree_table_of_a_wrong_table,
     DegreeMismatch, "Pl_{(2),1} has degree 1, predicted 2"),
    ("class-document-basis", lambda: docs.class_document((2,), basis="foo"),
     ValueError, "unknown basis 'foo'"),
    ("incidence-document-basis", lambda: docs.incidence_document((2, 2), 2, basis="foo"),
     ValueError, "unknown basis 'foo'"),
    ("text-form-command", lambda: docs.emit_text({"command": "foo", "d": "symbolic"}),
     ValueError, "no text form for foo"),
    ("dpoly-negative-power", lambda: D ** -1,
     ValueError, "negative power of a polynomial"),
    ("multipoly-negative-power", lambda: _A ** -1,
     ValueError, "negative power of a polynomial"),
    ("multipoly-unknown-variable", lambda: _A.substitute({"q": 1}),
     ValueError, "unknown variable 'q'"),
    ("two-var-terms-extra-variable", lambda: (_A * _ZETA).two_var_terms("a", "b"),
     ValueError, "unexpected variables ['zeta'] (wanted only a, b)"),
    ("plucker-table-missing-entry",
     lambda: PluckerTable(Partition((3,)), [(2, D)]).polynomial(1),
     KeyError, "'no entry at i = 1 for (3)'"),
    ("mflex-below-2i-plus-1", lambda: mflex_polynomial(4, 2),
     OutOfRange, "need m >= 2i+1, got m=4, i=2"),
    ("line-count-not-an-integer", _lines_on_a_cubic_of_half_a_line,
     PolynomialityViolation, "line count 1/2 is not an integer"),
]


@pytest.mark.parametrize("call,error,message", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_refusals_name_what_they_refuse(call, error, message):
    with pytest.raises(Exception) as caught:
        call()
    assert (caught.type, str(caught.value)) == (error, message)
