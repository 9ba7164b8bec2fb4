"""Partition parsing, reduction, and stratum enumeration."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootstrata.errors import InvalidPartition
from rootstrata.partitions import (MAX_WEIGHT, Partition, stratum_partitions,
                                   validate_stratum)


def test_parse_forms():
    assert Partition.parse("3,2,2").parts == (3, 2, 2)
    assert Partition.parse("2^3").parts == (2, 2, 2)
    assert Partition.parse("4,2^2").parts == (4, 2, 2)
    assert Partition.parse("").parts == ()
    assert Partition.parse("-").parts == ()
    assert Partition.parse("2,3").parts == (3, 2)  # sorted descending


def test_parse_rejects_garbage():
    for text in ("x", "2,x", "2^", "^3", "2,-1", "2^0", "2^-3"):
        with pytest.raises(InvalidPartition):
            Partition.parse(text)


def test_basic_accessors():
    lam = Partition((3, 2, 2))
    assert lam.weight == 7
    assert lam.largest == 3
    assert len(lam) == 3
    assert lam.multiplicities() == {3: 1, 2: 2}
    assert lam.multiplicity(2) == 2
    assert lam.multiplicity_factorial() == 2
    assert lam.reduction().parts == (2, 1, 1)
    assert lam.codim == 4
    assert lam.remove_one(2).parts == (3, 2)
    assert str(lam) == "(3,2,2)"


def test_empty_partition():
    lam = Partition(())
    assert lam.weight == 0 and lam.codim == 0 and not lam
    assert lam.reduction().parts == ()


def test_validate_stratum():
    validate_stratum(Partition((2, 2)))
    with pytest.raises(InvalidPartition):
        validate_stratum(Partition((2, 1)))


def test_stratum_partitions_counts():
    # no stratum has weight 1; weight counts follow partitions into parts >= 2
    counts = [len(list(stratum_partitions(w))) for w in range(10)]
    assert counts == [1, 0, 1, 1, 2, 2, 4, 4, 7, 8]
    assert sum(counts) == 30


def test_stratum_partitions_are_valid():
    for w in range(10):
        for lam in stratum_partitions(w):
            assert lam.weight == w
            assert all(p >= 2 for p in lam.parts) or not lam.parts


@given(st.lists(st.integers(1, 9), max_size=6))
@settings(max_examples=50, deadline=None)
def test_ordering_and_equality(parts):
    lam = Partition(tuple(parts))
    assert lam == Partition(tuple(sorted(parts, reverse=True)))
    assert lam == tuple(sorted(parts, reverse=True))
    assert lam.weight == sum(parts)


def test_ordering_refuses_other_types():
    assert Partition((2, 2)) < Partition((5,))
    for bad in (lambda: Partition((2,)) < 3, lambda: 3 > Partition((2,)),
                lambda: Partition((2,)) < (3,), lambda: sorted([Partition((2,)), "2"])):
        with pytest.raises(TypeError):
            bad()


def test_every_comparison_orders_by_weight_then_parts():
    assert Partition((2,)) <= Partition((3,))
    lams = [Partition(p) for p in [(), (1,), (2,), (1, 1), (3,), (2, 1), (2, 2), (4,), (3, 1)]]
    for x in lams:
        for y in lams:
            kx, ky = (x.weight, x.parts), (y.weight, y.parts)
            assert (x < y, x <= y, x > y, x >= y) == (kx < ky, kx <= ky, kx > ky, kx >= ky)
    for bad in (lambda: Partition((2,)) <= 3, lambda: Partition((2,)) >= 3,
                lambda: Partition((2,)) > 3, lambda: 3 <= Partition((2,))):
        with pytest.raises(TypeError):
            bad()


def test_parse_bounds_the_weight_before_allocating():
    tracemalloc.start()
    try:
        for text in ("2^1000000", f"3,2^{10 ** 18}", f"0^{10 ** 18}", "2^400"):
            with pytest.raises(InvalidPartition, match="maximum weight"):
                Partition.parse(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert Partition.parse(f"2^{MAX_WEIGHT // 2}").weight == MAX_WEIGHT
    for text in (f"2^{MAX_WEIGHT // 2 + 1}", str(MAX_WEIGHT + 1), f"4,2^{MAX_WEIGHT // 2 - 1}"):
        with pytest.raises(InvalidPartition):
            Partition.parse(text)
