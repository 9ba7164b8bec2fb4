"""Drive every frozen self-test check through pytest."""

import pytest

from rootstrata.golden import CHECKS, first_miss


@pytest.mark.parametrize("name,fn", CHECKS, ids=[name for name, _ in CHECKS])
def test_golden_check(name, fn):
    detail = first_miss(fn())
    assert detail is None, f"{name}: {detail}"


def test_every_check_compares_something():
    """A check that yields no comparison would pass whatever the library computes."""
    for name, fn in CHECKS:
        assert next(fn(), None) is not None, name


def test_first_miss_stops_at_the_first_miss():
    def comparisons():
        yield "n=3", 9, 9
        yield "n=5", 99715, 99716
        yield "", 1, 2
        raise AssertionError("read past the first miss")

    assert first_miss(comparisons()) == "n=5: got 99715, wanted 99716"
    assert first_miss([("", 2, 2), ("", "1", "-zeta")]) == "got 1, wanted -zeta"


def test_first_miss_is_none_when_every_comparison_matches():
    assert first_miss([("", 27, 27), ("d=2", True, True), ("(3)", "x", "x")]) is None
    assert first_miss([]) is None
