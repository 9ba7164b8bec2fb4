"""Compare the other routes to each stratum class up to a weight.

Usage: PYTHONPATH=src python tests/check_routes.py <max_weight>
       PYTHONPATH=src python tests/check_routes.py --class <partition>

For every stratum of weight w <= max_weight, four legs must agree: the
symbolic class crs_class and three routes checked against it.

- Per d: crs_class_at(lam, d) must equal crs_class(lam).evaluate(d) at
  every d = w .. 2w + 1.  CRSClass refuses a coefficient of degree above
  w in d, so agreement at w + 1 degrees proves what interpolating the
  per-d values to degree w would; the one degree more checks that the
  values lie on a polynomial of degree <= w.
- Resolution: tangency_class_resolution through the incidence variety,
  ambient space just large enough.  Run as a script, it is memoized in
  its module too, where its recursion finds it: each smaller class is
  resolved once, when it is checked itself, and read from the memo after.
- Localization, in the roots: localized_by_subset_sums at d = w and
  2w + 3, a = 2 and 3, b = 1.

The first failure exits 1 with one line; a pass prints the number of
strata checked.
The file is named so that pytest does not collect it.
"""

import sys
from functools import lru_cache

from rootstrata import flagcalc
from rootstrata.crs import crs_class, crs_class_at
from rootstrata.errors import RootStrataError
from rootstrata.flagcalc import tangency_class_resolution
from strata_sweep import main
from test_localization import at_point, localized_by_subset_sums


def failure(lam):
    """One line naming the first route that disagrees with the symbolic class, or None."""
    try:
        cls = crs_class(lam)
        for d0 in range(lam.weight, 2 * lam.weight + 2):
            got, want = crs_class_at(lam, d0), cls.evaluate(d0)
            for k, l in sorted(set(got.indices()).union(want.indices())):
                if got.coefficient(k, l) != want.coefficient(k, l):
                    return (f"{lam}: per-d route at d={d0} gives s_{{{k},{l}}} = "
                            f"{got.coefficient(k, l)}, symbolic {want.coefficient(k, l)}")
        resolved = tangency_class_resolution(lam, lam.codim + 2).expansion
    except RootStrataError as exc:
        return f"{lam}: {type(exc).__name__}: {exc}"
    symbolic = cls.expansion
    if resolved != symbolic:
        return f"{lam}: resolution route gives {resolved}, symbolic {symbolic}"
    roots = symbolic.to_roots()
    for d in (lam.weight, 2 * lam.weight + 3):
        for a in (2, 3):
            want = localized_by_subset_sums(lam, d, a, 1)
            got = at_point(roots, d, a=a, b=1)
            if got != want:
                return f"{lam}: localization at d={d}, a={a} gives {want}, symbolic {got}"
    return None


if __name__ == "__main__":
    tangency_class_resolution = flagcalc.tangency_class_resolution = lru_cache(
        maxsize=None)(tangency_class_resolution)
    sys.exit(main(failure, sys.argv[1:]))
