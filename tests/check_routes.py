"""Compare the other routes to each stratum class up to a weight.

Usage: PYTHONPATH=src python tests/check_routes.py <max_weight>

For every stratum of weight w <= max_weight, the symbolic class
crs_class must equal the per-d route (crs_class_at at d = w .. 2w + 1,
interpolated to degree w, the extra point a consistency check), the
resolution route (tangency_class_resolution through the incidence
variety, ambient space just large enough) and, in the roots, torus
localization (localized_by_subset_sums at d = w and 2w + 3, a = 2 and 3,
b = 1).  The first failure exits 1 with one line; a pass prints the
number of strata checked.
The file is named so that pytest does not collect it.
"""

import sys

from rootstrata.crs import crs_class, crs_class_at
from rootstrata.dpoly import interpolate
from rootstrata.errors import RootStrataError
from rootstrata.flagcalc import tangency_class_resolution
from strata_sweep import main
from test_localization import at_point, localized_by_subset_sums


def failure(lam):
    """One line naming the first route that disagrees with the symbolic class, or None."""
    try:
        symbolic = crs_class(lam).expansion
        points = range(lam.weight, 2 * lam.weight + 2)
        per_d = [crs_class_at(lam, d0) for d0 in points]
        for kl in sorted(set(symbolic.indices()).union(*(e.indices() for e in per_d))):
            samples = [(d0, e.coefficient(*kl)) for d0, e in zip(points, per_d)]
            got = interpolate(samples, lam.weight)
            if got != symbolic.coefficient(*kl):
                return (f"{lam}: per-d route gives s_{{{kl[0]},{kl[1]}}} = {got}, "
                        f"symbolic {symbolic.coefficient(*kl)}")
        resolved = tangency_class_resolution(lam, lam.codim + 2).expansion
    except RootStrataError as exc:
        return f"{lam}: {type(exc).__name__}: {exc}"
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
    sys.exit(main(failure, sys.argv[1:]))
