"""Pin each stratum class by torus localization on a grid, up to a weight.

Usage: PYTHONPATH=src python tests/check_localization.py <max_weight>
       PYTHONPATH=src python tests/check_localization.py --class <partition>

For every stratum of weight w <= max_weight, or for the one stratum that
--class names (text like 7^14,2), crs_class(lam) in the roots must equal
localized_by_subset_sums at d = w .. 2w and (a, b) = (t, 1) for
t = 2 .. codim + 2: class_grid from tests/test_localization.py, whose
docstring says why that grid pins every coefficient of the class.

The first failure exits 1 with one line; a pass prints the number of
strata checked, or the class.
The file is named so that pytest does not collect it.
"""

import sys

from strata_sweep import main
from test_localization import class_grid


def failure(lam):
    """One line naming the first grid point where the class and localization differ, or None."""
    for d, t, got, want in class_grid(lam):
        if got != want:
            return f"{lam}: localization at d={d}, a={t} gives {want}, symbolic {got}"
    return None


if __name__ == "__main__":
    sys.exit(main(failure, sys.argv[1:]))
