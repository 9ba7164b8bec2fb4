"""Check the paper's theorems on every stratum up to a weight.

Usage: PYTHONPATH=src python tests/check_theorems.py <max_weight>
       PYTHONPATH=src python tests/check_theorems.py --class <partition>

For every stratum of weight w <= max_weight: degree_table's drop rule
holds, each leading d-coefficient of the Pluecker table is the Kostka
value asymptotic_plucker gives (0 where the degree drops), and the table
takes integer values at d = w, w + 1 and 2w + 3, and hilbert_degree is
Hilbert's degree formula (hilbert_formula in tests/test_universal.py).
For w <= 10, the point-map pushforward q_push also meets the projection
formula and the point counts (point_pushforward_checks in
tests/test_flagcalc.py).
The first failure exits 1 with one line; a pass prints the number of
strata checked.
The file is named so that pytest does not collect it.
"""

import sys

from rootstrata.errors import RootStrataError
from rootstrata.plucker import asymptotic_plucker, degree_table, plucker_table
from rootstrata.universal import hilbert_degree
from strata_sweep import main
from test_flagcalc import point_pushforward_checks
from test_universal import hilbert_formula


def failure(lam):
    """One line naming the first theorem lam breaks, or None."""
    try:
        degree_table(lam)
    except RootStrataError as exc:
        return f"{lam}: {type(exc).__name__}: {exc}"
    table = plucker_table(lam)
    w = lam.weight
    for i, value in asymptotic_plucker(lam):
        p = table.polynomial(i)
        top = p.leading() if p.degree == w else 0
        if top != value:
            return f"{lam}: leading d^{w} coefficient of Pl_{i} is {top}, not {value}"
    for d0 in (w, w + 1, 2 * w + 3):
        for i, v in table.evaluate(d0):
            if v.denominator != 1:
                return f"{lam}: Pl_{i} at d={d0} is {v}, not an integer"
    got, want = hilbert_degree(lam), hilbert_formula(lam)
    if got != want:
        return f"{lam}: hilbert_degree is {got}, Hilbert's formula gives {want}"
    if w <= 10:
        for what, got, want in point_pushforward_checks(lam):
            if got != want:
                return f"{lam}: {what} is {got}, the line pushforward gives {want}"
    return None


if __name__ == "__main__":
    sys.exit(main(failure, sys.argv[1:]))
