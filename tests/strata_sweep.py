"""The sweep over all strata up to a weight, shared by the tests and the check scripts.

The file is named so that pytest does not collect it.
"""

import os
import sys

from rootstrata.partitions import stratum_partitions


def strata(max_weight):
    """Every stratum of weight at most max_weight, lightest first."""
    out = []
    for w in range(max_weight + 1):
        out.extend(stratum_partitions(w))
    return out


def main(failure, argv):
    """Run failure(lam) on every stratum up to the weight argv names.

    The first line failure returns is printed after FAIL with exit code 1;
    a pass prints the number of strata checked; a bad argument prints the
    script's usage line on stderr and exits 2.
    """
    if len(argv) != 1 or not argv[0].isdigit():
        script = os.path.basename(failure.__code__.co_filename)
        print(f"usage: {script} <max_weight>", file=sys.stderr)
        return 2
    max_weight = int(argv[0])
    lams = strata(max_weight)
    for lam in lams:
        line = failure(lam)
        if line:
            print(f"FAIL {line}")
            return 1
    print(f"ok: {len(lams)} strata of weight <= {max_weight}")
    return 0
