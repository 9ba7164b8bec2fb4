"""The sweep over all strata up to a weight, or one named stratum, shared by the
tests and the check scripts.

The file is named so that pytest does not collect it.
"""

import os
import sys

from rootstrata.errors import InvalidPartition
from rootstrata.partitions import MAX_WEIGHT, stratum_partitions, validate_stratum


def _lightest_first(max_weight):
    """Every stratum of weight at most max_weight, lightest first, one at a time."""
    for w in range(max_weight + 1):
        yield from stratum_partitions(w)


def strata(max_weight):
    """Every stratum of weight at most max_weight, lightest first."""
    return list(_lightest_first(max_weight))


def _named(argv):
    """The strata argv names and how a pass reports their count, or None for a bad argv."""
    # isdecimal, not isdigit: int() refuses a digit such as the superscript 2
    if len(argv) == 1 and argv[0].isdecimal():
        try:
            weight = int(argv[0])
        except ValueError:  # more digits than int() converts
            return None
        if weight > MAX_WEIGHT:  # the package answers no stratum above it
            return None
        return _lightest_first(weight), lambda count: f"{count} strata of weight <= {weight}"
    if len(argv) == 2 and argv[0] == "--class":
        try:
            lam = validate_stratum(argv[1])
        except InvalidPartition:
            return None
        return [lam], lambda count: str(lam)
    return None


def main(failure, argv):
    """Run failure(lam) on every stratum up to the weight argv names, or on the
    one stratum that `--class <partition>` names.

    The strata are made one at a time, so checking starts at once.  The first
    line failure returns is printed after FAIL with exit code 1; a pass prints
    what was checked; a bad argument prints the script's usage line on stderr
    and exits 2.
    """
    named = _named(argv)
    if named is None:
        script = os.path.basename(failure.__code__.co_filename)
        print(f"usage: {script} <max_weight> | --class <partition>", file=sys.stderr)
        return 2
    lams, checked = named
    count = 0
    for count, lam in enumerate(lams, 1):
        line = failure(lam)
        if line:
            print(f"FAIL {line}")
            return 1
    print(f"ok: {checked(count)}")
    return 0
