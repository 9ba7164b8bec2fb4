"""Mutant corpus: every known way to break the kernels and routes fails tier-1.

Usage: python tests/check_mutants.py

Each entry is (file under src/rootstrata, old text, new text, why), where
why names an output the edit changes.  For each entry src/ is copied to a
temporary directory, the old text, which must occur exactly once, is
replaced by the new text, and tier-1 runs against the copy with -x, a
fixed hypothesis seed and no cache, the source rules first.  A mutant
the tests let pass, or an entry whose old text no longer occurs exactly
once, prints one FAIL line and the exit code is 1; otherwise the script
prints how many mutants were killed.  Stdlib only; the file is named so
that pytest does not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
SEED = 0
# tier-1, the source rules first: they only read the code, so a mutant they kill stops at once
TIER_1 = sorted(TESTS.glob("test_*.py"),
                key=lambda path: (path.name != "test_source_rules.py", path.name))

MUTANTS = [
    ("flagcalc.py", "((top - i, i), c)", "((i, top - i), c)",
     "incidence_class((2,2), 2) swaps zeta and eta"),
    ("crs.py", "_canonical(_digits(v, bits), den) for v in row]",
     "_canonical(_digits(v, bits), 1) for v in row]",
     "incidence_class((2,2,2), 2) loses the 1/2 of its smaller class"),
    ("crs.py", "_digits(row[l] - row[top - l], bits)", "_digits(row[l] - row[top - 1 - l], bits)",
     "every class string of codimension >= 1"),
    ("crs.py", "v = (v << bits) - m * v + x", "v = (v << bits) + x",
     "quotients packed at d instead of d - m: every class of two or more parts"),
    ("crs.py", "if any(gk[:n - k]):", "if any(gk[1:n - k]):",
     "a level the twist does not clear reads out a class instead of PolynomialityViolation"),
    ("crs.py", "i * (p - c) + (c << bits)", "i * (c - p) + (c << bits)",
     "the Euler factor of every part m >= 2: every class string"),
    ("crs.py", "+ n + 2 + ((m + 1) ** (width + m)).bit_length())", "+ n + 2)",
     "digits overflow their base for wide rows of large numerators"),
    ("partitions.py", "self.codim = self.weight - len(ps)", "self.codim = self.weight - len(ps) + 1",
     "the codim field of every JSON document"),
    ("partitions.py", "lam.parts[-1] < 2", "lam.parts[-1] < 1",
     "`class 2,1` answers instead of exiting 3"),
    ("flagcalc.py", "out.append(((j + 1,), -c))", "out.append(((j + 1,), c))",
     "flex_point_locus_class((3,2), 3, 4) and every pencil locus"),
    ("flagcalc.py", 'divided_difference(f.poly, "eta", "zeta")',
     'divided_difference(f.poly, "zeta", "eta")',
     "p_push(zeta) is minus the unit class; the resolution route flips sign"),
    ("universal.py", "for i, v in enumerate(poly.variables) if e[i] and v in (x, y)]) / t / D",
     "for i, v in enumerate(poly.variables) if e[i] and v in (x, y)]) / D",
     "every xi^t slice with t >= 2 of `universal 2,2`"),
    ("flagcalc.py", "Fraction(1, lam.multiplicity(m))", "Fraction(1, 1)",
     "the resolution route doubles the class of (2,2)"),
    ("flagcalc.py", "m ** (j - i)", "m ** (j - i + 1)",
     "the resolution route gives m times each level: (2,) resolves to (2*d^2 - 2*d)*s_{1,0}"),
    ("flagcalc.py", "(D - m) ** j", "(D - m) ** k",
     "the s_{2,0} coefficient of the resolved (2,2) drops to degree 3"),
    ("flagcalc.py", "i * (p - c) + c * D", "i * (c - p) + c * D",
     "the resolution route's Euler factors: (2,) resolves to (d^2 + d)*s_{1,0}"),
    ("crs.py", "comb(n - i, j - i) * d ** i", "comb(n - i, j) * d ** i",
     "crs_class_at((2,2), d) at every d"),
    ("docs.py", "        except ValueError:\n            # the interpreter refuses",
     "        except TypeError:\n            # the interpreter refuses",
     "`class 2^50 --at d=<1000 nines>` exits 4 instead of 3"),
    ("multipoly.py", "/ den ** p.total_degree()", "/ den ** (p.total_degree() - 1)",
     "the selftest check twist-cleared-denominator fails"),
    ("partitions.py", 'INTEGER = re.compile(r"-?[0-9]+")', 'INTEGER = re.compile(r"-?[0-9_]+")',
     "`class 2_0` answers for (20) instead of exiting 3"),
    ("cli.py", 'print(f"error: {exc}", file=sys.stderr)\n        return 3',
     'print(f"error: {exc}", file=sys.stderr)\n        return 4',
     "`class 2,1` exits 4 instead of 3"),
    ("cli.py", "invalid int value: {_quoted(text)}", "invalid int value: {repr(text)}",
     "`hyperflex --n <5000 nines>` echoes every digit in its usage error"),
    ("__init__.py", " and not isinstance(value, _types.ModuleType)", "",
     "`rootstrata.__all__` lists the submodules, and `from rootstrata import *` binds them"),
    ("universal.py", "_xi_slices(poly, x, y)) for e, c", "_xi_slices(poly, x, x)) for e, c",
     "xi shifts the root a alone: the xi^1 slice of `universal 2` halves to d - 1"),
    ("schur.py", "comb(k - l - j, j)", "comb(k - l - j, min(j, 1))",
     "every Chern form with an h_r of r >= 4: s_{4,0} gives c1^4 - 3*c1^2*c2 + 2*c2^2"),
]


def failure(file, old, new, why):
    """The FAIL line for one mutant, or None when tier-1 kills it."""
    text = (SRC / "rootstrata" / file).read_text()
    count = text.count(old)
    if count != 1:
        return f"{file} ({why}): old text occurs {count} times, the mutant no longer applies"
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / "rootstrata" / file).write_text(text.replace(old, new))
        # run from the copy, so the hypothesis database goes with it
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             f"--hypothesis-seed={SEED}", *map(str, TIER_1)],
            cwd=tmp, env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if proc.returncode == 0:
        return f"{file} ({why}): survived tier-1"
    if proc.returncode != 1:
        return f"{file} ({why}): tier-1 exited {proc.returncode}, not with a failed test"
    return None


def main(entries):
    failed = 0
    for entry in entries:
        line = failure(*entry)
        if line:
            print(f"FAIL {line}", flush=True)
            failed += 1
    if failed:
        return 1
    print(f"ok: {len(entries)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(MUTANTS))
