"""Mutant corpus: every known way to break the kernels and routes fails its named killer.

Usage: python tests/check_mutants.py

Each entry is (file under src/rootstrata, old text, new text, why,
killers), where why names an output the edit changes and killers are the
tier-1 node ids, relative to tests/, expected to kill it.  For each entry
src/ is copied to a temporary directory, the old text, which must occur
exactly once, is replaced by the new text, and pytest runs the killer
nodes, and nothing else, against the copy with -x, a fixed hypothesis
seed and no cache.  A mutant counts as killed only when one of its named
killers fails.  Killer nodes that all pass or exit with anything but a
failed test, an old text that no longer occurs exactly once, and a killer
node that names no test of its file each print one FAIL line and make the
exit code 1; otherwise the script prints how many mutants were killed.
Stdlib only; the file is named so that pytest does not collect it.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
SEED = 0

MUTANTS = [
    ("flagcalc.py", "((len(rows) - 1 - i, i), _canonical(nums, den))",
     "((i, len(rows) - 1 - i), _canonical(nums, den))",
     "incidence_class((2,2), 2) swaps zeta and eta",
     ["test_flagcalc.py::test_incidence_class_golden"]),
    ("crs.py", "[_digits(v, bits) for v in row], den", "[_digits(v, bits) for v in row], 1",
     "incidence_class((2,2,2), 2) loses the 1/2 of its smaller class",
     ["test_crs.py::test_level_rows_keep_the_denominator_of_the_smaller_class"]),
    ("crs.py", "_digits(row[l] - row[top - l], bits)", "_digits(row[l] - row[top - 1 - l], bits)",
     "every class string of codimension >= 1",
     ["test_acceptance.py::test_criterion_01_golden_classes"]),
    ("crs.py", "v = (v << bits) - m * v + x", "v = (v << bits) + x",
     "quotients packed at d instead of d - m: every class of two or more parts",
     ["test_acceptance.py::test_criterion_01_golden_classes"]),
    ("crs.py", "if any(gk[:n - k]):", "if any(gk[1:n - k]):",
     "a level the twist does not clear reads out a class instead of PolynomialityViolation",
     ["test_crs.py::test_a_perturbed_smaller_class_breaks_polynomiality"]),
    ("crs.py", "i * (p - c) + (c << bits)", "i * (c - p) + (c << bits)",
     "the Euler factor of every part m >= 2: every class string",
     ["test_acceptance.py::test_criterion_01_golden_classes"]),
    ("crs.py", "+ n + 2 + ((m + 1) ** (width + m)).bit_length())", "+ n + 2)",
     "digits overflow their base for wide rows of large numerators",
     ["test_crs.py::test_packed_level_has_room_for_wide_rows_of_large_numerators"]),
    ("partitions.py", "self.codim = self.weight - len(ps)", "self.codim = self.weight - len(ps) + 1",
     "every class is off its codimension diagonal: `class 2` is an internal error",
     ["test_crs.py::test_codim_and_degree_shape"]),
    ("partitions.py", "lam.parts[-1] < 2", "lam.parts[-1] < 1",
     "`class 2,1` answers instead of exiting 3",
     ["test_partitions.py::test_validate_stratum"]),
    ("flagcalc.py", "out.append(((j + 1,), -c))", "out.append(((j + 1,), c))",
     "flex_point_locus_class((3,2), 3, 4) and every pencil locus",
     ["test_flagcalc.py::test_flex_point_loci_golden"]),
    ("flagcalc.py", 'divided_difference(f.poly, "eta", "zeta")',
     'divided_difference(f.poly, "zeta", "eta")',
     "p_push(zeta) is minus the unit class; the resolution route flips sign",
     ["test_flagcalc.py::test_p_push_segre_anchors"]),
    ("universal.py", "den * t", "den * 1",
     "every xi^t slice with t >= 2 of `universal 2,2`",
     ["test_universal.py::test_universal_golden_small"]),
    ("flagcalc.py", "Fraction(1, lam.multiplicity(m))", "Fraction(1, 1)",
     "the resolution route doubles the class of (2,2)",
     ["test_flagcalc.py::test_tangency_matches_truncated_stratum_class"]),
    ("flagcalc.py", "m ** (j - i)", "m ** (j - i + 1)",
     "the resolution route gives m times each level: (2,) resolves to (2*d^2 - 2*d)*s_{1,0}",
     ["test_flagcalc.py::test_tangency_matches_truncated_stratum_class"]),
    ("flagcalc.py", "(D - m) ** j", "(D - m) ** k",
     "the s_{2,0} coefficient of the resolved (2,2) drops to degree 3",
     ["test_flagcalc.py::test_tangency_matches_truncated_stratum_class"]),
    ("flagcalc.py", "i * (p - c) + c * D", "i * (c - p) + c * D",
     "the resolution route's Euler factors: (2,) resolves to (d^2 + d)*s_{1,0}",
     ["test_flagcalc.py::test_tangency_matches_truncated_stratum_class"]),
    ("crs.py", "comb(n - i, j - i) * d ** i", "comb(n - i, j) * d ** i",
     "crs_class_at((2,2), d) at every d",
     ["test_crs.py::test_integer_specialization_matches_symbolic"]),
    ("docs.py", "        except ValueError:\n            # the interpreter refuses",
     "        except TypeError:\n            # the interpreter refuses",
     "`class 2^50 --at d=<1000 nines>` exits 4 instead of 3",
     ["test_cli.py::test_a_value_too_long_to_print_is_a_domain_error"]),
    ("multipoly.py", "/ den ** p.total_degree()", "/ den ** (p.total_degree() - 1)",
     "the selftest check twist-cleared-denominator fails",
     ["test_golden.py::test_golden_check[twist-cleared-denominator]"]),
    ("partitions.py", 'INTEGER = re.compile(r"-?[0-9]+")', 'INTEGER = re.compile(r"-?[0-9_]+")',
     "`class 2_0` answers for (20) instead of exiting 3",
     ["test_cli.py::test_integer_text_is_ascii_digits_alone"]),
    ("cli.py", 'print(f"error: {exc}", file=sys.stderr)\n        return 3',
     'print(f"error: {exc}", file=sys.stderr)\n        return 4',
     "`class 2,1` exits 4 instead of 3",
     ["test_cli.py::test_domain_errors"]),
    ("cli.py", "invalid int value: {_quoted(text)}", "invalid int value: {repr(text)}",
     "`hyperflex --n <5000 nines>` echoes every digit in its usage error",
     ["test_cli.py::test_long_integer_text_is_a_short_usage_error"]),
    ("__init__.py", " and not isinstance(value, _types.ModuleType)", "",
     "`rootstrata.__all__` lists the submodules, and `from rootstrata import *` binds them",
     ["test_source_rules.py::test_the_package_exports_the_names_its_imports_bind"]),
    ("universal.py", "(n - i) * x + (i + 1) * y", "(n - i) * x",
     "xi shifts the root a alone: the xi^1 slice of `universal 2` halves to d - 1",
     ["test_universal.py::test_universal_golden_small"]),
    ("universal.py", "[((len(linear) - 1 - i, i), c)", "[((i, len(linear) - 1 - i), c)",
     "pencil_locus_class pushes its xi^1 slice with zeta and eta swapped: `pencil 2,2`",
     ["test_universal.py::test_pencil_golden"]),
    ("schur.py", "comb(k - l - j, j)", "comb(k - l - j, min(j, 1))",
     "every Chern form with an h_r of r >= 4: s_{4,0} gives c1^4 - 3*c1^2*c2 + 2*c2^2",
     ["test_schur.py::test_schur_units_in_chern_classes"]),
    ("combinat.py", "min(c, q - bottom, top - bottom)", "min(c, q - bottom)",
     "a value may sit under an equal one: kostka((2,2), (1,1,1,1)) counts 6, not 2",
     ["test_combinat.py::test_kostka_known_values"]),
    ("combinat.py", "below + i * same", "below + (i + 1) * same",
     "the Stirling row of 4 reads (x+1)...(x+4): 50, 35, 10, 1 instead of 6, 11, 6, 1",
     ["test_combinat.py::test_stirling_first_row"]),
    ("combinat.py", "(-1) ** (n - k)", "(-1) ** k",
     "every Riordan number of odd index flips sign: riordan(3) is -1",
     ["test_combinat.py::test_riordan"]),
    ("golden.py", "if got != wanted:", "if False:",
     "selftest passes whatever a check computes",
     ["test_cli.py::test_selftest_failure_exits_1"]),
    ("crs.py", "if k + l != partition.codim:", "if False:",
     "CRSClass takes a coefficient off the codimension diagonal",
     ["test_results.py::test_refusals_name_what_they_refuse[crs-off-diagonal]"]),
    ("crs.py", "if c.degree > partition.weight:", "if False:",
     "CRSClass takes a coefficient of degree above the weight",
     ["test_results.py::test_refusals_name_what_they_refuse[crs-above-the-weight]"]),
    ("crs.py", "if top.degree != partition.weight:", "if False:",
     "CRSClass takes a top coefficient of degree below the weight",
     ["test_results.py::test_refusals_name_what_they_refuse[crs-top-below-the-weight]"]),
    ("golden.py", 'detail = f"{type(exc).__name__}: {exc}"', "raise",
     "a check that raises takes selftest down with exit 4",
     ["test_cli.py::test_a_check_that_raises_fails_alone"]),
    ("universal.py", "if any(nums and nums[0] for nums in rows):", "if False:",
     "the xi shift drops a constant numerator that d does not divide",
     ["test_universal.py::test_the_xi_shift_refuses_a_slice_d_does_not_divide"]),
    ("dpoly.py", "if n < 0:", "if False:",
     "`D ** -1` answers 1 instead of refusing a negative power",
     ["test_results.py::test_refusals_name_what_they_refuse[dpoly-negative-power]"]),
    ("multipoly.py", "if n < 0:", "if False:",
     "`a ** -1` answers 1 instead of refusing a negative power",
     ["test_results.py::test_refusals_name_what_they_refuse[multipoly-negative-power]"]),
    ("multipoly.py", "if extra:", "if False:",
     "two_var_terms silently drops a third variable",
     ["test_results.py::test_refusals_name_what_they_refuse[two-var-terms-extra-variable]"]),
    ("multipoly.py", "{x: y, y: x}.get(v, v)", "{x: x, y: y}.get(v, v)",
     "`(a^2 - b^2).swap_vars('a', 'b')` returns a^2 - b^2 unchanged",
     ["test_multipoly.py::test_substitute_and_swap"]),
    ("multipoly.py", "zip(self.variables, e) if n)", "zip(self.variables, e))",
     "a zero exponent in substitute multiplies in the last cached power: a^2 -> b^2 * a",
     ["test_multipoly.py::test_substitute_and_swap"]),
    ("multipoly.py", "at = [names.index(v) for v in p.variables]",
     "at = [p.variables.index(v) for v in p.variables]",
     "`b * a` lands b on a's place: a^2 instead of a*b",
     ["test_multipoly.py::test_variables_sorted_and_pruned"]),
]


def missing(node):
    """Does the node id name no test function of its file under tests/?"""
    file, _, name = node.partition("::")
    path = TESTS / file
    if not path.is_file():
        return True
    tests = {f.name for f in ast.parse(path.read_text()).body if isinstance(f, ast.FunctionDef)}
    return name.partition("[")[0] not in tests


def _pytest(tmp, src, tests):
    """Exit code of pytest on tests, run from tmp against the copy src."""
    # run from the copy, so the hypothesis database goes with it
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         f"--hypothesis-seed={SEED}", *tests],
        cwd=tmp, env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def failure(file, old, new, why, killers):
    """The FAIL line for one mutant, or None when one of its killer nodes fails."""
    text = (SRC / "rootstrata" / file).read_text()
    count = text.count(old)
    if count != 1:
        return f"{file} ({why}): old text occurs {count} times, the mutant no longer applies"
    gone = [node for node in killers if missing(node)]
    if gone:
        return f"{file} ({why}): killer node {gone[0]} names no test"
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / "rootstrata" / file).write_text(text.replace(old, new))
        code = _pytest(tmp, src, [str(TESTS / node) for node in killers])
    if code == 0:
        return f"{file} ({why}): its killer nodes pass"
    if code != 1:
        return f"{file} ({why}): its killer nodes exited {code}, not with a failed test"
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
