"""Command line behavior: output shapes, JSON schema, exit codes."""

import inspect
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rootstrata import docs, golden
from rootstrata.cli import build_parser, main
from rootstrata.crs import crs_class
from rootstrata.dpoly import DPoly
from rootstrata.errors import InvalidPartition
from rootstrata.multipoly import VAR_ORDER, MultiPoly
from rootstrata.partitions import Partition, stratum_partitions
from rootstrata.plucker import plucker_table


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_class_text_output(capsys):
    code, out, _ = run(capsys, "class", "2,2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "class (2,2) in basis schur:"
    assert lines[1] == "  s_{2,0}: 1/2*d^4 - 3*d^3 + 11/2*d^2 - 3*d"
    assert lines[2] == "  s_{1,1}: 1/2*d^4 - d^3 - 9/2*d^2 + 9*d"


def test_class_json_matches_schema(capsys):
    code, out, _ = run(capsys, "class", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "class"
    assert doc["partition"] == [2]
    assert doc["d"] == "symbolic"
    assert doc["entries"] == [{"k": 1, "l": 0, "coeffs_d": ["0", "-1", "1"]}]


def test_empty_partition_unit_class(capsys):
    code, out, _ = run(capsys, "class", "-", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"] == [{"k": 0, "l": 0, "coeffs_d": ["1"]}]


def test_class_at_integer(capsys):
    code, out, _ = run(capsys, "class", "2,2", "--at", "d=4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 4
    assert doc["entries"] == [{"k": 2, "l": 0, "value": "12"},
                              {"k": 1, "l": 1, "value": "28"}]


def test_class_other_bases(capsys):
    code, out, _ = run(capsys, "class", "3", "--basis", "chern")
    assert code == 0 and "c1^2" in out
    code, out, _ = run(capsys, "class", "3", "--basis", "roots", "--json")
    assert code == 0
    doc = json.loads(out)
    assert all({"a", "b", "coeffs_d"} <= set(e) for e in doc["entries"])


def test_plucker_at_three(capsys):
    code, out, _ = run(capsys, "plucker", "3", "--at", "d=3")
    assert code == 0
    assert "Pl_{(3);2} = 6" in out
    assert "Pl_{(3);0} = 9" in out


def test_asymptotic(capsys):
    code, out, _ = run(capsys, "asymptotic", "3,3")
    assert code == 0
    assert "apl_{(3,3);4} = 1/2" in out


def test_flex(capsys):
    code, out, _ = run(capsys, "flex", "4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert {e["i"]: e["coeffs_d"] for e in doc["entries"]} == {
        3: ["0", "-6", "11", "-6", "1"], 1: ["0", "12", "-22", "6"]}


def test_hyperflex_and_lines(capsys):
    code, out, _ = run(capsys, "hyperflex", "--n", "4")
    assert code == 0 and out.strip().endswith("575")
    code, out, _ = run(capsys, "hyperflex", "--n", "9", "--json")
    doc = json.loads(out)
    assert doc["value"] == "19275975908850375"
    code, out, _ = run(capsys, "lines", "--n", "4")
    assert code == 0 and out.strip().endswith("2875")


def test_incidence_bases(capsys):
    code, out, _ = run(capsys, "incidence", "2,2", "--m", "2")
    assert code == 0 and "zeta^2*eta" in out
    code, out, _ = run(capsys, "incidence", "2,2", "--m", "2",
                       "--basis", "zeta-sigma")
    assert code == 0 and "sigma1" in out


def test_flexlocus(capsys):
    code, out, _ = run(capsys, "flexlocus", "3,2", "--m", "3", "--n", "4")
    assert code == 0
    assert "3*d^4 - 7*d^3 - 44*d^2 + 96*d" in out


def test_universal(capsys):
    code, out, _ = run(capsys, "universal", "2")
    assert code == 0
    assert "xi^1 s_{0,0}: 2*d - 2" in out


def test_pencil_at_five(capsys):
    code, out, _ = run(capsys, "pencil", "2,2", "--m", "2", "--n", "3",
                       "--at", "d=5")
    assert code == 0 and "138" in out


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("ok", "FAIL"))]
    assert len(lines) >= 30
    assert all(ln.startswith("ok") for ln in lines)


def test_selftest_json(capsys):
    code, out, _ = run(capsys, "selftest", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert all(c["ok"] for c in doc["checks"])


def _readme_block_after(heading):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return text.split(heading, 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]


def test_readme_commands_run(capsys):
    """The README's command lines run, print the counts their comments quote, and its JSON holds."""
    ran, counts = 0, 0
    for line in _readme_block_after("## Command line").splitlines():
        command, _, comment = line.partition("#")
        argv = command.split()
        assert argv[0] == "rootstrata", line
        code, out, _ = run(capsys, *argv[1:])
        assert code == 0 and out, line
        ran += 1
        quoted = comment.split()[0]
        if quoted.isdigit():
            assert out.splitlines()[-1] == quoted, line
            counts += 1
    assert (ran, counts) == (13, 2)
    prompt, example = _readme_block_after("Example JSON document:").split("\n", 1)
    argv = prompt.split()
    assert argv[:2] == ["$", "rootstrata"], prompt
    code, out, _ = run(capsys, *argv[2:])
    assert code == 0 and json.loads(example) == json.loads(out)


def test_usage_errors(capsys):
    assert run(capsys, "class")[0] == 2
    assert run(capsys, "nonsense", "2")[0] == 2
    assert run(capsys, "class", "2", "--at", "3")[0] == 2
    assert run(capsys, "class", "2", "--basis", "weird")[0] == 2


def test_domain_errors(capsys):
    assert run(capsys, "class", "1,1")[0] == 3
    assert run(capsys, "class", "2,oops")[0] == 3
    assert run(capsys, "class", "2,2", "--at", "d=3")[0] == 3
    assert run(capsys, "flex", "4", "--at", "d=2")[0] == 3
    assert run(capsys, "hyperflex", "--n", "2")[0] == 3
    assert run(capsys, "incidence", "2,2", "--m", "3")[0] == 3
    assert run(capsys, "class", "2^0")[0] == 3
    assert run(capsys, "class", "2^-3")[0] == 3
    assert run(capsys, "flex", "1")[0] == 3


def test_json_round_trip_through_the_emitters():
    for doc in (docs.class_document((3, 2)), docs.plucker_document((2, 2)),
                docs.incidence_document((2, 2), 2),
                docs.pencil_document((2, 2), 2, 3)):
        assert json.loads(docs.emit_json(doc)) == doc


def documents(max_weight):
    """Every document of every command on the strata of weight <= max_weight."""
    for w in range(max_weight + 1):
        for lam in stratum_partitions(w):
            for basis in ("schur", "chern", "roots"):
                yield docs.class_document(lam, basis)
            yield docs.plucker_document(lam)
            yield docs.asymptotic_document(lam)
            yield docs.universal_document(lam)
            for m in sorted(set(lam.parts)):
                for basis in ("zeta-eta", "zeta-sigma"):
                    yield docs.incidence_document(lam, m, basis)
                yield docs.flexlocus_document(lam, m, 4)
                yield docs.pencil_document(lam, m, 4)
        if w >= 2:
            yield docs.flex_document(w)
    yield docs.hyperflex_document(5)
    yield docs.lines_document(5)


@pytest.mark.parametrize("argv, head", [
    ("class 3,2", ["class (3,2) in basis schur:",
                   "  s_{3,0}: d^5 - 10*d^4 + 35*d^3 - 50*d^2 + 24*d"]),
    ("class 3,2 --basis chern", ["class (3,2) in basis chern:",
                                 "  c1^3: d^5 - 10*d^4 + 35*d^3 - 50*d^2 + 24*d"]),
    ("class 3,2 --basis roots", ["class (3,2) in basis roots:",
                                 "  a^3: d^5 - 10*d^4 + 35*d^3 - 50*d^2 + 24*d"]),
    ("plucker 3,2", ["tangent-line counts for (3,2):",
                     "  Pl_{(3,2);3} = d^5 - 10*d^4 + 35*d^3 - 50*d^2 + 24*d"]),
    ("flex 5", ["tangent-line counts for (5):",
                "  Pl_{(5);4} = d^5 - 10*d^4 + 35*d^3 - 50*d^2 + 24*d"]),
    ("asymptotic 3,3", ["leading coefficients for (3,3):", "  apl_{(3,3);4} = 1/2"]),
    ("incidence 3,2 --m 2", ["incidence class for (3,2), peeled at m=2:",
                             "  zeta^4: d^5 - 10*d^4 + 35*d^3 - 50*d^2 + 24*d"]),
    ("incidence 3,2 --m 2 --basis zeta-sigma", [
        "incidence class for (3,2), peeled at m=2:",
        "  zeta^4: d^5 - 14*d^4 + 80*d^3 - 208*d^2 + 192*d"]),
    ("flexlocus 3,2 --m 3 --n 4", ["tangency-point locus for (3,2), m=3, ambient n=4:",
                                   "  zeta^2: 3*d^4 - 7*d^3 - 44*d^2 + 96*d"]),
    ("pencil 2,2 --m 2 --n 3", ["pencil tangency-point locus for (2,2), m=2, ambient n=3:",
                                "  zeta: 2*d^3 - d^2 - 21*d + 18"]),
    ("universal 3,2", ["universal class for (3,2):",
                       "  xi^0 s_{3,0}: d^5 - 10*d^4 + 35*d^3 - 50*d^2 + 24*d"]),
    ("hyperflex --n 4", ["hyperflexes of a generic degree-5 hypersurface in P^3:", "575"]),
    ("lines --n 4", ["lines on a generic degree-5 hypersurface in P^4:", "2875"]),
    ("class 3,2 --basis chern --at d=7", ["class (3,2) in basis chern at d=7:",
                                          "  c1^3: 2520"]),
])
def test_text_heading_and_first_row_of_every_command(capsys, argv, head):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert out.splitlines()[:2] == head


def test_text_does_not_depend_on_the_key_order_of_the_rows():
    """JSON sorts the keys, so a label read in row order would change here."""
    for doc in documents(6):
        assert docs.emit_text(json.loads(docs.emit_json(doc))) == docs.emit_text(doc)


def test_text_values_match_the_fraction_spelling():
    """The text of each coefficient array is what a DPoly rebuilt from it prints."""
    rows = 0
    for doc in documents(8):
        for row in doc.get("entries", ()):
            if "coeffs_d" in row:
                want = str(DPoly(Fraction(c) for c in row["coeffs_d"]))
                assert docs._value_str(row) == want, (doc["command"], row)
                rows += 1
    assert rows > 800


# indices, exponents, codim and the echoed inputs; every computed value is a string
INT_KEYS = {"partition", "codim", "d", "m", "n", "k", "l", "i", *VAR_ORDER}


def _json_ints(node, key=None):
    """(key, value) for every JSON integer under node, a list item under its list's key."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _json_ints(v, k)
    elif isinstance(node, list):
        for v in node:
            yield from _json_ints(v, key)
    elif isinstance(node, int) and not isinstance(node, bool):
        yield key, node


def test_json_values_are_strings_and_integers_are_indices_or_inputs():
    """A value past 2^53 survives any consumer; an echoed d may pass 2^53 as an integer."""
    big = 2 ** 64 + 1
    lam = Partition((3, 2))
    at_docs = [docs.class_document(lam, basis, big) for basis in ("schur", "chern", "roots")]
    at_docs += [docs.plucker_document(lam, big), docs.flex_document(5, big),
                docs.incidence_document(lam, 2, "zeta-sigma", big),
                docs.flexlocus_document(lam, 3, 4, big), docs.universal_document(lam, big),
                docs.pencil_document(lam, 2, 4, big)]
    keys, values = set(), 0
    for doc in [*documents(6), *at_docs]:
        parsed = json.loads(docs.emit_json(doc))
        for row in parsed.get("entries", ()):
            assert isinstance(row.get("value", ""), str), (doc["command"], row)
            assert all(isinstance(c, str) for c in row.get("coeffs_d", ())), (doc["command"], row)
            values += "value" in row
        if "value" in parsed:
            assert isinstance(parsed["value"], str), parsed
        for key, _ in _json_ints(parsed):
            assert key in INT_KEYS, (doc["command"], key)
            keys.add(key)
    assert all(doc["d"] == big for doc in at_docs)
    assert values > 20 and keys == INT_KEYS


def test_outputs_never_read_fraction_coefficients(monkeypatch):
    cls = crs_class((3, 2, 2))
    poly = MultiPoly(("a", "b"), {(1, 0): Fraction(-3, 2), (0, 1): DPoly((0, 2, -1))})
    objects = [cls, cls.to_roots(), plucker_table((3, 2, 2)), poly]
    built = [docs.class_document((3, 2), "chern"), docs.universal_document((3, 2)),
             docs.incidence_document((3, 2), 2, "zeta-sigma")]
    want = ([str(o) for o in objects],
            [(docs.emit_text(d), docs.emit_json(d)) for d in built])

    def refuse(self):
        raise AssertionError("an output read DPoly.coeffs")

    monkeypatch.setattr(DPoly, "coeffs", property(refuse))
    built = [docs.class_document((3, 2), "chern"), docs.universal_document((3, 2)),
             docs.incidence_document((3, 2), 2, "zeta-sigma")]
    assert want == ([str(o) for o in objects],
                    [(docs.emit_text(d), docs.emit_json(d)) for d in built])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rootstrata.cli", "class", "2", "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["entries"][0]["coeffs_d"] == ["0", "-1", "1"]


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_stdout_keeps_the_exit_code(monkeypatch):
    """A reader that leaves early costs neither the exit code nor a traceback."""
    saved = os.dup(1)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        err = io.StringIO()
        with redirect_stderr(err):
            assert main(["class", "2,2"]) == 0
            assert os.path.samestat(os.fstat(1), os.stat(os.devnull))
            monkeypatch.setitem(golden.HYPERFLEX_GOLDEN, 5, 99716)
            assert main(["selftest", "--json"]) == 1
        assert err.getvalue() == ""
    finally:
        os.dup2(saved, 1)
        os.close(saved)


def test_a_reader_that_closes_before_the_output_sees_no_traceback():
    read, write = os.pipe()
    proc = subprocess.Popen([sys.executable, "-m", "rootstrata.cli", "class", "2^20"],
                            stdout=write, stderr=subprocess.PIPE)
    os.close(write)
    os.close(read)  # the child is still importing, about 100 ms, so it prints later
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


def test_huge_repeat_count_is_a_domain_error(capsys):
    code, out, err = run(capsys, "class", "2^400")
    assert code == 3 and not out
    assert err.startswith("error: ") and err.count("\n") == 1


NINES = "9" * 1000


@pytest.mark.parametrize("argv", [
    ("class", "2^50"), ("class", "6", "--basis", "chern"), ("plucker", "6"),
    ("flex", "6"), ("universal", "3,3"), ("incidence", "3,3", "--m", "3"),
    ("flexlocus", "3,3", "--m", "3", "--n", "4"), ("pencil", "3,3", "--m", "3", "--n", "4")])
@pytest.mark.parametrize("as_json", [False, True])
def test_a_value_too_long_to_print_is_a_domain_error(capsys, argv, as_json):
    """A value of 5000 digits is refused like a count above the weight bound."""
    code, out, err = run(capsys, *argv, "--at", f"d={NINES}", *(["--json"] * as_json))
    assert code == 3 and not out
    assert err == f"error: a value at this d has more than {sys.get_int_max_str_digits()} digits\n"


def test_a_long_value_under_the_digit_limit_is_printed(capsys):
    d = int(NINES)
    code, out, err = run(capsys, "class", "2", "--at", f"d={d}", "--json")
    assert (code, err) == (0, "")
    assert [row["value"] for row in json.loads(out)["entries"]] == [
        str(c(d)) for _, c in crs_class((2,)).expansion.items()]


@pytest.mark.parametrize("as_json", [False, True])
def test_an_at_value_above_the_digit_limit_is_a_short_usage_error(capsys, as_json):
    """The usage and one error line, naming neither the converter nor the digits."""
    flag = ["--json"] * as_json
    limit = sys.get_int_max_str_digits()
    usage = run(capsys, "class", "2", "--at", "x", *flag)[2].rpartition("rootstrata class:")[0]
    code, out, err = run(capsys, "class", "2", "--at", f"d={'9' * (limit + 700)}", *flag)
    assert (code, out) == (2, "")
    assert usage.startswith("usage: rootstrata class ")
    assert err == (f"{usage}rootstrata class: error: argument --at: "
                   f"d has more than {limit} digits\n")


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("argv, code", [
    (["class", "2", "--at", f"d={'9' * 300}x"], 2),
    (["class", "2," * 3000 + "x"], 3),
    (["class", "x" + ",2" * 3000], 3),
    (["class", "2," * 2999 + "2"], 3),
    (["class", f"2^-{'9' * 4000}"], 3),
])
def test_long_user_text_is_quoted_by_a_short_prefix(capsys, monkeypatch, argv, code, as_json):
    """A message quotes at most a fixed prefix of what the user typed."""
    monkeypatch.setenv("COLUMNS", "80")  # the usage line wraps at the terminal width
    got, out, err = run(capsys, *argv, *(["--json"] * as_json))
    assert (got, out) == (code, "")
    assert len(err.encode()) < 200 and "'..." in err


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("extras, quoted", [
    (["x" * 3000], "'xxxxxxxxxx'..."),
    (["x"] * 2000, "'x x x x x '..."),
    (["--foo"], "'--foo'"),
])
def test_unrecognized_arguments_are_quoted_by_a_short_prefix(capsys, monkeypatch, extras,
                                                             quoted, as_json):
    """The top usage and one error line, quoting the leftover arguments as one text."""
    monkeypatch.setenv("COLUMNS", "80")  # the usage line wraps at the terminal width
    code, out, err = run(capsys, "class", "2", *extras, *(["--json"] * as_json))
    assert (code, out) == (2, "")
    usage, _, error = err.rpartition("rootstrata: error: ")
    assert usage.startswith("usage: rootstrata ") and "error" not in usage
    assert error == f"unrecognized arguments: {quoted}\n"
    assert len(err.encode()) < 300


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("argv, argument", [
    (["hyperflex", "--n", "9" * 5000], "--n"),
    (["flex", "x" * 3000], "m"),
    (["incidence", "2,2", "--m", "x" * 3000], "--m"),
])
def test_long_integer_text_is_a_short_usage_error(capsys, monkeypatch, argv, argument, as_json):
    """The usage and one error line, quoting the refused text by its first 10 characters."""
    monkeypatch.setenv("COLUMNS", "80")  # the usage line wraps at the terminal width
    code, out, err = run(capsys, *argv, *(["--json"] * as_json))
    assert (code, out) == (2, "")
    usage, _, error = err.rpartition(f"rootstrata {argv[0]}: error: ")
    assert usage.startswith(f"usage: rootstrata {argv[0]} ") and "error" not in usage
    assert error == f"argument {argument}: invalid int value: {argv[-1][:10]!r}...\n"
    assert len(err.encode()) < 300


COMMANDS = ("class", "plucker", "asymptotic", "flex", "hyperflex", "lines", "incidence",
            "flexlocus", "universal", "pencil", "selftest")


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("text", ["foo", "x" * 3000])
@pytest.mark.parametrize("argv, prog, argument, choices, cap", [
    (["class", "2", "--basis"], "class", "--basis", ("schur", "chern", "roots"), 300),
    (["incidence", "2,2", "--m", "2", "--basis"], "incidence", "--basis",
     ("zeta-eta", "zeta-sigma"), 300),
    # the top-level usage line and the list of commands alone take 350 bytes
    ([], "", "command", COMMANDS, 400),
])
def test_a_refused_choice_quotes_at_most_10_characters(capsys, monkeypatch, argv, prog,
                                                       argument, choices, cap, text, as_json):
    """The usage and one error line, in the same words on every Python."""
    monkeypatch.setenv("COLUMNS", "80")  # the usage line wraps at the terminal width
    code, out, err = run(capsys, *argv, text, *(["--json"] * as_json))
    assert (code, out) == (2, "")
    prog = f"rootstrata {prog}".rstrip()
    usage, _, error = err.rpartition(f"{prog}: error: ")
    assert usage.startswith(f"usage: {prog} ") and "error" not in usage
    quoted = repr(text) if len(text) <= 10 else f"{text[:10]!r}..."
    assert error == (f"argument {argument}: invalid choice: {quoted} "
                     f"(choose from {', '.join(map(repr, choices))})\n")
    assert len(err.encode()) < cap


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("argv, code, message", [
    (["class", "2_0"], 3, "cannot read partition '2_0'"),
    (["class", "2^1_0"], 3, "cannot read partition '2^1_0'"),
    (["class", "\u0663"], 3, "cannot read partition '\u0663'"),
    (["class", "+3"], 3, "cannot read partition '+3'"),
    (["hyperflex", "--n", "1_0"], 2, "argument --n: invalid int value: '1_0'"),
    (["incidence", "2,2", "--m", "\u0662"], 2, "argument --m: invalid int value: '\u0662'"),
    (["flex", "\u0663"], 2, "argument m: invalid int value: '\u0663'"),
    (["flex", "+3"], 2, "argument m: invalid int value: '+3'"),
    (["class", "2", "--at", "d=\u0664"], 2, "argument --at: expected d=<integer>, got 'd=\u0664'"),
    (["class", "2", "--at", "d=1_0"], 2, "argument --at: expected d=<integer>, got 'd=1_0'"),
    (["class", "2^-3"], 3, "repeat count in '2^-3' must be at least 1"),
    (["class", "0"], 3, "parts must be positive, got [0]"),
    (["class", "-3"], 3, "parts must be positive, got [-3]"),
])
def test_integer_text_is_ascii_digits_alone(capsys, argv, code, message, as_json):
    """int() would read '_' separators, a '+' and other scripts' digits; the CLI refuses
    them, in a partition with exit 3 and in an option or flex's m with exit 2.  A minus
    sign is integer text: its partitions keep their own messages."""
    got, out, err = run(capsys, *argv, *(["--json"] * as_json))
    assert (got, out) == (code, "")
    if code == 3:
        assert err == f"error: {message}\n"
    else:
        assert err.startswith(f"usage: rootstrata {argv[0]} ")
        assert err.endswith(f"\nrootstrata {argv[0]}: error: {message}\n")


def test_short_user_text_is_quoted_whole(capsys):
    assert run(capsys, "class", "2,2,x") == (3, "", "error: cannot read partition '2,2,x'\n")
    code, out, err = run(capsys, "class", "2", "--at", "dx")
    assert (code, out) == (2, "")
    assert err.endswith("rootstrata class: error: argument --at: expected d=<integer>, got 'dx'\n")


def test_unexpected_exception_exits_4_in_one_line(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("kernel\nfault")

    monkeypatch.setattr(docs, "class_document", broken)
    code, out, err = run(capsys, "class", "2", "--json")
    assert code == 4 and not out
    assert err == "internal error: RuntimeError: kernel fault\n"


def test_selftest_passes_without_asserts():
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "rootstrata.cli", "selftest", "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout)["checks"]
    assert len(checks) == 38 and all(c["ok"] for c in checks)


@pytest.mark.parametrize("argv", [
    ("flex", "900", "--json"), ("flex", "101"), ("hyperflex", "--n", "300", "--json"),
    ("hyperflex", "--n", "52"), ("lines", "--n", "300")])
def test_closed_forms_refuse_degrees_above_the_weight_bound(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and not out
    assert err.startswith("error: ") and err.count("\n") == 1


def test_closed_forms_answer_at_the_weight_bound(capsys):
    assert run(capsys, "hyperflex", "--n", "51")[0] == 0
    assert run(capsys, "lines", "--n", "51")[0] == 0


PARTITION_COMMANDS = ("class", "plucker", "asymptotic", "incidence", "flexlocus",
                      "universal", "pencil")
# options each subcommand accepts; -h is left out, since it exits 0 without a document
ACCEPTS = {
    "class": ("--at", "--basis", "--json"), "plucker": ("--at", "--json"),
    "asymptotic": ("--json",), "flex": ("--at", "--json"),
    "hyperflex": ("--n", "--json"), "lines": ("--n", "--json"),
    "incidence": ("--m", "--basis", "--at", "--json"),
    "flexlocus": ("--m", "--n", "--at", "--json"), "universal": ("--at", "--json"),
    "pencil": ("--m", "--n", "--at", "--json"), "selftest": ("--json",),
}
REQUIRED = ("--m", "--n")
BASES = {"class": ["schur", "chern", "roots", "weird"],
         "incidence": ["zeta-eta", "zeta-sigma", "weird"]}

def _subcommands():
    """{name: subparser} of the CLI's parser."""
    actions = build_parser()._subparsers._group_actions
    return dict(actions[0].choices)


def test_parser_matches_the_fuzz_model():
    """The subcommands, their options and the required ones are what the fuzz draws."""
    subs = _subcommands()
    assert set(subs) == set(ACCEPTS)
    for name, sub in subs.items():
        options = [a for a in sub._actions if a.option_strings and a.dest != "help"]
        positional = [a.dest for a in sub._actions if not a.option_strings]
        assert {a.option_strings[0] for a in options} == set(ACCEPTS[name]), name
        assert {a.option_strings[0] for a in options if a.required} == (
            set(ACCEPTS[name]) & set(REQUIRED)), name
        want = ["partition"] if name in PARTITION_COMMANDS else ["m"] if name == "flex" else []
        assert positional == want, name
        for a in options:
            if a.dest == "basis":
                assert list(a.choices) == [b for b in BASES[name] if b != "weird"]


def test_every_subcommand_resolves_to_its_document_builder():
    """docs.<name>_document takes exactly the fields the subcommand parses."""
    for name, sub in _subcommands().items():
        fields = {a.dest for a in sub._actions if a.dest not in ("help", "json")}
        fields = {"lam" if f == "partition" else f for f in fields}
        builder = getattr(docs, f"{name}_document")
        assert set(inspect.signature(builder).parameters) == fields, name


def test_selftest_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(golden.HYPERFLEX_GOLDEN, 5, 99716)
    code, out, err = run(capsys, "selftest")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert "FAIL    hyperflex-counts: n=5: got 99715, wanted 99716" in lines
    assert lines[-1] == "37/38 checks pass"
    assert sum(ln.startswith("ok      ") for ln in lines) == 37
    code, out, err = run(capsys, "selftest", "--json")
    doc = json.loads(out)
    assert (code, err, doc["ok"]) == (1, "", False)
    assert [c["name"] for c in doc["checks"] if not c["ok"]] == ["hyperflex-counts"]


def test_a_check_that_raises_fails_alone(capsys, monkeypatch):
    def boom():
        yield "", 1, 1
        raise RuntimeError("boom")

    name = golden.CHECKS[0][0]
    monkeypatch.setattr(golden, "CHECKS", [(name, boom), *golden.CHECKS[1:]])
    assert golden.run_all()[0] == (name, False, "RuntimeError: boom")
    code, out, err = run(capsys, "selftest")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert f"FAIL    {name}: RuntimeError: boom" in lines
    assert lines[-1] == "37/38 checks pass"
    code, out, err = run(capsys, "selftest", "--json")
    assert (code, err, json.loads(out)["ok"]) == (1, "", False)


_ints = st.one_of(st.integers(-3, 12), st.integers(-10**6, 10**6)).map(str)
_tokens = st.one_of(
    st.integers(-2, 6).map(str),
    st.builds("{}^{}".format, st.integers(-2, 6),
              st.one_of(st.integers(-2, 3), st.integers(-10**6, 10**6))),
    st.text(alphabet="0123456789^,-+ x", max_size=6))


def _quick(text):
    """Keep garbage and refused strings, but only valid partitions of weight <= 30.

    Heavier valid partitions are answered too, in up to a few seconds each.
    """
    try:
        return Partition.parse(text).weight <= 30
    except InvalidPartition:
        return True


_partitions = st.lists(_tokens, max_size=3).map(",".join).filter(_quick)
_values = {
    "--at": st.one_of(st.integers(-10**6, 10**6).map("d={}".format),
                      st.integers(-3, 30).map("d={}".format),
                      st.text(alphabet="d=0123456789-x", max_size=5)),
    "--m": st.one_of(st.integers(2, 4).map(str), _ints),
    "--n": _ints,
    "--json": None,
    "--bogus": None,
}


@st.composite
def argvs(draw):
    """A subcommand, its positional, mostly options it accepts, in any order."""
    command = draw(st.sampled_from(sorted(ACCEPTS)))
    groups = []
    if command in PARTITION_COMMANDS:
        groups.append([draw(_partitions)])
    elif command == "flex":
        groups.append([draw(_ints)])
    flags = [f for f in ACCEPTS[command] if f in REQUIRED or draw(st.integers(0, 3))]
    if not draw(st.integers(0, 9)):
        flags.append(draw(st.sampled_from(sorted(_values) + ["--basis"])))
    for flag in flags:
        if flag == "--basis":
            values = st.sampled_from(BASES.get(command, ["schur"]))
        else:
            values = _values[flag]
        groups.append([flag] if values is None else [flag, draw(values)])
    return [command] + [arg for group in draw(st.permutations(groups)) for arg in group]


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


@given(argvs())
@example(["flex", "900"])
@example(["hyperflex", "--n", "300", "--json"])
@settings(max_examples=150, deadline=None)
def test_argv_fuzz_exits_cleanly(argv):
    """Any argv gets exit 0, 2 or 3: no traceback, one-line refusals, parsable JSON."""
    out, err = io.StringIO(), io.StringIO()
    # hypothesis raises the recursion limit while a test runs; give main the
    # headroom of a fresh process, so a deep recursion fails here as it would there
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 1000)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.setrecursionlimit(limit)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in out + err
    if code == 3:
        assert not out and err.startswith("error: ") and err.count("\n") == 1, argv
    if code == 0 and "--json" in argv:
        json.loads(out)
