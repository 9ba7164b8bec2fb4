"""Command line behavior: output shapes, JSON schema, exit codes."""

import json
import subprocess
import sys

import pytest

from rootstrata import docs
from rootstrata.cli import main


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
        assert docs.parse_json(docs.emit_json(doc)) == doc


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rootstrata.cli", "class", "2", "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["entries"][0]["coeffs_d"] == ["0", "-1", "1"]


def test_huge_repeat_count_is_a_domain_error(capsys):
    code, out, err = run(capsys, "class", "2^400")
    assert code == 3 and not out
    assert err.startswith("error: ") and err.count("\n") == 1


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
