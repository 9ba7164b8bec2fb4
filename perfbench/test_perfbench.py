"""The benchmark's own tests: every workload at a small size, and the gates.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import gate, one_pass  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Every per-layer metric the traced run prints, whether or not BENCHMARK.json
# lists it.
PRINTED_PER_LAYER = [
    f"{name}.{stat}" for name, stats in [
        ("multipoly.substitute_homogeneous", ("calls", "self_s", "out_terms",
                                              "max_coeff_bits")),
        ("crs.crs_class_peeled", ("calls", "self_s")),
        ("crs.weighted_product", ("calls", "self_s")),
        ("crs.crs_class_at", ("calls", "self_s")),
        ("multipoly.MultiPoly.substitute", ("calls", "self_s")),
        ("dpoly.interpolate", ("calls", "self_s")),
        ("schur.divided_difference", ("calls", "self_s", "in_terms")),
        ("schur.schur_expand", ("calls", "self_s")),
        ("schur.SchurExpansion.to_roots", ("calls", "self_s")),
        ("dpoly.DPoly.compose", ("calls", "self_s")),
        ("dpoly.DPoly.divmod", ("calls", "self_s")),
        ("dpoly.DPoly.mul", ("calls", "coeff_products")),
        ("dpoly.DPoly.add", ("calls",)),
        ("multipoly.MultiPoly.mul", ("calls", "self_s")),
        ("crs.cache", ("hits", "misses")),
        ("flagcalc.incidence_class", ("calls", "self_s")),
        ("flagcalc.p_push", ("calls", "self_s")),
        ("flagcalc.q_push", ("calls", "self_s")),
        ("flagcalc.tangency_class_resolution", ("calls", "self_s")),
        ("universal.universal_class", ("calls", "self_s")),
        ("universal.hilbert_degree", ("calls", "self_s")),
        ("universal.universal_incidence_class", ("calls", "self_s")),
        ("universal.pencil_locus_class", ("calls", "self_s")),
        ("plucker.plucker_table", ("calls", "self_s")),
        ("cli.main", ("self_s",)),
        ("docs.document", ("self_s",)),
        ("docs.emit_json", ("self_s", "bytes")),
        ("golden.run_all", ("self_s",)),
        ("trace", ("overhead_s",)),
    ] for stat in stats
]


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=120, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_end_to_end_metrics_printed(workload):
    lines, result = bench(workload, 0)
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    printed = {line.split()[1] for line in lines if line.startswith(workload)}
    assert set(wanted) | {"error_rate"} <= printed


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_per_layer_metrics_printed(workload):
    lines, result = bench(workload, 1)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["correct"] and result["failed"] == 0
    printed = {line.split()[1] for line in lines if line.startswith(workload)}
    assert set(PRINTED_PER_LAYER) <= printed
    if workload == "cli":
        assert {"cli.import_s", "cli.spawn_s"} <= printed
    assert any("repeat exactly" in line for line in lines)


def test_run_refuses_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.iterdir():
        if f.is_file():
            (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def passes(workload):
    ops = next(workload.passes())
    return ops, one_pass(workload, ops)[2]


@pytest.mark.parametrize("name,keys", [
    ("sweep", ("sweep", "small")),
    ("twisted", ("twisted", "small", "classes")),
    ("twisted", ("twisted", "small", "loci", None)),
])
def test_gate_fires_on_corrupted_digest(monkeypatch, name, keys):
    workload = workloads.WORKLOADS[name](3, small=True)
    ops, outputs = passes(workload)
    assert not any(workload.check(ops, outputs))
    table = json.loads(json.dumps(workloads.EXPECTED))
    node = table
    keys = [str(workload.n) if k is None else k for k in keys]
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = "0" * 64
    monkeypatch.setattr(workloads, "EXPECTED", table)
    failed = workload.check(ops, outputs)
    if name == "twisted":  # only the ops under the corrupted digest fail
        assert any(failed) and not all(failed)
    else:
        assert all(failed)


def test_an_op_that_raises_counts_as_failed(monkeypatch):
    workload = workloads.Routes(3, small=True)
    ops = next(workload.passes())
    run = workload.run

    def failing(op):
        if op is ops[-1]:
            raise ArithmeticError("injected")
        return run(op)

    monkeypatch.setattr(workload, "run", failing)
    outputs = one_pass(workload, ops)[2]
    assert gate(workload, ops, outputs)[-1]


def test_routes_gate_fires_when_a_route_disagrees():
    workload = workloads.Routes(3, small=True)
    ops, outputs = passes(workload)
    assert not any(workload.check(ops, outputs))
    symbolic, interpolated, resolved = outputs[-1]
    outputs[-1] = (symbolic, interpolated, resolved * 2)
    assert workload.check(ops, outputs) == [False] * (len(ops) - 1) + [True]


def test_cli_gate_checks_exit_code_and_document():
    workload = workloads.Cli(3, small=True)
    ops, outputs = passes(workload)
    assert not any(workload.check(ops, outputs))
    for i, cmd in enumerate(ops):
        code, stdout, stderr = outputs[i]
        if cmd.ref[0] == "refuse":
            outputs[i] = (0, stdout, stderr)
        else:
            doc = json.loads(stdout)
            doc["notes"] = ["tampered"]
            outputs[i] = (code, json.dumps(doc), stderr)
    assert all(workload.check(ops, outputs))


def test_tracer_patches_every_binding():
    import rootstrata
    from rootstrata import crs, flagcalc, golden, multipoly, plucker, schur, universal

    originals = {
        "substitute_homogeneous": (multipoly.substitute_homogeneous,
                                   [crs, flagcalc, universal, golden, rootstrata]),
        "divided_difference": (schur.divided_difference, [crs, flagcalc, golden]),
        "schur_expand": (schur.schur_expand, [crs, flagcalc, golden, plucker, universal]),
    }
    with tracer.Tracer():
        for name, (original, modules) in originals.items():
            for module in modules:
                assert getattr(module, name) is not original, (module, name)
        assert multipoly.MultiPoly.__rmul__ is multipoly.MultiPoly.__mul__
    for name, (original, modules) in originals.items():
        assert all(getattr(module, name) is original for module in modules)
