"""rootstrata benchmark: every workload, end to end or traced per layer.

    python3 perfbench/run.py                          # all workloads, end to end
    python3 perfbench/run.py --workload sweep --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload cli --seed 7 --trace 1

Run from the root of a source checkout; rootstrata is imported from src/.
Each workload runs in a fresh child process (worker.py), started from this
one process, one at a time; the cli workload's child starts one CLI
process at a time, so at most two children run at once.  The metric names
and units come from BENCHMARK.json.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A run record (seed, commit, machine, load)
and the results are also written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("sweep", "routes", "twisted", "cli")
# Stay under the three minutes a run may take, children included.
BUDGET_S = 170


class BenchError(Exception):
    pass


def child(args, deadline):
    """Run worker.py with args; return its JSON line.  Kills its group on timeout."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
                           if p)
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the time limit")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    sys.stderr.write(err)
    try:
        if proc.returncode == 0:
            return json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        pass
    raise BenchError(f"worker {' '.join(args)} failed")


def worker_args(name, args, mode):
    return (["--workload", name, "--seed", str(args.seed), "--mode", mode,
             "--seconds", str(args.seconds)] + (["--small"] if args.small else []))


def end_to_end(name, args, deadline):
    raw = child(worker_args(name, args, "run"), deadline)
    setups = raw["setups"]
    lat = raw["latencies"]
    ops, wall = map(sum, zip(*raw["passes"]))
    metrics = {
        "ops_per_s": ops / wall,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(setups),
    }
    beyond = sum(x > metrics["op_p90_ms"] / 1e3 for x in lat)
    notes = {
        "ops_per_s": f"{ops} ops in {len(raw['passes'])} whole passes, {wall:.1f} s",
        "op_p50_ms": f"{len(lat)} samples",
        "op_p90_ms": f"{len(lat)} samples, {beyond} beyond p90",
        "peak_rss_mb": "workload child" + (", largest CLI process" if name == "cli" else ""),
        "setup_s": f"median of {len(setups)} fresh interpreters, one after each pass",
    }
    return raw, metrics, notes


def traced(name, args, deadline):
    raw = child(worker_args(name, args, "trace"), deadline)
    return raw, raw["metrics"], {}


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_probe_ms():
    """Median time of a fixed exact-arithmetic loop: how fast the machine runs now.

    Other tenants of a virtual machine slow it down without showing in the
    load average; this goes in the run record so that a slow run can be told
    from a slow program.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 2000):
            total += Fraction(1, i)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def unit_of(metric, declared):
    if metric in declared:
        return declared[metric]
    return "s" if metric.endswith("_s") else "count"


def terminate(signum, frame):
    sys.exit(128 + signum)  # unwinds through child(), which kills the worker


def main(argv=None):
    signal.signal(signal.SIGTERM, terminate)
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.get("run_seconds", 10))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not spec:
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "rootstrata" / "__init__.py").is_file():
        print(f"error: no rootstrata sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    declared = {m["name"]: m["unit"] for m in listed}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + BUDGET_S
    record = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "commit": git_commit(), "nproc": os.cpu_count(),
              "python": platform.python_version(), "platform": platform.platform(),
              "loadavg_start": os.getloadavg(), "cpu_probe_ms_start": cpu_probe_ms()}
    results, attempted, failed, out = {}, 0, 0, {}
    try:
        for name in names:
            measure = traced if args.trace else end_to_end
            raw, metrics, notes = measure(name, args, deadline)
            results[name] = {"metrics": metrics, "attempted": raw["attempted"],
                             "failed": raw["failed"]}
            attempted += raw["attempted"]
            failed += raw["failed"]
            for metric in sorted(metrics) if args.trace else declared:
                value = metrics[metric]
                print(f"{name:8} {metric:48} {value:>16.6g} {unit_of(metric, declared):6} "
                      f"{notes.get(metric, '')}")
            print(f"{name:8} {'error_rate':48} {raw['failed'] / raw['attempted']:>16.6g} "
                  f"{'1':6} {raw['failed']} failed of {raw['attempted']} attempted")
            if args.trace:
                verdict = "repeat exactly" if raw["counts_repeat"] else "DIFFER"
                print(f"{name:8} counts of two traced passes on seed {args.seed} {verdict}"
                      + (" (and on another seed)" if name == "sweep" else ""))
            prefix = f"{name}." if args.workload == "all" else ""
            for metric, unit in declared.items():
                out[prefix + metric] = {"value": metrics[metric], "unit": unit}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["loadavg_end"] = os.getloadavg()
    record["cpu_probe_ms_end"] = cpu_probe_ms()
    print("record " + json.dumps(record))
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "results": results}, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
