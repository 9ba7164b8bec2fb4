"""One workload in one fresh process; prints one JSON line of raw results.

    python perfbench/worker.py --workload sweep --seed 1 --seconds 10 --mode run

Modes: ``setup`` times the import of rootstrata plus input generation and
stops; ``run`` repeats whole passes until --seconds have passed, with one
``setup`` child after each; ``trace``
runs untraced and traced passes for the per-layer numbers.  Needs
rootstrata importable (``PYTHONPATH=src``); run.py launches it so.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

clock = time.perf_counter
OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"


def one_pass(workload, ops):
    """Run one pass cold; returns (wall seconds, per-op latencies, outputs)."""
    workload.begin_pass()
    latencies, outputs = [], []
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            outputs.append(workload.run(op))
        except Exception as exc:  # a failing op is counted by the gate, not fatal
            traceback.print_exc()
            outputs.append(exc)
        latencies.append(clock() - t0)
    return clock() - start, latencies, outputs


def gate(workload, ops, outputs):
    """Failed flag per op: a wrong output, an op that raised, or an unreadable pass."""
    try:
        flags = workload.check(ops, outputs)
    except Exception:
        traceback.print_exc()
        flags = [True] * len(ops)
    return [f or isinstance(out, Exception) for f, out in zip(flags, outputs)]


def measure(workload, seconds, setup):
    """Whole passes while the next is expected to end within the time.

    Each pass is gated after its clock stops, and its outputs are dropped,
    so that the peak RSS is that of one pass.  After each pass, setup() times
    one fresh set-up, so that the set-up samples spread over the whole run.
    """
    passes, latencies, setups, failed = [], [], [], 0
    start = clock()
    for ops in workload.passes():
        if passes and clock() - start + passes[-1][1] > seconds:
            break
        wall, lat, outputs = one_pass(workload, ops)
        passes.append((len(ops), wall))
        latencies.extend(lat)
        failed += sum(gate(workload, ops, outputs))
        setups.append(setup())
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return {"attempted": len(latencies), "failed": failed, "passes": passes,
            "latencies": latencies, "setups": setups,
            "peak_rss_kb": resource.getrusage(who).ru_maxrss}


def count_stats(metrics):
    """The deterministic part of a traced pass: everything but times."""
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def in_process(workload, ops, tracer=None):
    """One pass in this process, each library pass or CLI command cold.

    The CLI's commands go through rootstrata.cli.main instead of a process.
    """
    if workload.name != "cli":
        wall, _, outputs = one_pass(workload, ops)
        add_cache_info(tracer)
        return wall, outputs
    wall, outputs = 0.0, []
    for cmd in ops:
        t0 = clock()
        outputs.append(workload.run_in_process(cmd))
        wall += clock() - t0
        add_cache_info(tracer)
    return wall, outputs


def add_cache_info(tracer):
    if tracer is not None:
        from rootstrata import crs

        info = crs._crs_cached.cache_info()
        tracer.counts["crs.cache.hits"] += info.hits
        tracer.counts["crs.cache.misses"] += info.misses


def traced_pass(workload, ops):
    from tracer import Tracer

    with Tracer() as tracer:
        wall, outputs = in_process(workload, ops, tracer)
    return wall, outputs, tracer


def trace(workload, other):
    """Untraced and traced passes, alternated; counts must repeat exactly.

    other is the workload built from another seed when its counts must not
    depend on the seed (the sweep), else None.
    """
    import rootstrata.cli  # noqa: F401  (imported before any pass is timed)

    ops = next(workload.passes())
    checked, untraced, traced, tracers = [], [], [], []
    for _ in range(2):
        wall, outputs = in_process(workload, ops)
        untraced.append(wall)
        checked.append((workload, ops, outputs))
        wall, outputs, tracer = traced_pass(workload, ops)
        traced.append(wall)
        tracers.append(tracer)
        checked.append((workload, ops, outputs))
    if other is not None:
        other_ops = next(other.passes())
        _, outputs, tracer = traced_pass(other, other_ops)
        tracers.append(tracer)
        checked.append((other, other_ops, outputs))
    counts = [count_stats(t.metrics()) for t in tracers]
    counts_repeat = all(c == counts[0] for c in counts)
    metrics = tracers[0].metrics()
    metrics["trace.untraced_s"] = statistics.mean(untraced)
    metrics["trace.traced_s"] = statistics.mean(traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_s"] - metrics["trace.untraced_s"]
    if workload.name == "cli":
        # the same deck as cold processes, for what start-up costs beyond main()
        wall, _, outputs = one_pass(workload, ops)
        checked.append((workload, ops, outputs))
        metrics["cli.spawn_s"] = (wall - metrics["trace.untraced_s"]) / len(ops)
        metrics["cli.import_s"] = statistics.median(import_seconds() for _ in range(3))
    OUT_DIR.mkdir(exist_ok=True)
    tracers[0].write(OUT_DIR / f"spans-{workload.name}.jsonl")
    failed = sum(sum(gate(w, o, out)) for w, o, out in checked)
    attempted = sum(len(o) for _, o, _ in checked)
    return {"attempted": attempted + 1, "failed": failed + (not counts_repeat),
            "counts_repeat": counts_repeat, "metrics": metrics}


IMPORT_PROBE = ("import time; t = time.perf_counter(); import rootstrata.cli; "
                "print(time.perf_counter() - t)")


def import_seconds():
    """import rootstrata.cli in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)

    start = clock()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.small)
    setup_s = clock() - start
    if args.mode == "setup":
        result = {"setup_s": setup_s}
    elif args.mode == "run":
        argv = [sys.executable, __file__, "--workload", args.workload,
                "--seed", str(args.seed), "--mode", "setup"] + ["--small"] * args.small

        def setup():
            proc = subprocess.run(argv, capture_output=True, text=True, check=True)
            return json.loads(proc.stdout)["setup_s"]

        result = measure(workload, args.seconds, setup)
    else:
        other = (workloads.Sweep(args.seed + 1, args.small)
                 if args.workload == "sweep" else None)
        result = trace(workload, other)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
