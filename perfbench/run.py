"""mehgrisk benchmark: one workload, one run, every metric by name.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_report --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run times set-up in several fresh interpreters,
then runs the workload untraced in a worker process and reports the
end-to-end metrics.  With ``--trace 1`` it runs the workload for half the
time untraced and half traced, and reports the per-layer metrics.  Every
operation's output is checked; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  Spans and a full
record of the run, environment included, go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("paper_report", "field_sweep", "flow_witness")
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 60
WORKER_SLACK_S = 90
# The tail is the highest of these percentiles with at least TAIL_BEYOND
# samples beyond it.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10
# Reference-kernel duration that defines the fixed speed operation times
# are scaled to.
REFERENCE_NOMINAL_S = 0.010


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def worker(args, seconds: float, trace: int, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = SETUP_TIMEOUT_S if setup_only else seconds + WORKER_SLACK_S
    # subprocess.run kills the worker and waits for it on timeout.
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def speed_scale(references_s: list[float]) -> float:
    """Factor that states times at the host speed of REFERENCE_NOMINAL_S.

    The host's speed drifts by a quarter within a minute (a fixed loop
    took 21 to 35 ms in 10-second windows), which moves whole runs.  The
    worker times a fixed reference kernel between operations, and the
    factor is REFERENCE_NOMINAL_S over the kernel's mean duration in the
    same run.  The mean, like a run's total operation time, averages the
    host's speed over the run; the median follows the typical moment
    instead, and tracked the operations' times less closely.
    """
    return REFERENCE_NOMINAL_S / statistics.fmean(references_s)


def scaled_latencies_ms(run: dict) -> list[float]:
    """Operation times in ms, multiplied by the run's speed_scale."""
    scale = speed_scale(run["references_s"])
    return [1e3 * latency * scale for latency in run["latencies_s"]]


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """Highest percentile of TAIL_LADDER with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile), nearest-rank.  A run with fewer than
    2 * TAIL_BEYOND samples has no such percentile; it reports the
    median, as percentile 50.
    """
    ordered = sorted(latencies_ms)
    n = len(ordered)
    pct = max((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= TAIL_BEYOND),
              default=50.0)
    return ordered[max(0, math.ceil(pct / 100.0 * n) - 1)], pct


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload_seed": seed,
        "thread_pools": "1 (OMP/OPENBLAS/MKL/NUMEXPR/VECLIB_*_THREADS)",
    }


def end_to_end(args) -> tuple[dict, list, list]:
    setup_runs = [worker(args, 0, 0, setup_only=True) for _ in range(SETUP_RUNS)]
    # One factor from the kernel runs of all set-up interpreters together:
    # each interpreter's own ten are too few to scale its time alone.
    scale = speed_scale([d for r in setup_runs for d in r["references_s"]])
    setups = [r["setup_s"] * scale for r in setup_runs]
    run = worker(args, args.seconds, 0)
    if not run["latencies_s"]:
        raise SystemExit("no operation completed")
    lat = scaled_latencies_ms(run)
    raw = [x * 1e3 for x in run["latencies_s"]]
    tail_ms, tail_pct = tail(lat)
    n = len(lat)
    metrics = {
        "throughput_ops_per_s": (1e3 * n / sum(lat), "1/s", n),
        "latency_p50_ms": (statistics.median(lat), "ms", n),
        "latency_tail_ms": (tail_ms, "ms", n),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", 1),
    }
    refs = [d * 1e3 for d in run["references_s"]]
    notes = [f"latency_tail_ms is p{tail_pct:g} of {n} operations",
             "setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups)
             + "; unscaled: " + ", ".join(f"{r['setup_s']:.4f}" for r in setup_runs),
             f"unscaled: throughput {1e3 * n / sum(raw):.6g} 1/s, "
             f"p50 {statistics.median(raw):.6g} ms, tail {tail(raw)[0]:.6g} ms",
             f"reference kernel: {len(refs)} runs, mean {statistics.fmean(refs):.4g} ms, "
             f"range {min(refs):.4g}-{max(refs):.4g} ms "
             f"(nominal {REFERENCE_NOMINAL_S * 1e3:g} ms)"]
    return metrics, notes, [run]


def per_layer(args) -> tuple[dict, list, list]:
    half = args.seconds / 2.0
    plain = worker(args, half, 0)
    traced = worker(args, half, 1)
    layers = traced["layers"]

    units = {"calls": "count/op", "busy_ms": "ms/op", "self_ms": "ms/op",
             "level_passes": "count/op", "distinct_level_passes": "count/op",
             "cells_per_s": "1/s", "vertices": "count/op", "polylines": "count/op",
             "samples": "count/op", "samples_per_s": "1/s", "reduction_ratio": "ratio",
             "points": "count/op", "steps": "count/op", "steps_per_s": "1/s",
             "exit_left_domain": "count/op", "exit_max_steps": "count/op",
             "pairs": "count/op", "pairs_per_s": "1/s", "bytes": "B/op"}
    ops = traced["traced_ops"]
    metrics = {name: (value, units[name.rsplit(".", 1)[1]], ops)
               for name, value in layers.items()}
    both = (plain, traced)
    attempted = sum(r["attempted"] for r in both)
    stats = [r["stats"] for r in both]
    # Both halves run the same input sequence, so the ratio compares the
    # operations both completed rather than prefixes of different length.
    common = min(len(plain["latencies_s"]), len(traced["latencies_s"]))
    plain_s = sum(scaled_latencies_ms(plain)[:common])
    traced_s = sum(scaled_latencies_ms(traced)[:common])
    metrics.update({
        "cli.bundle_bytes": (traced["stats"]["bundle_bytes"] / traced["attempted"], "B/op", ops),
        "trace.overhead_ratio": (plain_s / traced_s if traced_s else 0.0, "ratio", common),
        "failed_ratio": (sum(r["failed"] for r in both) / attempted, "ratio", attempted),
        "region_area_err": (max(s["region_area_err"] for s in stats), "stage.mg/kg", attempted),
        "level_residual_max": (max(s["level_residual_max"] for s in stats), "HQ", attempted),
    })
    notes = [f"analysis.region.reduction_ratio base: "
             f"{traced['bases']['analysis.region.reduction_ratio']} region calls "
             f"over {ops} operations",
             f"spans written to .perfbench_out/spans-{args.workload}-seed{args.seed}.jsonl",
             "self time per operation, largest first:"]
    notes += [f"  {name:28s} {ms:10.3f} ms/op" for ms, name in traced["ranking"]]
    return metrics, notes, list(both)


def main(argv=None) -> int:
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps
    # the running worker before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not (ROOT / "src" / "mehgrisk" / "__init__.py").is_file():
        print(f"error: no mehgrisk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    collect = per_layer if args.trace else end_to_end
    metrics, notes, runs = collect(args)
    env.update(runs[-1]["versions"])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]

    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, n) in metrics.items():
        print(f"{name} = {value:.6g} {unit} (n={n})")
    for line in notes:
        print(line)
    for line in failures:
        print("FAILED " + line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  environment=env, notes=notes, failures=failures,
                  samples={name: n for name, (_, _, n) in metrics.items()})
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
