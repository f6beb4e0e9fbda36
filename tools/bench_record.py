"""Record perfbench runs in BENCH_<short-sha>.json and compare two sources.

Usage, from the root of a checkout:

    python tools/bench_record.py --workload paper_report --seeds 901-910 \\
        --run parent=../parent --run change=.   # 10 pairs, 30 s runs
    python tools/bench_record.py --workload paper_report --seeds 941 \\
        --trace 1 --run parent=../parent --run change=.   # per-layer
    python tools/bench_record.py --compare parent change

Record mode runs ``perfbench/run.py --trace T`` of each --run checkout,
unchanged, once per workload and seed, T being --trace (0 by default).
A traced run (``--trace 1``) reports per-layer metrics in place of the
end-to-end ones, so it is kept and compared apart from the untraced runs
of its workload, under the group ``WORKLOAD --trace 1``.  With two checkouts the order
alternates from seed to seed, so each seed gives one pair.  From each
run it keeps the ``env`` line, the ``unscaled:`` line, the ``FAILED``
lines and the last JSON line, whether or not the run was correct; a run
that exits with an error is kept with its status and stderr.

Runs go to BENCH_<short-sha>.json at the root of this checkout, named
by its git head and keyed by each run's src_sha256: an uncommitted change
reports its parent's head, so one file holds a parent and its change.
The file is rewritten after every run, with each source's medians.

Compare mode reads every BENCH_*.json at the root, selects two sources
by label or src_sha256 prefix, and prints per workload and metric both
medians, the first source's quartiles, and in how many pairs (same
workload and seed) the second source reads better; ties count for
neither.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
UNSCALED = re.compile(
    r"^unscaled: throughput (\S+) 1/s, p50 (\S+) ms, tail (\S+) ms$", re.M)
# The unscaled figures, by the end-to-end metric each stands beside.
UNSCALED_KEYS = ("throughput_ops_per_s", "latency_p50_ms", "latency_tail_ms")


def parse_output(text: str) -> dict:
    """One run's record from the stdout of perfbench/run.py."""
    lines = text.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    last = json.loads(lines[-1])
    found = UNSCALED.search(text)
    unscaled = dict(zip(UNSCALED_KEYS, map(float, found.groups()))) if found else {}
    return {
        "src_sha256": env["src_sha256"],
        "env": env,
        "correct": last["correct"],
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": {name: m["value"] for name, m in last["metrics"].items()},
        "unscaled": unscaled,
        "failures": [line[7:] for line in lines if line.startswith("FAILED ")],
    }


def group(run: dict) -> str:
    """The workload of a run, with " --trace 1" for a traced run."""
    return run["workload"] + (" --trace 1" if run.get("trace") else "")


def medians(runs: list[dict]) -> dict:
    """Per group (workload, traced apart): each metric's median over the
    runs that have it, unscaled figures under "unscaled.NAME", and the
    count of runs and of runs that were not correct."""
    out: dict = {}
    for workload in sorted({group(r) for r in runs}):
        mine = [r for r in runs if group(r) == workload]
        values: dict = {}
        for r in mine:
            for name, value in r.get("metrics", {}).items():
                values.setdefault(name, []).append(value)
            for name, value in r.get("unscaled", {}).items():
                values.setdefault("unscaled." + name, []).append(value)
        out[workload] = {
            "runs": len(mine),
            "not_correct": sum(not r["correct"] for r in mine),
            "medians": {name: statistics.median(v) for name, v in values.items()},
        }
    return out


def run_once(checkout: Path, workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"src_sha256": None, "correct": False, "returncode": proc.returncode,
                "stderr": proc.stderr[-2000:]}
    return parse_output(proc.stdout)


def git_head(root: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def record(args) -> Path:
    sides = [spec.split("=", 1) for spec in args.run]
    head = git_head(ROOT)
    path = ROOT / f"BENCH_{head[:7]}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"head": head, "sources": {}}
    for i, seed in enumerate(args.seeds):
        for label, checkout in sides if i % 2 == 0 else sides[::-1]:
            run = run_once(Path(checkout), args.workload, seed, args.seconds,
                           args.trace)
            run.update(label=label, workload=args.workload, seed=seed,
                       seconds=args.seconds, trace=args.trace)
            source = doc["sources"].setdefault(
                run["src_sha256"] or f"unknown:{label}", {"labels": [], "runs": []})
            if label not in source["labels"]:
                source["labels"].append(label)
            source["runs"].append(run)
            source["medians"] = medians(source["runs"])
            path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
            print(f"{label} {args.workload} seed {seed}: correct {run['correct']}, "
                  f"{run.get('metrics', {}).get('throughput_ops_per_s', 'no')} ops/s",
                  flush=True)
    return path


def select(sources: dict, key: str) -> list[dict]:
    """The runs of the one source whose label or src_sha256 prefix is key."""
    hits = [(src, s) for src, s in sources.items()
            if key in s["labels"] or src.startswith(key)]
    if len(hits) != 1:
        raise SystemExit(f"{key!r} names {len(hits)} sources, not one")
    return hits[0][1]["runs"]


def _value(run: dict, name: str):
    """A metric of a run by name; "unscaled.NAME" is an unscaled figure."""
    if name.startswith("unscaled."):
        return run.get("unscaled", {}).get(name[len("unscaled."):])
    return run.get("metrics", {}).get(name)


def compare(a_runs: list[dict], b_runs: list[dict], better: dict) -> list[str]:
    """Report lines: per group and metric, the medians of a and b, a's
    quartiles, and b's wins over the pairs of the same group and seed."""
    lines = []
    for workload in sorted({group(r) for r in a_runs + b_runs}):
        a = {r["seed"]: r for r in a_runs if group(r) == workload}
        b = {r["seed"]: r for r in b_runs if group(r) == workload}
        bad = sum(not r["correct"] for r in [*a.values(), *b.values()])
        lines.append(f"{workload}: {len(a.keys() & b.keys())} pairs, "
                     f"{len(a)}/{len(b)} runs, {bad} not correct")
        for name, higher in better.items():
            av = [v for v in (_value(r, name) for r in a.values()) if v is not None]
            bv = [v for v in (_value(r, name) for r in b.values()) if v is not None]
            if not av or not bv:
                continue
            pairs = [(_value(a[s], name), _value(b[s], name)) for s in a.keys() & b.keys()]
            pairs = [(x, y) for x, y in pairs if x is not None and y is not None]
            wins = sum(x != y and (y > x) == higher for x, y in pairs)
            q1, _, q3 = (statistics.quantiles(av, n=4, method="inclusive")
                         if len(av) > 1 else av * 3)
            ma, mb = statistics.median(av), statistics.median(bv)
            change = f"{100 * (mb - ma) / ma:+.1f}%" if ma else "n/a"
            lines.append(f"  {name:34s} {ma:10.4g} [{q1:.4g}, {q3:.4g}] -> {mb:10.4g} "
                         f"({change}), wins {wins}/{len(pairs)}, "
                         f"beyond IQR {abs(mb - ma) > q3 - q1}")
    return lines


def directions() -> dict:
    """Each metric's name and whether higher is better: BENCHMARK.json's
    end-to-end metrics, the unscaled figures, then its per-layer metrics,
    which only traced runs report."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] == "higher" for m in bench["end_to_end"]}
    better |= {"unscaled." + k: better[k] for k in UNSCALED_KEYS}
    better |= {m["name"]: m["better"] == "higher" for m in bench["per_layer"]}
    return better


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seeds", type=seed_range, help="a seed, or FIRST-LAST")
    p.add_argument("--seconds", type=int,
                   help="run length (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--run", action="append", default=[], metavar="LABEL=DIR",
                   help="a checkout to run, with its label; repeat for pairs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="run.py's --trace: 1 records per-layer metrics")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args(argv)
    if args.compare:
        sources: dict = {}
        for path in sorted(ROOT.glob("BENCH_*.json")):
            for src, s in json.loads(path.read_text())["sources"].items():
                both = sources.setdefault(src, {"labels": [], "runs": []})
                both["labels"] += s["labels"]
                both["runs"] += s["runs"]
        a, b = (select(sources, key) for key in args.compare)
        print("\n".join(compare(a, b, directions())))
        return 0
    if not (args.workload and args.seeds and args.run):
        p.error("record mode needs --workload, --seeds and at least one --run")
    if not all("=" in spec for spec in args.run):
        p.error("--run takes LABEL=DIR")
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    print(record(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
