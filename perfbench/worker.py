"""One measured phase of a workload, in a fresh interpreter.

Run by ``run.py``; prints one JSON object on its last stdout line.
With ``--setup-only`` it times importing mehgrisk, then times the
reference kernel a few times, and stops there.  Otherwise it builds the
workload's inputs, runs one untimed warm-up operation, then operations
back to back for ``--seconds``, timing each call into the package and
checking each output outside the timed region.  With ``--trace 1`` the
layers are wrapped from outside and the spans are written to
``.perfbench_out/`` at the end.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

MAX_REPORTED_FAILURES = 5
# Between operations the reference kernel runs once for each whole
# interval of this length since its last runs, so a workload of long
# operations samples the host's speed as densely as one of short ones.
REFERENCE_INTERVAL_S = 0.25
# Reference-kernel runs after a set-up measurement, after one warm-up run.
SETUP_REFERENCES = 10


def reference_kernel() -> float:
    """Fixed work of the kinds the package does, touching none of it.

    A marching-squares-style loop over a small numpy grid (element reads,
    tuple and list building, as the pure-Python layers do), then numpy
    operations on short and on long vectors.  Its duration tracks the
    speed the host gives this process at the moment; run.py uses it to
    scale operation times to a fixed speed.
    """
    # Imported here rather than at module level so that set-up timing
    # counts numpy's import as part of importing mehgrisk.
    import numpy as np

    n = 40
    axis = np.linspace(0.0, 1.0, n + 1)
    above = (axis[:, None] - 0.5) ** 2 + (axis[None, :] - 0.5) ** 2 > 0.1
    segments = []
    for j in range(n):
        for i in range(n):
            idx = (int(above[j, i]) | int(above[j, i + 1]) << 1
                   | int(above[j + 1, i + 1]) << 2 | int(above[j + 1, i]) << 3)
            if idx in (0, 15):
                continue
            segments.append(((float(axis[i]), float(axis[j])), (idx, i, j)))
    acc = float(len(segments))
    pts = np.linspace(0.0, 1.0, 4000).reshape(2000, 2)
    for i in range(0, 2000, 40):
        acc += float(np.count_nonzero(np.sum((pts[i + 1:] - pts[i]) ** 2, axis=1) > 0.01))
    x = np.linspace(0.0, 1.0, 200_000)
    acc += float(np.count_nonzero(((0.3 * x + 0.2) * x + 0.1) * x >= 0.2))
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mehgrisk
    import mehgrisk.cli  # noqa: F401  (cli is not imported by the package)

    where = Path(mehgrisk.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"mehgrisk imported from {where}, not from {src}")
    return mehgrisk


def main(argv=None) -> int:
    args = parse_args(argv)
    t = time.perf_counter()
    mg = import_package()
    setup = time.perf_counter() - t
    if args.setup_only:
        reference_kernel()
        references = [time_reference() for _ in range(SETUP_REFERENCES)]
        print(json.dumps({"setup_s": setup, "references_s": references}))
        return 0
    # Imported after the timed import: it imports numpy, whose import
    # belongs to importing mehgrisk.
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        wl = workloads.WORKLOADS[args.workload](mg, args.seed, workdir)
        return measure(args, mg, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, mg, wl) -> int:
    import numpy

    tracer = Tracer() if args.trace else None
    failures: list[str] = []
    attempted = failed = 0
    latencies: list[float] = []
    references: list[float] = []
    last_reference = 0.0

    def reference() -> None:
        nonlocal last_reference
        due = int((time.perf_counter() - last_reference) / REFERENCE_INTERVAL_S)
        if due:
            references.extend(time_reference() for _ in range(due))
            last_reference = time.perf_counter()

    def one(k: int, timed: bool) -> None:
        nonlocal attempted, failed
        attempted += 1
        spec = wl.prepare(k)
        try:
            t0 = time.perf_counter()
            if tracer is None:
                out = wl.op(spec)
            else:
                out = tracer.run_op(k, wl.root_span, wl.op, spec)
            dt = time.perf_counter() - t0
            try:
                problems = wl.check(spec, out)
            except Exception:
                problems = ["check raised: " + traceback.format_exc(limit=3)]
        except Exception:
            problems = ["operation raised: " + traceback.format_exc(limit=3)]
            dt = None
        finally:
            wl.release(spec)
        if problems:
            failed += 1
            if len(failures) < MAX_REPORTED_FAILURES:
                failures.append(f"op {k}: " + "; ".join(problems))
        elif timed:
            latencies.append(dt)

    if tracer is not None:
        tracer.install(mg)
    try:
        reference_kernel()
        one(0, timed=False)
        if tracer is not None:
            tracer.spans.clear()
            tracer.counts.clear()
        start = time.perf_counter()
        last_reference = start - REFERENCE_INTERVAL_S
        k = 0
        while time.perf_counter() - start < args.seconds:
            k += 1
            reference()
            one(k, timed=True)
        reference()
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "latencies_s": latencies,
        "references_s": references,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stats": wl.stats.as_dict(),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "mehgrisk": mg.__version__,
        },
    }
    if tracer is not None:
        ops = max(1, k)
        layers, ranking, bases = layer_metrics(tracer, ops)
        result.update(layers=layers, ranking=ranking[:12], bases=bases, traced_ops=k)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
