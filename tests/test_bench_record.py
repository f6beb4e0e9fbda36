"""tools/bench_record.py reads perfbench/run.py's output; no benchmark runs here."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

# The stdout of `perfbench/run.py --workload flow_witness --seed 3
# --seconds 2 --trace 0`, as captured.
OUTPUT = """\
env {"cpu_count": 2, "cpu_model": "Intel(R) Xeon(R) Processor", "git_commit": null, "mehgrisk": "0.1.0", "nproc": 2, "numpy": "2.4.6", "python": "3.11.7", "src_sha256": "15f420215a6df38771b57858f059d73ef16b38ca3dd2f764a51ab0a717082ce3", "thread_pools": "1 (OMP/OPENBLAS/MKL/NUMEXPR/VECLIB_*_THREADS)", "workload_seed": 3}
throughput_ops_per_s = 310.7 1/s (n=713)
latency_p50_ms = 1.81167 ms (n=713)
latency_tail_ms = 10.3332 ms (n=713)
setup_s = 0.157071 s (n=7)
peak_rss_mb = 42.5195 MB (n=1)
latency_tail_ms is p95 of 713 operations
setup_s samples: 0.1574, 0.1571, 0.1547, 0.1906, 0.1564, 0.1531, 0.1721; unscaled: 0.1276, 0.1274, 0.1255, 0.1546, 0.1269, 0.1242, 0.1396
unscaled: throughput 383.376 1/s, p50 1.46824 ms, tail 8.37437 ms
reference kernel: 8 runs, mean 8.104 ms, range 5.873-10.86 ms (nominal 10 ms)
{"correct": true, "attempted": 714, "failed": 0, "metrics": {"throughput_ops_per_s": {"value": 310.70030470848457, "unit": "1/s"}, "latency_p50_ms": {"value": 1.811667232437808, "unit": "ms"}, "latency_tail_ms": {"value": 10.33320642666354, "unit": "ms"}, "setup_s": {"value": 0.1570711541776344, "unit": "s"}, "peak_rss_mb": {"value": 42.51953125, "unit": "MB"}}}
"""

# The same run with two failed operations.
FAILED = (
    OUTPUT.replace("reference kernel", "FAILED op 7: R not strictly increasing\n"
                   "FAILED op 9: exit reason 'step_underflow'\nreference kernel")
    .replace('"correct": true, "attempted": 714, "failed": 0',
             '"correct": false, "attempted": 714, "failed": 2')
)


def test_parse_output_keeps_env_unscaled_and_result():
    run = bench_record.parse_output(OUTPUT)
    assert run["src_sha256"].startswith("15f420215a6d")
    assert run["env"]["numpy"] == "2.4.6"
    assert (run["correct"], run["attempted"], run["failed"]) == (True, 714, 0)
    assert run["metrics"]["throughput_ops_per_s"] == 310.70030470848457
    assert run["metrics"]["peak_rss_mb"] == 42.51953125
    # Not the set-up line, whose unscaled figures follow a semicolon.
    assert run["unscaled"] == {"throughput_ops_per_s": 383.376,
                               "latency_p50_ms": 1.46824,
                               "latency_tail_ms": 8.37437}
    assert run["failures"] == []


def test_a_run_that_is_not_correct_is_kept():
    run = bench_record.parse_output(FAILED)
    assert (run["correct"], run["failed"]) == (False, 2)
    assert run["failures"] == ["op 7: R not strictly increasing",
                               "op 9: exit reason 'step_underflow'"]
    runs = [dict(run, workload="flow_witness"),
            dict(bench_record.parse_output(OUTPUT), workload="flow_witness")]
    summary = bench_record.medians(runs)["flow_witness"]
    assert (summary["runs"], summary["not_correct"]) == (2, 1)
    assert summary["medians"]["unscaled.latency_p50_ms"] == 1.46824


def _runs(throughputs, tails):
    return [{"workload": "paper_report", "seed": seed, "correct": True,
             "metrics": {"throughput_ops_per_s": x, "latency_tail_ms": y}}
            for seed, (x, y) in enumerate(zip(throughputs, tails))]


def test_compare_counts_pair_wins_by_direction():
    better = {"throughput_ops_per_s": True, "latency_tail_ms": False}
    a = _runs([10.0, 11.0, 12.0, 13.0, 14.0], [50.0, 50.0, 50.0, 50.0, 50.0])
    # Higher throughput wins, lower tail wins, a tie counts for neither.
    b = _runs([11.0, 12.0, 12.0, 12.5, 15.0], [49.0, 50.0, 51.0, 40.0, 45.0])
    lines = bench_record.compare(a, b, better)
    assert lines[0] == "paper_report: 5 pairs, 5/5 runs, 0 not correct"
    assert "12 [11, 13] ->         12 (+0.0%), wins 3/5, beyond IQR False" in lines[1]
    assert lines[1].lstrip().startswith("throughput_ops_per_s")
    assert "50 [50, 50] ->         49 (-2.0%), wins 3/5, beyond IQR True" in lines[2]


@pytest.mark.parametrize("text, seeds", [("7", [7]), ("901-903", [901, 902, 903])])
def test_seed_range(text, seeds):
    assert bench_record.seed_range(text) == seeds
