"""Metric definitions in run.py."""

import run


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([float(x) for x in range(1, 171)]) == (153.0, 90.0)
    assert run.tail([float(x) for x in range(1, 501)]) == (475.0, 95.0)
    # Fewer than 20 samples: no percentile has ten beyond, report the median.
    assert run.tail([float(x) for x in range(1, 16)]) == (8.0, 50.0)


def test_scaling_divides_by_the_reference_median():
    nominal = run.REFERENCE_NOMINAL_S
    slow = {"latencies_s": [0.1, 0.2], "references_s": [2 * nominal] * 3}
    assert run.scaled_latencies_ms(slow) == [50.0, 100.0]
