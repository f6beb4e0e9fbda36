"""Stage-age reparametrization."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from mehgrisk import stagemap

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_knot_values():
    for stage, age in ((1, 1), (2, 6), (3, 12), (4, 60), (5, 90)):
        assert stagemap.age(stage) == age


def test_segment_formulas():
    # The four linear pieces: 5t-4, 6t-6, 48t-132, 30t-60.
    cases = (
        (1.4, 5 * 1.4 - 4),
        (2.5, 6 * 2.5 - 6),
        (3.25, 48 * 3.25 - 132),
        (4.8, 30 * 4.8 - 60),
    )
    for t, age in cases:
        assert math.isclose(stagemap.age(t), age, rel_tol=1e-14)


def test_published_mapped_stages():
    assert math.isclose(stagemap.age(3.3), 26.4, abs_tol=1e-12)
    assert math.isclose(stagemap.age(5.5), 105.0, abs_tol=1e-12)


def test_continuity_at_interior_knots():
    for t in (2.0, 3.0, 4.0):
        eps = 1e-9
        left = stagemap.age(t - eps)
        right = stagemap.age(t + eps)
        assert abs(left - stagemap.age(t)) < 1e-6
        assert abs(right - stagemap.age(t)) < 1e-6


def test_monotone():
    ts = np.linspace(0.0, 7.0, 700)
    ages = [stagemap.age(float(t)) for t in ts]
    assert all(b > a for a, b in zip(ages, ages[1:]))


def test_extrapolation_uses_last_segment():
    assert math.isclose(stagemap.age(5.5), 30 * 5.5 - 60, rel_tol=1e-14)
    assert stagemap.is_extrapolated(5.5)
    assert not stagemap.is_extrapolated(5.0)
    assert not stagemap.is_extrapolated(1.0)


def test_below_range_extends_first_segment():
    # Stage 0.5 used to be refused; it now lies on 5t - 4 extended, and a
    # stage below 0.8 gets a negative age, flagged and not clamped.
    assert stagemap.age(0.5) == -1.5
    assert stagemap.age(0.0) == -4.0
    assert math.isclose(stagemap.age(0.8), 0.0, abs_tol=1e-15)
    assert stagemap.is_extrapolated(0.5)
    assert stagemap.is_extrapolated(0.9999)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_stage_and_age_rejected(bad):
    # A stage that is not finite has no age.
    with pytest.raises(ValueError, match=f"stage {bad} is not finite"):
        stagemap.age(bad)


def test_age_matches_perfbench_oracle(monkeypatch):
    # The benchmark's oracle maps stages independently of the package.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import oracles

    assert oracles.STAGE_AGE_KNOTS == stagemap.KNOTS
    for t in np.linspace(0.0, 7.0, 7001).tolist():
        assert stagemap.age(t) == oracles.stage_to_age(t), t
