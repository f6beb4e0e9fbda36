"""Stage-age reparametrization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mehgrisk.stagemap import DEFAULT_STAGE_MAP, StageMap


def test_knot_values():
    for stage, age in ((1, 1), (2, 6), (3, 12), (4, 60), (5, 90)):
        assert DEFAULT_STAGE_MAP.age(stage) == age
        assert DEFAULT_STAGE_MAP.stage(age) == stage


def test_segment_formulas():
    # The four linear pieces: 5t-4, 6t-6, 48t-132, 30t-60.
    m = DEFAULT_STAGE_MAP
    cases = (
        (1.4, 5 * 1.4 - 4),
        (2.5, 6 * 2.5 - 6),
        (3.25, 48 * 3.25 - 132),
        (4.8, 30 * 4.8 - 60),
    )
    for t, age in cases:
        assert math.isclose(m.age(t), age, rel_tol=1e-14)


def test_published_mapped_stages():
    m = DEFAULT_STAGE_MAP
    assert math.isclose(m.age(3.3), 26.4, abs_tol=1e-12)
    assert math.isclose(m.age(5.5), 105.0, abs_tol=1e-12)
    assert math.isclose(m.stage(26.4), 3.3, abs_tol=1e-12)


def test_continuity_at_interior_knots():
    m = DEFAULT_STAGE_MAP
    for t in (2.0, 3.0, 4.0):
        eps = 1e-9
        left = m.age(t - eps)
        right = m.age(t + eps)
        assert abs(left - m.age(t)) < 1e-6
        assert abs(right - m.age(t)) < 1e-6


def test_round_trip_random():
    m = DEFAULT_STAGE_MAP
    rng = np.random.default_rng(5)
    for age in rng.uniform(1.0, 120.0, 10000):
        assert abs(m.age(m.stage(float(age))) - age) < 1e-10


def test_monotone():
    m = DEFAULT_STAGE_MAP
    ts = np.linspace(1.0, 6.0, 500)
    ages = [m.age(float(t)) for t in ts]
    assert all(b > a for a, b in zip(ages, ages[1:]))


def test_extrapolation_uses_last_segment():
    m = DEFAULT_STAGE_MAP
    assert math.isclose(m.age(5.5), 30 * 5.5 - 60, rel_tol=1e-14)
    assert m.is_extrapolated(5.5)
    assert not m.is_extrapolated(5.0)
    assert not m.is_extrapolated(1.0)


def test_validation():
    with pytest.raises(ValueError):
        StageMap(((1.0, 1.0),))
    with pytest.raises(ValueError):
        StageMap(((1.0, 1.0), (1.0, 6.0)))
    with pytest.raises(ValueError):
        StageMap(((1.0, 5.0), (2.0, 3.0)))


def test_below_range_rejected():
    with pytest.raises(ValueError):
        DEFAULT_STAGE_MAP.age(0.5)
    with pytest.raises(ValueError):
        DEFAULT_STAGE_MAP.stage(0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_knots_rejected(bad):
    with pytest.raises(ValueError, match=rf"knot \(1.0, {bad}\) is not"):
        StageMap(((1.0, bad), (2.0, 6.0)))
    with pytest.raises(ValueError, match="is not finite"):
        StageMap(((bad, 1.0), (2.0, 6.0)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_stage_and_age_rejected(bad):
    with pytest.raises(ValueError, match=f"stage {bad} is not finite"):
        DEFAULT_STAGE_MAP.age(bad)
    with pytest.raises(ValueError, match=f"age {bad} is not finite"):
        DEFAULT_STAGE_MAP.stage(bad)
