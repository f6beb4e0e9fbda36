"""Piecewise-linear correspondence between life stage and age in years.

The survey groups define five anchor points: stage 1 is age 1 (weaning),
stage 2 is age 6, stage 3 is age 12, stage 4 is age 60 and stage 5 is
age 90.  Between anchors the map is linear and strictly increasing.
Outside them the first and last segments are extended, so every finite
stage gets an age: one below stage 0.8 gets a negative age, flagged as
extrapolated like one past stage 5.
"""

from __future__ import annotations

import math

KNOTS = ((1.0, 1.0), (2.0, 6.0), (3.0, 12.0), (4.0, 60.0), (5.0, 90.0))


def age(stage: float) -> float:
    """The age at a stage, on the segment that holds it or on the nearer
    outer segment extended."""
    if not math.isfinite(stage):
        raise ValueError(f"stage {stage} is not finite")
    for (s0, a0), (s1, a1) in zip(KNOTS, KNOTS[1:]):
        if stage <= s1:
            break
    return a0 + (stage - s0) * (a1 - a0) / (s1 - s0)


def is_extrapolated(stage: float) -> bool:
    """Whether the stage lies outside the knots' stage range."""
    return stage < KNOTS[0][0] or stage > KNOTS[-1][0]
