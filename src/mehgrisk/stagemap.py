"""Piecewise-linear correspondence between life stage and age in years.

The survey groups define five anchor points: stage 1 is age 1 (weaning),
stage 2 is age 6, stage 3 is age 12, stage 4 is age 60 and stage 5 is
age 90.  Between anchors the map is linear, which makes it a strictly
increasing bijection; past the last anchor the final segment is extended
so that stages slightly beyond the survey range still get an age.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_KNOTS: tuple[tuple[float, float], ...] = (
    (1.0, 1.0),
    (2.0, 6.0),
    (3.0, 12.0),
    (4.0, 60.0),
    (5.0, 90.0),
)


@dataclass(frozen=True)
class StageMap:
    """Monotone piecewise-linear map stage -> age, with exact inverse."""

    knots: tuple[tuple[float, float], ...] = DEFAULT_KNOTS

    def __post_init__(self) -> None:
        if len(self.knots) < 2:
            raise ValueError("stage map needs at least two knots")
        for knot in self.knots:
            if not all(math.isfinite(v) for v in knot):
                raise ValueError(f"knot {knot!r} is not finite")
        stages = [k[0] for k in self.knots]
        ages = [k[1] for k in self.knots]
        if any(b <= a for a, b in zip(stages, stages[1:])):
            raise ValueError("knot stages must be strictly increasing")
        if any(b <= a for a, b in zip(ages, ages[1:])):
            raise ValueError("knot ages must be strictly increasing")
        object.__setattr__(
            self,
            "knots",
            tuple((float(s), float(a)) for s, a in self.knots),
        )

    @property
    def stage_range(self) -> tuple[float, float]:
        return self.knots[0][0], self.knots[-1][0]

    def _segment(self, stage: float) -> tuple[float, float, float, float]:
        # Pick the segment containing the stage; clamp extrapolation to the
        # outermost segments so the map stays linear beyond the knot range.
        ks = self.knots
        for (s0, a0), (s1, a1) in zip(ks, ks[1:]):
            if stage <= s1:
                return s0, a0, s1, a1
        s0, a0 = ks[-2]
        s1, a1 = ks[-1]
        return s0, a0, s1, a1

    def age(self, stage: float) -> float:
        if not math.isfinite(stage):
            raise ValueError(f"stage {stage} is not finite")
        if stage < self.knots[0][0]:
            raise ValueError(
                f"stage {stage} precedes the first knot {self.knots[0][0]}"
            )
        s0, a0, s1, a1 = self._segment(stage)
        return a0 + (stage - s0) * (a1 - a0) / (s1 - s0)

    def stage(self, age: float) -> float:
        if not math.isfinite(age):
            raise ValueError(f"age {age} is not finite")
        if age < self.knots[0][1]:
            raise ValueError(
                f"age {age} precedes the first knot {self.knots[0][1]}"
            )
        ks = self.knots
        seg = None
        for (s0, a0), (s1, a1) in zip(ks, ks[1:]):
            seg = (s0, a0, s1, a1)
            if age <= a1:
                break
        s0, a0, s1, a1 = seg
        return s0 + (age - a0) * (s1 - s0) / (a1 - a0)

    def is_extrapolated(self, stage: float) -> bool:
        lo, hi = self.stage_range
        return stage < lo or stage > hi


DEFAULT_STAGE_MAP = StageMap()
