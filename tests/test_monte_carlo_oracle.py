"""Streamed Monte Carlo region estimator against the two-array reference.

The reference below is the original estimator: it draws every t, then
every c, from one generator, and counts hits over slices of the two
arrays with g and h from the out-of-place Horner chain acc = acc*t + a_k.
The package's monte_carlo_region_area must return the same RegionArea
exactly, and slope_and_intercept the same bits, into new arrays or into
the caller's.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mehgrisk.analysis import (
    MC_CHUNK,
    RegionArea,
    _uniform_into,
    monte_carlo_region_area,
)
from mehgrisk.fieldfit import Rectangle, RiskField, published_field

_REFERENCE_CHUNK = 65536


def _reference_slope_and_intercept(field, ts):
    g = np.zeros_like(ts)
    h = np.zeros_like(ts)
    for ak, bk in zip(reversed(field.a), reversed(field.b)):
        g = g * ts + ak
        h = h * ts + bk
    return g, h


def _reference_region_area(field, domain, threshold, samples, seed):
    dom = domain or field.domain
    rng = np.random.default_rng(seed)
    ts = rng.uniform(dom.t_min, dom.t_max, samples)
    cs = rng.uniform(dom.c_min, dom.c_max, samples)
    hits = 0
    for lo in range(0, samples, _REFERENCE_CHUNK):
        part = slice(lo, lo + _REFERENCE_CHUNK)
        g, h = _reference_slope_and_intercept(field, ts[part])
        hits += int(np.count_nonzero(g * cs[part] + h >= threshold))
    hit_fraction = hits / samples
    area = hit_fraction * dom.area
    std_error = dom.area * float(
        np.sqrt(hit_fraction * (1.0 - hit_fraction) / samples)
    )
    return RegionArea(area, "monte_carlo", std_error, samples, seed)


def _assert_same(field, domain, threshold, samples, seed):
    got = monte_carlo_region_area(field, domain, threshold, samples, seed)
    want = _reference_region_area(field, domain, threshold, samples, seed)
    assert got == want
    # Same bits, not merely equal floats.
    assert repr(got.as_json_dict()) == repr(want.as_json_dict())


SAMPLE_COUNTS = (1, 1000, MC_CHUNK - 1, MC_CHUNK, MC_CHUNK + 1, 100_003)
SIGN_CHANGING = RiskField((-3.0, 1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0, 0.0))
SUBDOMAIN = Rectangle(2.0, 3.5, 0.5, 2.0)

coefficient = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
fields = st.builds(
    lambda a, b: RiskField(tuple(a), tuple(b)),
    st.lists(coefficient, min_size=5, max_size=5),
    st.lists(coefficient, min_size=5, max_size=5),
)


@st.composite
def subdomains(draw):
    """None (the field's own domain) or a strict subrectangle of it."""
    if draw(st.booleans()):
        return None
    t = draw(st.lists(st.floats(1.0, 5.0), min_size=2, max_size=2, unique=True))
    c = draw(st.lists(st.floats(0.2, 3.5), min_size=2, max_size=2, unique=True))
    return Rectangle(min(t), max(t), min(c), max(c))


@settings(max_examples=60, deadline=None)
@given(
    field=fields,
    domain=subdomains(),
    point=st.tuples(st.floats(1.0, 5.0), st.floats(0.2, 3.5)),
    offset=st.sampled_from((0.0, -0.5, 0.5)) | st.floats(-5.0, 5.0),
    samples=st.sampled_from(SAMPLE_COUNTS),
    seed=st.integers(0, 2**63),
)
def test_streamed_estimate_matches_reference(
    field, domain, point, offset, samples, seed
):
    # Thresholds at or near a field value keep both sides of the region
    # populated; random coefficients give sign-changing dR/dc often.
    threshold = float(field.evaluate(*point)) + offset
    _assert_same(field, domain, threshold, samples, seed)


@pytest.mark.parametrize("samples", SAMPLE_COUNTS + (10**6,))
def test_fixed_fields_match_reference(samples):
    for field, threshold in ((published_field(), 1.0), (SIGN_CHANGING, 1.0)):
        for seed in (0, 42):
            _assert_same(field, None, threshold, samples, seed)
    _assert_same(published_field(), SUBDOMAIN, 4.0, samples, 7)


def test_memory_does_not_grow_with_samples():
    # The reference holds 2 x 8 MB of draws at 10^6 samples.  The stream
    # allocates four float chunks and one bool chunk once per call (1.03
    # MiB at MC_CHUNK = 2^15); fresh arrays per chunk peaked at 1.50 MiB.
    field = published_field()
    monte_carlo_region_area(field, samples=1000)
    tracemalloc.start()
    try:
        monte_carlo_region_area(field, samples=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 8 * MC_CHUNK


def test_overflowing_span_raises():
    # uniform refuses a span high - low that overflows; so must the stream.
    # R = 1 is bounded on these domains, so the field accepts them.
    one = (1.0, 0.0, 0.0, 0.0, 0.0)
    wide = RiskField((0.0,) * 5, one, Rectangle(-1e308, 1e308, 0.0, 1.0))
    with pytest.raises(OverflowError):
        monte_carlo_region_area(wide, samples=10)
    tall = RiskField((0.0,) * 5, one, Rectangle(1.0, 5.0, -1e308, 1e308))
    with pytest.raises(OverflowError):
        monte_carlo_region_area(tall, samples=10)
    with pytest.raises(OverflowError):
        np.random.default_rng(0).uniform(-1e308, 1e308, 10)


# uniform refuses high < low, so spans are nonnegative; the bounds are not.
spans = st.sampled_from((0.0, 5e-324, 1e-300, 1e-12, 1.0, 4.0, 1e300, 1.7e308))
lows = st.floats(-1e300, 1e300, allow_nan=False) | st.sampled_from((0.0, -0.0))


@settings(max_examples=250, deadline=None)
@given(
    low=lows,
    span=spans | st.floats(0.0, 1e300),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**63),
)
def test_scaled_draws_equal_uniform(low, span, n, seed):
    # random(out=) scaled in place is low + (high - low) * u, the doubles
    # uniform returns, for negative bounds and tiny and huge spans alike.
    high = low + span
    if not np.isfinite(high - low):
        return
    want = np.random.default_rng(seed).uniform(low, high, n)
    got = np.empty(n)
    rng = np.random.default_rng(seed)
    _uniform_into(rng, low, high, got)
    assert got.tobytes() == want.tobytes()
    # Both consumed one stream output per draw.
    assert rng.random() == np.random.default_rng(seed).random(n + 1)[-1]


def _assert_same_bits(field, stages):
    out = (np.full_like(stages, np.nan), np.full_like(stages, -0.0))
    with np.errstate(invalid="ignore", over="ignore"):  # 0*inf, huge t
        got = field.slope_and_intercept(stages)
        into = field.slope_and_intercept(stages, out=out)
        want = _reference_slope_and_intercept(field, stages)
    assert into[0] is out[0] and into[1] is out[1]
    for x, y, z in zip(got, into, want):
        assert x.tobytes() == y.tobytes() == z.tobytes()


finite_stage = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
any_stage = st.floats(allow_nan=True, allow_infinity=True) | finite_stage
signed_coefficient = coefficient | st.sampled_from((0.0, -0.0))


@settings(max_examples=200, deadline=None)
@given(
    a=st.lists(signed_coefficient, min_size=5, max_size=5),
    b=st.lists(signed_coefficient, min_size=5, max_size=5),
    ts=st.lists(any_stage, min_size=1, max_size=40),
)
def test_slope_and_intercept_bitwise_equal_to_horner_chain(a, b, ts):
    _assert_same_bits(RiskField(tuple(a), tuple(b)), np.array(ts, dtype=float))


def test_slope_and_intercept_signed_zero_fields():
    # 0*t + a_4 equals a_4 except in the sign of a zero, and 0*inf is
    # NaN: a chain started from a_4 alone would differ here.
    field = RiskField((-0.0,) * 5, (0.0, -0.0, 0.0, -0.0, -0.0))
    _assert_same_bits(
        field, np.array([-2.0, -0.0, 0.0, 1.5, np.inf, -np.inf, np.nan])
    )
