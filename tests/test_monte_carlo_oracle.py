"""Streamed Monte Carlo region estimator against the two-array reference.

The reference below is the original estimator: it draws every t, then
every c, from one generator, and counts hits over slices of the two
arrays with g and h from the out-of-place Horner chain acc = acc*t + a_k.
The package's monte_carlo_region_area must return the same RegionArea
exactly, on one thread or two.  field.g and field.h over an array, into
a new one or into the caller's, and the stream's one chain for both must
give every stage the bits of their scalar calls.
"""

from __future__ import annotations

import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from mehgrisk import analysis
from mehgrisk.analysis import (
    MC_CHUNK,
    MC_PAIR_CHUNK,
    MC_SPLIT,
    RegionArea,
    _uniform_into,
    monte_carlo_region_area,
)
from mehgrisk.fieldfit import Rectangle, RiskField, published_field
from mehgrisk.polynomial import _horner

_REFERENCE_CHUNK = 65536


def _reference_slope_and_intercept(field, ts):
    g = np.zeros_like(ts)
    h = np.zeros_like(ts)
    for ak, bk in zip(reversed(field.a), reversed(field.b)):
        g = g * ts + ak
        h = h * ts + bk
    return g, h


def _reference_region_area(field, threshold, samples, seed):
    dom = field.domain
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
    if domain is not None:
        field = field.with_domain(domain)
    got = monte_carlo_region_area(field, threshold, samples, seed)
    want = _reference_region_area(field, threshold, samples, seed)
    assert got == want
    # Same bits, not merely equal floats.
    assert repr(got.as_json_dict()) == repr(want.as_json_dict())


# One slice up to MC_SPLIT samples, two above it: here halves of about
# MC_SPLIT / 2 and of six MC_PAIR_CHUNK chunks.
SAMPLE_COUNTS = (1, 1000, MC_CHUNK - 1, MC_CHUNK, MC_CHUNK + 1, 100_003) + tuple(
    n + d for n in (MC_SPLIT, 12 * MC_PAIR_CHUNK) for d in (-1, 0, 1)
)
SIGN_CHANGING = RiskField((-3.0, 1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0, 0.0))
SUBDOMAIN = Rectangle(2.0, 3.5, 0.5, 2.0)

coefficient = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
signed_coefficient = coefficient | st.sampled_from((0.0, -0.0))
fields = st.builds(
    lambda a, b: RiskField(tuple(a), tuple(b)),
    st.lists(signed_coefficient, min_size=5, max_size=5),
    st.lists(signed_coefficient, min_size=5, max_size=5),
)


@st.composite
def subdomains(draw):
    """None (the field's own domain) or a strict subrectangle of it that
    Rectangle accepts: no side too narrow to resolve."""
    if draw(st.booleans()):
        return None
    t = draw(st.lists(st.floats(1.0, 5.0), min_size=2, max_size=2, unique=True))
    c = draw(st.lists(st.floats(0.2, 3.5), min_size=2, max_size=2, unique=True))
    try:
        return Rectangle(min(t), max(t), min(c), max(c))
    except ValueError:
        reject()


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


# The slope (t - 2)(t - 3)(t - 4) changes sign three times on the stages,
# as in the benchmark's sign-changing survey tables, and h has signed zeros.
SWEEP_LIKE = RiskField((-24.0, 26.0, -9.0, 1.0, -0.0), (0.5, -0.0, 0.25, -0.0, -0.01))


@pytest.mark.parametrize("samples", (10**5, 10**6))
@pytest.mark.parametrize("cpus", (1, 2))
def test_sweep_sizes_match_reference_on_one_and_two_threads(monkeypatch, samples, cpus):
    # The region areas of a field sweep's fallback: with MC_SPLIT at 0,
    # two CPUs count two slices whatever the sample count.
    monkeypatch.setattr(analysis, "_cpus", lambda: cpus)
    monkeypatch.setattr(analysis, "MC_SPLIT", 0)
    _assert_same(SWEEP_LIKE, None, 1.0, samples, 5)


def test_memory_does_not_grow_with_samples():
    # The reference holds 2 x 8 MB of draws at 10^6 samples.  The stream
    # allocates, once per slice, one float chunk for the draws, a (2, n)
    # float chunk for g and h, and one bool chunk: 25 B a sample.  Two
    # slices of MC_PAIR_CHUNK = 3 x 2^13 peaked at 1,240,112 B traced
    # (one slice of MC_CHUNK = 2^15 at 824,056 B); fresh arrays per chunk
    # peaked at 1.50 MiB.
    field = published_field()
    monte_carlo_region_area(field, samples=1000)
    tracemalloc.start()
    try:
        monte_carlo_region_area(field, samples=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 8 * MC_CHUNK


@pytest.mark.parametrize("samples", (MC_SPLIT + 1, 12 * MC_PAIR_CHUNK + 1, 10**6))
def test_one_thread_gives_the_same_bits(monkeypatch, samples):
    field = SIGN_CHANGING.with_domain(SUBDOMAIN)
    threaded = monte_carlo_region_area(field, 1.0, samples, 3)
    monkeypatch.setattr(analysis, "_cpus", lambda: 1)
    alone = monte_carlo_region_area(field, 1.0, samples, 3)
    assert repr(alone.as_json_dict()) == repr(threaded.as_json_dict())


@pytest.mark.skipif(analysis._cpus() < 2, reason="one CPU: one slice")
def test_both_threads_draw_under_the_callers_errstate(monkeypatch):
    calls, draw = [], analysis._uniform_into

    def recording(*args):
        calls.append((threading.get_ident(), np.geterr()))
        draw(*args)

    monkeypatch.setattr(analysis, "_uniform_into", recording)
    with np.errstate(over="ignore", under="raise", invalid="warn"):
        monte_carlo_region_area(published_field(), samples=MC_SPLIT + 1)
        caller = np.geterr()
    threads = {ident for ident, _ in calls}
    assert len(threads) == 2 and threading.get_ident() in threads
    assert all(state == caller for _, state in calls)


def test_a_slice_error_reaches_the_caller(monkeypatch):
    # Only the second thread's slice fails; its error must not be lost
    # to the thread, nor reported there as unhandled.
    monkeypatch.setattr(analysis, "_cpus", lambda: 2)
    caller, draw = threading.get_ident(), analysis._uniform_into

    def failing(*args):
        if threading.get_ident() != caller:
            raise OverflowError("worker")
        draw(*args)

    monkeypatch.setattr(analysis, "_uniform_into", failing)
    with pytest.raises(OverflowError, match="worker"):
        monte_carlo_region_area(published_field(), samples=MC_SPLIT + 1)


def test_overflowing_span_raises():
    # uniform refuses a span high - low that overflows.  Rectangle refuses
    # such a side, so no domain brings one to the stream; the command
    # line's exit 2 is in test_cli.py.
    with pytest.raises(ValueError, match=r"^t span 1e\+308 - -1e\+308 overflows"):
        Rectangle(-1e308, 1e308, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"^c span 1e\+308 - -1e\+308 overflows"):
        Rectangle(1.0, 5.0, -1e308, 1e308)
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
    rows = []
    for poly, fill in ((field.g, np.nan), (field.h, -0.0)):
        buf = np.full_like(stages, fill)
        with np.errstate(invalid="ignore", over="ignore"):  # 0*inf, huge t
            got = poly(stages)
            into = poly(stages, out=buf)
            want = np.array([poly(t) for t in stages.tolist()], dtype=float)
        assert into is buf
        assert got.tobytes() == buf.tobytes() == want.tobytes()
        rows.append(want)
    # The stream's one chain for both, over (2, 1) coefficient columns.
    columns = np.array((field.g.coefficients, field.h.coefficients)).T[..., None]
    with np.errstate(invalid="ignore", over="ignore"):
        both = _horner(columns, stages, out=np.empty((2, len(stages))))
    assert both.tobytes() == np.array(rows).tobytes()


finite_stage = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
any_stage = st.floats(allow_nan=True, allow_infinity=True) | finite_stage


@settings(max_examples=200, deadline=None)
@given(
    a=st.lists(signed_coefficient, min_size=5, max_size=5),
    b=st.lists(signed_coefficient, min_size=5, max_size=5),
    ts=st.lists(any_stage, min_size=1, max_size=40),
)
def test_field_polynomials_on_arrays_bitwise_equal_to_scalar_calls(a, b, ts):
    _assert_same_bits(RiskField(tuple(a), tuple(b)), np.array(ts, dtype=float))


def test_field_polynomials_on_arrays_signed_zero_fields():
    # Signed zeros and non-finite stages round as the scalar chains do.
    field = RiskField((-0.0,) * 5, (0.0, -0.0, 0.0, -0.0, -0.0))
    _assert_same_bits(
        field, np.array([-2.0, -0.0, 0.0, 1.5, np.inf, -np.inf, np.nan])
    )
