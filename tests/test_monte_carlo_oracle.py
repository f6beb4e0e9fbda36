"""Streamed Monte Carlo region estimator against the two-array reference.

The reference below is the original estimator: it draws every t, then
every c, from one generator, and counts hits over slices of the two
arrays with g and h from the out-of-place Horner chain acc = acc*t + a_k.
The package's monte_carlo_region_area must return the same RegionArea
exactly, on one thread or two.  field.g and field.h over an array, and
the stream's one chain for both into the caller's array, must give every
stage the bits of their scalar calls.
"""

from __future__ import annotations

import functools
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from mehgrisk import analysis
from mehgrisk.analysis import (
    MC_CHUNK,
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
# MC_SPLIT / 2 and of four and a half and six MC_CHUNK chunks.  One slice
# ends inside its first chunk at 3/4 of MC_CHUNK and at the end of it at
# MC_CHUNK.
SAMPLE_COUNTS = (1, 1000) + tuple(
    n + d for n in (3 * MC_CHUNK // 4, MC_CHUNK) for d in (-1, 0, 1)
) + (100_003,) + tuple(
    n + d for n in (MC_SPLIT, 9 * MC_CHUNK, 12 * MC_CHUNK) for d in (-1, 0, 1)
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


# The region fallback answers each threshold from the held sample's codes
# of R and draws again only the samples whose code ties the threshold's.
# Its RegionArea must be the reference's, bit for bit, whatever the order
# of the thresholds and seeds it is asked for.
@functools.lru_cache(maxsize=None)
def _reference_fallback(field, threshold, seed):
    return _reference_region_area(field, threshold, analysis.MC_SAMPLES, seed)


def _sample_values(field, seed, indices):
    """R at some indices of the reference's sample, as the reference
    computes it."""
    dom, n = field.domain, analysis.MC_SAMPLES
    rng = np.random.default_rng(seed)
    ts = rng.uniform(dom.t_min, dom.t_max, n)[indices]
    cs = rng.uniform(dom.c_min, dom.c_max, n)[indices]
    g, h = _reference_slope_and_intercept(field, ts)
    return (g * cs + h).tolist()


def _fallback_calls(field, seeds, order):
    """(threshold, seed) calls: at R of chosen samples, which ties their
    codes, and beside it; below and above R's range; one threshold twice;
    and the other seed's call between, which replaces the held sample."""
    seed, other = seeds
    values = _sample_values(field, seed, [0, 1, 499_999, 500_000, 999_999, order])
    # |R| < 1e5 on the domain of every field here: coefficients in [-3, 3]
    # at t <= 5 and c <= 3.5, or of (t - root) q(t) from such q.
    thresholds = values + [np.nextafter(values[0], -np.inf),
                           np.nextafter(values[0], np.inf), -1e6, 1e6, values[2]]
    calls = [(t, seed) for t in thresholds]
    permuted = np.random.default_rng(order).permutation(len(calls)).tolist()
    calls = [calls[i] for i in permuted]
    calls.insert(len(calls) // 2, (values[1], other))
    return calls


def _assert_fallback_matches(field, calls):
    assert field.g.is_zero() or field.slope_roots   # the fallback's fields
    for threshold, seed in calls:
        got = analysis.risk_region_area(field, threshold, seed)
        want = _reference_fallback(field, threshold, seed)
        assert got == want
        assert repr(got.as_json_dict()) == repr(want.as_json_dict())


@pytest.mark.parametrize("cpus", (1, 2))
@pytest.mark.parametrize("field", (SIGN_CHANGING, SWEEP_LIKE), ids=("sign", "sweep"))
def test_fallback_regions_match_reference(monkeypatch, field, cpus):
    monkeypatch.setattr(analysis, "_cpus", lambda: cpus)
    monkeypatch.setattr(analysis, "MC_SPLIT", 0)
    monkeypatch.setattr(analysis, "_held", None)
    ties, draws = [], analysis._Draws

    def recording(seed, indices):
        ties.append(len(indices))
        return draws(seed, indices)

    monkeypatch.setattr(analysis, "_Draws", recording)
    calls = _fallback_calls(field, (5, 9), 123_457)
    _assert_fallback_matches(field, calls)
    # The t and c draws of the tied samples of each call were drawn again,
    # and no call was left to the stream.
    assert len(ties) == 2 * len(calls) and max(ties) >= 1


@st.composite
def sign_changing_fields(draw):
    """g = (t - root) q(t), a root inside the stages and q(0) != 0."""
    root = draw(st.floats(1.5, 4.5))
    q = [draw(st.floats(0.25, 3.0) | st.floats(-3.0, -0.25)),
         *draw(st.lists(signed_coefficient, min_size=3, max_size=3))]
    a = np.convolve(q, (-root, 1.0)).tolist()
    b = draw(st.lists(signed_coefficient, min_size=5, max_size=5))
    field = RiskField(tuple(a), tuple(b))
    assume(field.slope_roots)   # q may have a root at root too
    return field


@settings(max_examples=8, deadline=None)
@given(field=sign_changing_fields(), cpus=st.sampled_from((1, 2)),
       order=st.integers(0, 999_998),
       seeds=st.lists(st.integers(0, 2**63), min_size=2, max_size=2, unique=True))
def test_fallback_regions_of_sign_changing_fields_match_reference(field, cpus, order, seeds):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_cpus", lambda: cpus)
        patch.setattr(analysis, "MC_SPLIT", 0)
        patch.setattr(analysis, "_held", None)
        _assert_fallback_matches(field, _fallback_calls(field, seeds, order))


@pytest.mark.parametrize("cpus", (1, 2))
def test_constant_field_ties_go_to_the_stream(monkeypatch, cpus):
    # g = 0 and h = 2.5: every sample's code ties the threshold 2.5's, more
    # than one chunk, so the threshold is counted by the stream.
    monkeypatch.setattr(analysis, "_cpus", lambda: cpus)
    monkeypatch.setattr(analysis, "MC_SPLIT", 0)
    monkeypatch.setattr(analysis, "_held", None)
    calls, estimate = [], analysis.monte_carlo_region_area

    def counted(*args, **kwargs):
        calls.append(args)
        return estimate(*args, **kwargs)

    monkeypatch.setattr(analysis, "monte_carlo_region_area", counted)
    field = RiskField((0.0,) * 5, (2.5, 0.0, 0.0, 0.0, 0.0))
    _assert_fallback_matches(field, [(2.5, 3), (2.5 + 1e-9, 3), (2.5, 3)])
    assert len(calls) == 2
    assert analysis.risk_region_area(field, 2.5, 3).area == field.domain.area


def _traced_peak():
    """The traced peak of a count of 10^6 samples after a warm-up count."""
    field = published_field()
    monte_carlo_region_area(field, samples=1000)
    tracemalloc.start()
    try:
        monte_carlo_region_area(field, samples=10**6)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_samples():
    # The reference holds 2 x 8 MB of draws at 10^6 samples.  The stream
    # allocates, once per slice, one float chunk for the draws, a (2, n)
    # float chunk for g and h, and one bool chunk: 25 B a sample.  Two
    # slices of MC_CHUNK = 3 x 2^13 peaked at 1,241,768 B traced, and of
    # 2^15 at 1,651,802 B; fresh arrays per chunk peaked at 1.50 MiB at
    # 3 x 2^13.  The bound is the two slices' buffers plus 80 KiB.
    assert _traced_peak() < 2 * 25 * MC_CHUNK + 80 * 1024


def test_one_slice_memory_does_not_grow_with_samples(monkeypatch):
    # One slice of MC_CHUNK peaked at 619,248 B traced at 10^6 samples.
    monkeypatch.setattr(analysis, "_cpus", lambda: 1)
    assert _traced_peak() < 5 * 8 * MC_CHUNK


def test_fallback_holds_one_sample(monkeypatch):
    # After fallback areas on two fields and two seeds, what stays held is
    # one sample's codes, 2 B a sample, and the field that keys them.  Each
    # sample is drawn into the last one's buffer: the traced peak (3.21 MB)
    # is one sample's codes, two slices' stream buffers and one bool scan.
    monkeypatch.setattr(analysis, "_held", None)
    monte_carlo_region_area(SIGN_CHANGING, samples=1000)
    tracemalloc.start()
    try:
        for field in (SIGN_CHANGING, SWEEP_LIKE):
            for seed in (1, 2):
                for threshold in (1.0, 4.0):
                    analysis.risk_region_area(field, threshold, seed)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    codes = 2 * analysis.MC_SAMPLES
    assert held <= codes + 1_310_720
    assert peak <= codes + 1_310_720 + analysis.MC_SAMPLES


def test_fallback_callers_on_several_threads_get_the_streams_areas(monkeypatch):
    # Four threads ask for two (field, seed) samples in turn, with thread
    # switches every 10 us, so a call often finds the other sample held or
    # being drawn; each answer must still be the stream's.
    cases = ((SIGN_CHANGING, 1), (SWEEP_LIKE, 2))
    want = {case: monte_carlo_region_area(case[0], 1.0, seed=case[1]) for case in cases}
    monkeypatch.setattr(analysis, "_held", None)
    got = []

    def ask(k):
        for i in range(4):
            case = cases[(k + i) % 2]
            got.append((case, analysis.risk_region_area(case[0], 1.0, case[1])))

    threads = [threading.Thread(target=ask, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(got) == 16 and all(area == want[case] for case, area in got)


@pytest.mark.parametrize(
    "samples", (MC_SPLIT + 1, 9 * MC_CHUNK + 1, 12 * MC_CHUNK + 1, 10**6))
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
    for poly in (field.g, field.h):
        with np.errstate(invalid="ignore", over="ignore"):  # 0*inf, huge t
            got = poly(stages)
            want = np.array([poly(t) for t in stages.tolist()], dtype=float)
        assert got.tobytes() == want.tobytes()
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
