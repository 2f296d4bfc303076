import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from engine_oracle import find_dark_segments
from ehsim.traces import (
    EventTrace, IrradianceTrace, TraceError, TraceParseError, TraceTransform,
    apply_transform, generate_parking_events, parse_events, parse_irradiance,
    synthetic_solar_trace, transform_events, write_irradiance,
)


def test_parse_two_rows():
    tr = parse_irradiance("0,0\n60,500\n")
    assert len(tr) == 2
    assert tr.duration == 60.0
    assert tr.g[1] == 500.0


def test_parse_rejects_negative_irradiance():
    with pytest.raises(TraceParseError) as err:
        parse_irradiance("0,0\n60,-1\n")
    assert err.value.line == 2


def test_parse_rejects_non_monotonic():
    with pytest.raises(TraceParseError):
        parse_irradiance("0,1\n0,2\n")


def test_parse_rejects_malformed_row_with_line_number():
    with pytest.raises(TraceParseError) as err:
        parse_irradiance("0,1\n# comment ok\nbogus row here extra\n")
    assert err.value.line == 3


def test_parse_empty_trace():
    with pytest.raises(TraceError):
        parse_irradiance("# nothing but comments\n")


def test_parse_five_day_trace_sample_count():
    n = 5 * 24 * 60  # one sample a minute for five days
    text = "\n".join(f"{60 * k},{100 + (k % 7)}" for k in range(n))
    tr = parse_irradiance(text)
    assert len(tr) == n == 7200
    assert tr.duration == 60.0 * (n - 1)
    assert tr.interval == 60.0


def test_parse_minute_indexed_input():
    tr = parse_irradiance("0,1\n1,2\n2,3\n", time_unit="min")
    assert tr.t[1] == 60.0


def test_parse_whitespace_and_crlf():
    tr = parse_irradiance("0 1\r\n10 2\r\n")
    assert len(tr) == 2


def test_roundtrip_writer_parser():
    tr = synthetic_solar_trace(days=1, cadence_s=600)
    buf = io.StringIO()
    write_irradiance(tr, buf)
    back = parse_irradiance(buf.getvalue())
    np.testing.assert_allclose(back.t, tr.t, rtol=0, atol=1e-5)
    np.testing.assert_allclose(back.g, tr.g, rtol=0, atol=1e-5)
    back_ev = parse_events("# t_s\n1.250000\n7.500000\n100.000000\n")
    np.testing.assert_array_equal(back_ev.t, [1.25, 7.5, 100.0])


def test_trace_invariants():
    with pytest.raises(TraceError):
        IrradianceTrace(t=np.array([0.0]), g=np.array([1.0]))
    with pytest.raises(TraceError):
        IrradianceTrace(t=np.array([0.0, 0.0]), g=np.array([1.0, 1.0]))
    with pytest.raises(TraceError):
        IrradianceTrace(t=np.array([0.0, 1.0]), g=np.array([1.0, -1.0]))


@pytest.mark.parametrize("t, g", [
    ([0.0, 60.0, 120.0], [0.0, math.nan, 1.0]),
    ([0.0, 60.0, 120.0], [0.0, math.inf, 1.0]),
    ([0.0, math.nan, 120.0], [0.0, 1.0, 1.0]),
    ([0.0, 60.0, math.inf], [0.0, 1.0, 1.0]),
], ids=["nan_g", "inf_g", "nan_t", "inf_t"])
def test_trace_rejects_non_finite_samples(t, g):
    with pytest.raises(TraceError, match="finite"):
        IrradianceTrace(t=np.array(t), g=np.array(g))


@pytest.mark.parametrize("text, line", [
    ("0,nan\n60,inf\n120,1\n", 1),
    ("0,0\n60,inf\n120,1\n", 2),
    ("0,0\n60,1\ninf,1\n", 3),
], ids=["nan_g", "inf_g", "inf_t"])
def test_parse_rejects_non_finite_value_with_line_number(text, line):
    with pytest.raises(TraceParseError) as err:
        parse_irradiance(text)
    assert err.value.line == line


def test_apply_transform_definition():
    tr = IrradianceTrace(t=np.array([0.0, 100.0]), g=np.array([0.0, 200.0]))
    out = apply_transform(tr, TraceTransform(time_scale=2.0, amplitude_scale=2.0))
    assert out.t[1] == 50.0
    assert out.g[1] == 400.0


def test_apply_transform_identity():
    tr = synthetic_solar_trace(days=1, cadence_s=300)
    out = apply_transform(tr, TraceTransform(1.0, 1.0))
    np.testing.assert_array_equal(out.t, tr.t)
    np.testing.assert_array_equal(out.g, tr.g)


def test_transform_preserves_integral_when_scales_match():
    tr = synthetic_solar_trace(days=2, cadence_s=120)
    before = tr.integral()
    out = apply_transform(tr, TraceTransform(time_scale=4.0, amplitude_scale=4.0))
    after = out.integral()
    assert abs(after - before) <= 1e-9 * before


def test_transform_round_trip():
    tr = synthetic_solar_trace(days=1, cadence_s=300)
    fwd = apply_transform(tr, TraceTransform(time_scale=3.0, amplitude_scale=7.5))
    back = IrradianceTrace(t=fwd.t * 3.0, g=fwd.g / 7.5)
    np.testing.assert_allclose(back.t, tr.t, rtol=1e-12)
    np.testing.assert_allclose(back.g, tr.g, rtol=1e-12)


def test_transform_events_definition_and_identity():
    ev = EventTrace(t=np.array([10.0, 20.0]))
    out = transform_events(ev, 2.0)
    np.testing.assert_array_equal(out.t, [5.0, 10.0])
    same = transform_events(ev, 1.0)
    np.testing.assert_array_equal(same.t, ev.t)


@given(a=st.floats(min_value=1.0, max_value=50.0),
       b=st.floats(min_value=1.0, max_value=50.0))
@settings(max_examples=50, deadline=None)
def test_transform_events_composition(a, b):
    ev = EventTrace(t=np.array([3.0, 97.0, 1250.0]))
    two_step = transform_events(transform_events(ev, a), b)
    one_step = transform_events(ev, a * b)
    np.testing.assert_allclose(two_step.t, one_step.t, rtol=1e-12)


def test_coscaling_preserves_relative_event_position():
    tr = synthetic_solar_trace(days=1, cadence_s=600)
    ev = EventTrace(t=np.array([1000.0, 43000.0]))
    s = 6.0
    tr2 = apply_transform(tr, TraceTransform(time_scale=s, amplitude_scale=s))
    ev2 = transform_events(ev, s)
    np.testing.assert_allclose(ev.t / tr.duration, ev2.t / tr2.duration,
                               rtol=1e-12)


def test_parking_events_deterministic():
    kw = dict(opening=(9.0, 20.0), peak_h=14.0, n_events_per_day=50,
              days=3, seed=1234)
    a = generate_parking_events(**kw)
    b = generate_parking_events(**kw)
    np.testing.assert_array_equal(a.t, b.t)
    assert a.seed == 1234


def test_parking_events_respect_opening_hours():
    ev = generate_parking_events((9.0, 20.0), 14.0, 500, 4, seed=7)
    hours = (ev.t % 86400.0) / 3600.0
    assert np.all(hours >= 9.0)
    assert np.all(hours <= 20.0)
    assert len(ev) == 2000


def test_parking_events_histogram_mode_at_peak():
    ev = generate_parking_events((9.0, 20.0), 14.0, 2000, 5, seed=99)
    hours = np.floor((ev.t % 86400.0) / 3600.0).astype(int)
    counts = np.bincount(hours, minlength=24)
    assert counts.argmax() == 14


def test_parking_events_invalid_hours():
    with pytest.raises(TraceError):
        generate_parking_events((14.0, 20.0), 9.0, 10, 1, seed=0)
    with pytest.raises(TraceError):
        generate_parking_events((9.0, 20.0), 14.0, 0, 1, seed=0)


# The dark-segment scan of the oracle's skip_nights (tests/engine_oracle.py).
def test_dark_segments_all_dark():
    tr = IrradianceTrace(t=np.array([0.0, 50.0, 100.0]),
                         g=np.array([0.0, 0.0, 0.0]))
    assert find_dark_segments(tr) == [(0.0, 100.0)]


def test_dark_segments_never_dark():
    tr = IrradianceTrace(t=np.array([0.0, 50.0]), g=np.array([5.0, 6.0]))
    assert find_dark_segments(tr, threshold=1.0) == []


def test_dark_segments_day_night_square_wave():
    tr = synthetic_solar_trace(days=2, peak=500.0, sunrise_h=6, sunset_h=18,
                               cadence_s=3600, shape="square")
    segs = find_dark_segments(tr)
    expect = [(0.0, 6 * 3600.0),
              (18 * 3600.0, 30 * 3600.0),
              (42 * 3600.0, 48 * 3600.0)]
    assert segs == expect
