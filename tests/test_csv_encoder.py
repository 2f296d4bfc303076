"""The vectorised ``%.10g`` encoder against ``b"%.10g" % x``.

``config._g10`` writes each float64 of a block as NUL-padded bytes and hands
only the values it cannot prove (non-finite, magnitudes outside
``[1e-290, 1e290]``, and values within ``_TIE_MARGIN`` of a 10-digit tie)
to ``config._g10_fallback``. These tests compare every field with Python's
own formatting: over arbitrary bit patterns, over hypothesis floats, and
over the families where ``%.10g`` is hardest (ties and their neighbours,
carries into the next power of ten, the shape switches, 3-digit exponents,
subnormals, signed zeros, infinities and NaN payloads). They also check
that the fallback sees only what it should, and rarely on real output.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from ehsim import config
from test_csv_writer import dawn_result  # noqa: F401 (fixture)


def _fields(x) -> list[bytes]:
    x = np.asarray(x, dtype=np.float64)
    return [bytes(row).rstrip(b"\0") for row in config._g10(x)]


def _check(x) -> None:
    x = np.asarray(x, dtype=np.float64)
    want = [b"%.10g" % v for v in x.tolist()]
    got = _fields(x)
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert bad == []


def _ulps(x, k: int) -> np.ndarray:
    """``x`` and its neighbours up to ``k`` floats away on either side."""
    x = np.asarray(x, dtype=np.float64)
    out, lo, hi = [x], x, x
    with np.errstate(over="ignore"):  # the largest float's neighbour is inf
        for _ in range(k):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            out += [lo, hi]
    return np.concatenate(out)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_bit_patterns_match_python(bits):
    _check(np.array(bits, dtype=np.uint64).view(np.float64))


@given(st.lists(st.floats(), min_size=1, max_size=64))
@settings(max_examples=200, deadline=None)
def test_hypothesis_floats_match_python(values):
    _check(values)


@given(st.lists(st.floats(min_value=-1e12, max_value=1e12), min_size=1,
                max_size=64))
@settings(max_examples=100, deadline=None)
def test_moderate_floats_match_python(values):
    _check(values)


def test_ties_and_their_neighbours():
    """``d.ddddddddd5 x 10^k`` and 1-3 ulp either side, over every exponent."""
    rng = np.random.default_rng(16)
    ks = np.arange(-330, 331)
    mantissas = rng.integers(10**9, 10**10, size=len(ks))
    ties = np.array([float(f"{m}5e{k - 10}") for m, k in zip(mantissas, ks)])
    # Exact binary ties: 10-digit integers plus one half.
    exact = rng.integers(10**9, 10**10, size=200) + 0.5
    _check(_ulps(np.concatenate((ties, -ties, exact, exact * 2**-20)), 3))


def test_carries_into_the_next_power_of_ten():
    ks = np.arange(-330, 331)
    carries = np.array([float(f"99999999995e{k - 10}") for k in ks]
                       + [float(f"9999999999e{k - 9}") for k in ks])
    _check(_ulps(np.concatenate((carries, -carries)), 3))


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-330, 331)])
    _check(_ulps(np.concatenate((powers, -powers)), 2))


def test_shape_switches_exponents_and_specials():
    switches = [1e-4, 9.99999999995e-5, 9.9999999995e-5, 1e-5, 1e10,
                9999999999.5, 9999999999.0, 12345678901.0, 1e9, 1e-3]
    three_digit = [1e100, 1.5e-100, 9.999999999e99, 1e-290, 1e290,
                   -1.2345678901e-200, 1.7976931348623157e308]
    subnormal = [5e-324, 1e-310, -1.5e-310, 2.225073858507201e-308,
                 2.2250738585072014e-308]
    special = [0.0, -0.0, np.inf, -np.inf]
    payloads = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                         0x7FF0000000000001, 0xFFF0000000000001,
                         0x7FFFFFFFFFFFFFFF, 0xFFF8000000000001],
                        dtype=np.uint64).view(np.float64)
    _check(_ulps(switches + three_digit + subnormal, 3))
    _check(np.concatenate((special, payloads)))


def _near_tie(v: float) -> bool:
    """Whether the exact 10-digit scaling of ``v`` lies near a half-integer."""
    f = abs(Fraction(v))
    e = math.floor(math.log10(f))
    for e in (e - 1, e, e + 1):
        s = f * Fraction(10) ** (9 - e)
        if 10**9 <= s < 10**10:
            return abs(s - math.floor(s) - Fraction(1, 2)) <= 2 * config._TIE_MARGIN
    raise AssertionError(v)


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1,
                max_size=64))
@settings(max_examples=100, deadline=None)
def test_fallback_takes_only_what_the_encoder_declines(values):
    declined = []
    fallback = config._g10_fallback
    try:
        config._g10_fallback = lambda v: declined.append(v) or fallback(v)
        _check(values)
    finally:
        config._g10_fallback = fallback
    for v in declined:
        assert (not math.isfinite(v) or v != 0 and not 1e-290 <= abs(v) <= 1e290
                or _near_tie(v)), v


def test_fast_path_formats_almost_every_run_value(dawn_result, tmp_path,  # noqa: F811
                                                  monkeypatch):
    counts = {"values": 0, "fallback": 0}
    encode, fallback = config._g10, config._g10_fallback

    def counting_encode(x):
        counts["values"] += len(x)
        return encode(x)

    def counting_fallback(v):
        counts["fallback"] += 1
        return fallback(v)

    monkeypatch.setattr(config, "_g10", counting_encode)
    monkeypatch.setattr(config, "_g10_fallback", counting_fallback)
    config.save_result(dawn_result, str(tmp_path / "out"))
    assert counts["values"] > 10_000
    assert counts["fallback"] < 0.01 * counts["values"]


def test_tables_stay_small():
    assert sum(t.nbytes for t in config._g10_tables()) < 1_000_000
