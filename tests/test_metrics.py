import functools
import itertools
import math

import numpy as np
import pytest

from ehsim.app import ActivityProfile, PHASE_INDEX
from ehsim.metrics import (MetricError, compute_ape, dtw_path, mismatch_spans,
                           throughput_error)


def brute_force_dtw(a, b, r):
    """Minimum mismatch count over all monotone banded alignments."""
    n, m = len(a), len(b)

    @functools.lru_cache(maxsize=None)
    def go(i, j):
        if abs(i - j) > r:
            return 1 << 20
        c = int(a[i] != b[j])
        if i == 0 and j == 0:
            return c
        best = 1 << 20
        if i > 0:
            best = min(best, go(i - 1, j))
        if j > 0:
            best = min(best, go(i, j - 1))
        if i > 0 and j > 0:
            best = min(best, go(i - 1, j - 1))
        return c + best

    out = go(n - 1, m - 1)
    go.cache_clear()
    return out


def profile_of(bits, step=0.2):
    arr = np.asarray(bits, dtype=bool)
    return ActivityProfile(step_len=step, on_off=arr,
                           labels=np.zeros(len(arr), dtype=np.int8))


def test_throughput_error_values():
    assert throughput_error(100, 100) == 0.0
    assert throughput_error(54, 100) == pytest.approx(0.46)
    assert throughput_error(107.7, 100) == pytest.approx(0.077)
    with pytest.raises(MetricError):
        throughput_error(1, 0)


def test_ape_identical_profiles():
    p = profile_of([1, 0, 1, 1, 0, 0, 1, 0])
    for window in (0.0, 0.4, math.inf):
        rep = compute_ape(p, p, window)
        assert rep.epsilon == 0.0
        assert rep.n_diff == 0


def test_ape_complement_is_one_at_window_zero():
    p = profile_of([1, 0, 1, 1, 0, 0])
    q = profile_of([0, 1, 0, 0, 1, 1])
    rep = compute_ape(p, q, 0.0)
    assert rep.epsilon == 1.0
    assert rep.n_diff == rep.n_total == 6


def test_ape_half_disagreement():
    p = profile_of([1, 1, 1, 1, 0, 0, 0, 0])
    q = profile_of([1, 1, 0, 0, 0, 0, 1, 1])
    rep = compute_ape(p, q, 0.0)
    assert rep.epsilon == 0.5


def test_identical_alignment_is_diagonal():
    a = np.array([True, False, True, True, False])
    pi, pj, cost = dtw_path(a, a, 2)
    assert cost == 0
    np.testing.assert_array_equal(pi, np.arange(5))
    np.testing.assert_array_equal(pj, np.arange(5))


def test_identical_long_profiles_align_on_the_diagonal():
    # four 1500-step runs: the diagonal on every row, so compute_ape of two
    # identical profiles reports no mismatch over the profile's length
    a = np.repeat([True, False, True, False], 1500)
    pi, pj, cost = dtw_path(a, a, 300)
    assert cost == 0
    np.testing.assert_array_equal(pi, np.arange(6000))
    np.testing.assert_array_equal(pj, np.arange(6000))
    rep = compute_ape(profile_of(a), profile_of(a), 60.0)
    assert (rep.n_diff, rep.n_total) == (cost, len(pi))


def test_shift_within_window_fully_warped():
    # an on-pulse shifted by 2 steps, off at both ends: a +-3 band absorbs it
    base = np.array([0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0], dtype=bool)
    shifted = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0], dtype=bool)
    assert brute_force_dtw(tuple(shifted), tuple(base), 3) == 0
    pi, pj, _ = dtw_path(shifted, base, 3)
    assert np.count_nonzero(shifted[pi] != base[pj]) == 0
    rep = compute_ape(shifted, base, 3.0)
    assert rep.epsilon == 0.0
    assert compute_ape(shifted, base, 0.0).epsilon > 0.0


def test_shift_beyond_window_leaves_residual():
    base = np.array([0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0], dtype=bool)
    shifted = np.roll(base, 5)
    want = brute_force_dtw(tuple(shifted), tuple(base), 1)
    _, _, cost = dtw_path(shifted, base, 1)
    assert cost == want > 0


def test_banded_equals_brute_force_exhaustive_small():
    # every 0/1 sequence pair up to length 5, across band widths
    for n in range(1, 6):
        seqs = list(itertools.product([0, 1], repeat=n))
        for sa in seqs:
            a = np.array(sa, dtype=bool)
            for sb in seqs:
                b = np.array(sb, dtype=bool)
                for r in range(0, n + 1):
                    _, _, cost = dtw_path(a, b, r)
                    assert cost == brute_force_dtw(sa, sb, min(r, n - 1) if n > 1 else 0)


def test_banded_equals_full_dp_length_twelve():
    rng = np.random.default_rng(11)
    for _ in range(300):
        a = rng.random(12) < 0.5
        b = rng.random(12) < 0.5
        _, _, cost = dtw_path(a, b, 12)
        assert cost == brute_force_dtw(tuple(a), tuple(b), 11)


def test_infinite_window_minimizes_over_all_alignments():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        a = rng.random(n) < 0.5
        b = rng.random(n) < 0.5
        want = brute_force_dtw(tuple(a), tuple(b), n - 1)
        pi, pj, _ = dtw_path(a, b, n)
        assert np.count_nonzero(a[pi] != b[pj]) == want
        assert compute_ape(a, b, math.inf).n_diff == want


def test_raw_ape_bounds_dtw_ape():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n = int(rng.integers(4, 60))
        a = rng.random(n) < rng.uniform(0.2, 0.8)
        b = rng.random(n) < rng.uniform(0.2, 0.8)
        raw = compute_ape(a, b, 0.0)
        warped = compute_ape(a, b, float(rng.integers(1, 8)))
        assert warped.epsilon <= raw.epsilon + 1e-12
        assert 0.0 <= warped.epsilon <= 1.0


def test_ape_symmetry():
    rng = np.random.default_rng(23)
    for _ in range(40):
        a = rng.random(30) < 0.5
        b = rng.random(30) < 0.5
        for w in (0.0, 4.0):
            assert compute_ape(a, b, w).epsilon == compute_ape(b, a, w).epsilon


def test_unequal_lengths_padded_with_off():
    a = np.array([1, 1, 1], dtype=bool)
    b = np.array([1, 1, 1, 0, 0], dtype=bool)
    rep = compute_ape(a, b, 0.0)
    assert rep.n_total == 5
    assert rep.epsilon == 0.0


def test_window_below_step_rejected():
    p = profile_of([1, 0, 1])
    with pytest.raises(MetricError):
        compute_ape(p, p, 0.05)


def test_mismatch_spans():
    a = np.array([1, 1, 0, 0, 1, 1], dtype=bool)
    b = np.array([1, 0, 1, 0, 1, 0], dtype=bool)
    assert mismatch_spans(a, b) == [(1.0, 3.0), (5.0, 6.0)]


def test_profile_step_mismatch_rejected():
    a = profile_of([1, 0], step=0.2)
    b = profile_of([1, 0], step=0.5)
    with pytest.raises(MetricError):
        compute_ape(a, b, 0.0)


def test_traceback_long_sequence():
    # dense i.i.d. bits: one stripe per run, and a traceback over thousands
    # of short segments
    rng = np.random.default_rng(31)
    n = 5000
    a = rng.random(n) < 0.5
    b = np.roll(a, 3)
    pi, pj, cost = dtw_path(a, b, 8)
    assert len(pi) >= n
    assert int(np.sum(a[pi] != b[pj])) == cost
    assert cost <= 6  # a 3-step shift inside an 8-step band nearly vanishes
