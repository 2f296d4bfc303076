"""Differential tests: the run-length block DTW against the cell-level oracle.

The oracle is a plain banded DP that walks back cell by cell, ties going
diagonal, then up, then left. ``dtw_path`` must return its exact
``(path_i, path_j, cost)``, tie-break included, because the path length is
the APE denominator.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dtw_oracle
import rescale_oracle
from ehsim import metrics
from ehsim.app import ActivityProfile
from ehsim.metrics import ApeReport, compute_ape, dtw_path, mismatch_spans
from ehsim.scaling import rescale_activity


def mismatch_spans_loop(a, b):
    """The per-element loop that ``mismatch_spans`` replaced."""
    x, y, step = metrics._as_bool_pair(a, b)
    x, y = metrics._pad_equal(x, y)
    diff = x != y
    spans = []
    start = None
    for k, d in enumerate(diff):
        if d and start is None:
            start = k
        elif not d and start is not None:
            spans.append((start * step, k * step))
            start = None
    if start is not None:
        spans.append((start * step, len(diff) * step))
    return spans


def _from_runs(lengths, first, n):
    """Alternating on/off runs of the given lengths, cut or padded to n."""
    values = np.arange(len(lengths)) % 2 == (0 if first else 1)
    x = np.repeat(values, lengths)[:n]
    return np.concatenate([x, np.full(n - len(x), x[-1] if len(x) else False)])


@st.composite
def sequence_pairs(draw, max_n=3000):
    """(a, b): few long runs, a jittered copy, i.i.d. bits or toggling."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["runs", "jitter", "iid", "toggle"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("runs", "jitter"):
        runs = st.lists(st.integers(1, max(1, n // 2)), min_size=1,
                        max_size=12)
        a = _from_runs(draw(runs), draw(st.booleans()), n)
        if kind == "runs":
            b = _from_runs(draw(runs), draw(st.booleans()), n)
        else:
            b = np.roll(a, draw(st.integers(-40, 40)))
            b ^= rng.random(n) < draw(st.sampled_from([0.0, 0.001, 0.01]))
    elif kind == "iid":
        a = rng.random(n) < 0.5
        b = rng.random(n) < draw(st.floats(0.05, 0.95))
    else:
        a = np.arange(n) % 2 == draw(st.integers(0, 1))
        b = np.arange(n) % 2 == draw(st.integers(0, 1))
        b ^= rng.random(n) < 0.05
    return a, b


def radii(n):
    return st.one_of(st.just(0), st.just(1), st.integers(2, 40),
                     st.integers(n, n + 5))


def assert_same_path(a, b, r):
    want = dtw_oracle.dtw_path(a, b, r)
    got = dtw_path(a, b, r)
    assert got[2] == want[2]
    assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    return want


def longest_segments(path_i, path_j):
    """The longest run of each move, DIAG, UP and LEFT, along a path."""
    moves = 2 * np.diff(path_i) + np.diff(path_j)  # 3 DIAG, 2 UP, 1 LEFT
    starts = np.flatnonzero(np.diff(moves, prepend=-1))
    lengths = np.diff(np.append(starts, len(moves)))
    longest = dict.fromkeys(("DIAG", "UP", "LEFT"), 0)
    for move, length in zip(moves[starts].tolist(), lengths.tolist()):
        name = {3: "DIAG", 2: "UP", 1: "LEFT"}[move]
        longest[name] = max(longest[name], length)
    return longest


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_dtw_path_matches_oracle(data):
    a, b = data.draw(sequence_pairs())
    assert_same_path(a, b, data.draw(radii(len(a))))


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_dtw_path_matches_oracle_jumping_after_every_repeat(data):
    # the traceback jumps along every move it repeats, not only long ones
    a, b = data.draw(sequence_pairs())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_JUMP_AFTER", 1)
        assert_same_path(a, b, data.draw(radii(len(a))))


def test_dtw_path_matches_oracle_on_long_run_profiles():
    # thousands of rows, long diagonal and straight segments, and bands from
    # one step to the whole grid: the shape of real day profiles
    rng = np.random.default_rng(7)
    longest = dict.fromkeys(("DIAG", "UP", "LEFT"), 0)
    for n, r in ((9000, 300), (5000, 5000), (6145, 64), (4097, 1)):
        a = _from_runs(rng.integers(200, 3000, size=12), True, n)
        b = np.roll(a, int(rng.integers(-250, 250)))
        b[rng.integers(0, n, size=3)] ^= True
        for want in (assert_same_path(a, b, r), assert_same_path(a, ~a, r)):
            for move, length in longest_segments(*want[:2]).items():
                longest[move] = max(longest[move], length)
    # every kind of segment is long enough to be taken in jumps
    assert min(longest.values()) >= 1000


@pytest.mark.parametrize("shift", [-47, -40, -31, 31, 40, 47])
@pytest.mark.parametrize("mismatch", [0, 700])
def test_dtw_path_matches_oracle_on_compare_shaped_pairs(shift, mismatch):
    # a few long runs; b's edges move by less than, exactly, or more than
    # the band radius, alternately later and earlier, and b may hold a long
    # stretch on where a is off
    r, n = 40, 4000
    lengths = np.array([500, 900, 300, 700, 1100])
    a = _from_runs(lengths, False, n)
    moved = np.cumsum(lengths) + shift * np.array([1, -1, 1, -1, 0])
    b = _from_runs(np.diff(moved, prepend=0), False, n)
    b[2600:2600 + mismatch] = True
    path_i, path_j, cost = assert_same_path(a, b, r)
    if mismatch:
        assert longest_segments(path_i, path_j)["DIAG"] >= mismatch
        assert cost >= mismatch


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_five_day_pair_peak_memory():
    # Five days of ten 12-hour runs, run at s_tp 3, against its baseline:
    # the same profile, and one with two hours on where the scaled run is off.
    on = np.repeat(np.arange(10) % 2 == 1, 72_000)
    scaled = ActivityProfile(step_len=0.2, on_off=on,
                             labels=on.astype(np.int8))
    rescaled = rescale_activity(scaled, 3.0)
    assert len(rescaled) == 2_160_000
    # no more than half the bin-level rescale's peak (103.7 MB)
    oracle = _traced_peak(lambda: rescale_oracle.rescale_activity(scaled, 3.0))
    assert _traced_peak(lambda: rescale_activity(scaled, 3.0)) <= oracle / 2
    stretch = rescaled.on_off.copy()
    stretch[482_000:518_000] = True
    for base in (rescaled.on_off, stretch):
        pa = ActivityProfile(step_len=0.2, on_off=base,
                             labels=np.zeros(len(base), dtype=np.int8))
        ape = compute_ape(pa, rescaled, 60.0)
        assert ape.n_diff == np.count_nonzero(base != rescaled.on_off)
        # the windowed APE peaked at 66.14 MB before the column tables were
        # filled from runs
        assert _traced_peak(lambda: compute_ape(pa, rescaled, 60.0)) <= 66_140_000


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_compute_ape_matches_oracle(data):
    a, b = data.draw(sequence_pairs(max_n=1500))
    step = data.draw(st.sampled_from([1.0, 0.2]))
    cut = data.draw(st.integers(0, len(b) - 1))
    pa = ActivityProfile(step_len=step, on_off=a,
                         labels=np.zeros(len(a), dtype=np.int8))
    pb = ActivityProfile(step_len=step, on_off=b[:len(b) - cut],
                         labels=np.zeros(len(b) - cut, dtype=np.int8))
    steps = data.draw(st.sampled_from([1, 2, 7, 40]))
    padded = np.concatenate([b[:len(b) - cut], np.zeros(cut, dtype=bool)])
    for window, r in ((steps * step, steps), (math.inf, len(a))):
        path_i, _, cost = dtw_oracle.dtw_path(a, padded, r)
        want = ApeReport(epsilon=cost / len(path_i), n_diff=cost,
                         n_total=len(path_i), dtw_window=window)
        assert compute_ape(pa, pb, window) == want


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_compute_ape_counts_the_dtw_path(data):
    a, b = data.draw(sequence_pairs())
    r = data.draw(st.integers(1, len(a) + 5))
    path_i, _, cost = dtw_path(a, b, r)
    ape = compute_ape(a, b, float(r))
    assert (ape.n_total, ape.n_diff) == (len(path_i), cost)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_mismatch_spans_match_loop(data):
    a, b = data.draw(sequence_pairs(max_n=400))
    b = b[:data.draw(st.integers(0, len(b)))]
    step = data.draw(st.sampled_from([1.0, 0.2, 0.1, 1 / 3]))
    pa = ActivityProfile(step_len=step, on_off=a,
                         labels=np.zeros(len(a), dtype=np.int8))
    pb = ActivityProfile(step_len=step, on_off=b,
                         labels=np.zeros(len(b), dtype=np.int8))
    want = mismatch_spans_loop(pa, pb)
    got = mismatch_spans(pa, pb)
    assert got == want
    assert ([f"{lo:.10g},{hi:.10g}" for lo, hi in got]
            == [f"{lo:.10g},{hi:.10g}" for lo, hi in want])
