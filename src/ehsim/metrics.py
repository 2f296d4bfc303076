"""Run-comparison metrics: throughput error and activity profile error (APE).

APE is the fraction of fixed-length time steps in which two on/off activity
profiles disagree. Minor timing jitter between otherwise-matching profiles
inflates the raw count, so profiles can first be aligned with dynamic time
warping under a Sakoe-Chiba band ("window"): mismatches that a monotone
alignment within the window can absorb are filtered out, leaving the
fundamental activity differences.

The banded DTW is an exact run-length block DP. On/off profiles are long
constant runs, so the grid splits into (a-run x b-run) blocks of constant
0/1 cost. Within a stripe (the rows of one a-run) the cost depends on the
column only, and the cheapest path from a cell of the row above the stripe
to any stripe cell has a closed form: the columns crossed cost their prefix
sum, and extra rows are free in a zero-cost column and cost one each
otherwise. A stripe cell's value is thus a prefix minimum over the entry row
plus a window minimum, and the window minimum is a single lookup because the
row above has the complementary cost. The column costs come from b's runs:
the forward pass computes each stripe's band of them in one pass and keeps
one band row per a-run, so time and memory are O(a-runs x band width) plus
O(b-runs), and a few runs per day cost almost nothing, whatever the window.
The traceback answers each in-stripe value query in O(1) from those rows
and a lookup in b's runs, and follows a repeated move to the end of its
segment in one jump, by doubling and bisection, so its cost follows the
path's segments rather than its length. Bisection is exact because the cells
at which a segment's move is taken form a prefix of it: a diagonal move
holds while D plus the costs left behind stays at its start value, which it
never falls below as D <= cost + D(predecessor); an up or left move holds
while its own predecessor matches and the moves before it in the tie order
fail, and within one stripe, b-run and side of the band edge each of these
tests is monotone along the segment (by the same bound, or by the closed
form). A left segment on a stripe's first row, whose predecessors lie on the
entry row, is checked in blocks of doubling size instead.
Costs are unit per on/off mismatch and zero per match, held in integers, so
all arithmetic is exact. Where several predecessors tie, the traceback moves
diagonally, then up, then left, on every row. It returns the path's moves
run-length coded; the path length, the APE denominator, is counted from
them without building the path.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .app import ActivityProfile, _run_starts

__all__ = [
    "ApeReport",
    "MetricError",
    "throughput_error",
    "dtw_path",
    "compute_ape",
    "mismatch_spans",
]

_INF = 1 << 28  # above any path cost; stays in int32 after adding n
_DIAG, _UP, _LEFT = (1, 1), (1, 0), (0, 1)  # backward (row, col) steps
# The traceback follows a move repeated this often to the end of its
# segment in one jump; shorter segments are cheaper to walk cell by cell.
_JUMP_AFTER = 8


class MetricError(ValueError):
    """Invalid metric inputs."""


@dataclass(frozen=True)
class ApeReport:
    """Activity profile error: epsilon = n_diff / n_total in [0, 1].

    With a DTW window, ``n_diff`` counts mismatches along the optimal
    warping path and ``n_total`` is the path length; with window 0 they are
    the raw per-step disagreement count and the grid size.
    """

    epsilon: float
    n_diff: int
    n_total: int
    dtw_window: float

    def __post_init__(self):
        if self.n_total <= 0:
            raise MetricError("n_total must be positive")
        if not math.isclose(self.epsilon, self.n_diff / self.n_total,
                            rel_tol=0, abs_tol=1e-12):
            raise MetricError("epsilon must equal n_diff / n_total")


def throughput_error(predicted: float, baseline: float) -> float:
    """Absolute relative throughput error |predicted - baseline| / baseline."""
    if baseline <= 0:
        raise MetricError("throughput error undefined for baseline <= 0")
    return abs(predicted - baseline) / baseline


def _as_bool_pair(a, b) -> tuple[np.ndarray, np.ndarray, float]:
    if isinstance(a, ActivityProfile) or isinstance(b, ActivityProfile):
        if not (isinstance(a, ActivityProfile) and isinstance(b, ActivityProfile)):
            raise MetricError("compare two ActivityProfiles or two arrays")
        if not math.isclose(a.step_len, b.step_len):
            raise MetricError("profiles must share step_len")
        return a.on_off, b.on_off, a.step_len
    return (np.asarray(a, dtype=bool), np.asarray(b, dtype=bool), 1.0)


def _pad_equal(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Shorter profile is padded with off: runs end in the off state.
    n = max(len(x), len(y))
    if len(x) < n:
        x = np.concatenate([x, np.zeros(n - len(x), dtype=bool)])
    if len(y) < n:
        y = np.concatenate([y, np.zeros(n - len(y), dtype=bool)])
    return x, y


def _radius(window: float, step: float, n: int) -> int:
    """Band radius in steps for a DTW window in seconds (``inf``: whole grid)."""
    if not window >= step:  # NaN fails it too
        raise MetricError(f"window must be 0, >= one step, or inf; "
                          f"got {window}")
    return n if window == math.inf else int(round(window / step))


class _Stripe(NamedTuple):
    """One a-run's rows [r0, ...] of value ``v``, and its entry band row.

    ``top`` holds D over columns [tlo, thi] of row r0 - 1, padded with one
    INF on each side; for the first stripe it is the virtual corner
    D(-1, -1) = 0.
    """

    r0: int
    v: int
    tlo: int
    thi: int
    top: np.ndarray


class _Columns:
    """The column costs of b for a row of value v = 0/1, from b's runs.

    S(v, j) = #{k <= j: b[k] != v} is the cost prefix sum and
    Z(v, j) = max{k <= j: b[k] == v} the last zero-cost column (-2: none),
    for -1 <= j < n; column -1, the virtual corner's, is a zero run of its
    own with S = 0. A scalar read finds j's run as the last read's, else by
    bisection; a window over a band costs one pass.
    """

    def __init__(self, b: np.ndarray):
        n = len(b)
        self.b, self.b8 = b, b.view(np.uint8)
        starts = _run_starts(b)
        lens = np.diff(np.append(starts, n))
        ones = lens * b[starts]
        self.start = memoryview(np.concatenate(([-1], starts, [n])))
        self.val = memoryview(np.append(0, self.b8[starts]))
        # ones before each run
        self.ones = memoryview(np.append(0, np.cumsum(ones) - ones))
        self.k = 0  # the run of the last scalar read

    def _sz(self, v: int, j: int, k: int) -> tuple[int, int]:
        start, val = self.start[k], self.val[k]
        ones = self.ones[k] + (j - start + 1) * val
        return (j + 1 - ones if v else ones,
                j if val == v else (start - 1 if start > 0 else -2))

    def sz(self, v: int, j: int) -> tuple[int, int]:
        """S(v, j) and Z(v, j)."""
        k, start = self.k, self.start
        if not start[k] <= j < start[k + 1]:
            self.k = k = bisect_right(start, j) - 1
        return self._sz(v, j, k)

    def s_window(self, v: int, lo: int, hi: int) -> np.ndarray:
        """S(v, j) for lo <= j <= hi, lo >= -1."""
        out = np.empty(hi - lo + 1, dtype=np.int32)
        out[0] = self._sz(v, lo, bisect_right(self.start, lo) - 1)[0]
        np.bitwise_xor(self.b8[lo + 1:hi + 1], v, out=out[1:])
        return np.add.accumulate(out, out=out)

    def z_window(self, v: int, j: np.ndarray) -> np.ndarray:
        """Z(v, j) for the columns j = lo, lo + 1, ..., lo >= 0."""
        lo = int(j[0])
        w = self.b[lo:lo + len(j)]
        out = np.where(w, j, -2) if v else np.where(w, -2, j)
        out[0] = self._sz(v, lo, bisect_right(self.start, lo) - 1)[1]
        return np.maximum.accumulate(out, out=out)


def _entry_prefix(st: _Stripe, s_top: np.ndarray) -> np.ndarray:
    """pre[x - tlo + 1] = min over columns j' <= x of D(r0-1, j') - S(j'),
    with ``s_top`` S of the stripe's value over the columns [tlo, thi]."""
    pre = np.empty(len(st.top) - 1, dtype=np.int32)
    pre[0] = _INF
    np.minimum.accumulate(st.top[1:-1] - s_top, out=pre[1:])
    return pre


def _stripe_d(st: _Stripe, pre: np.ndarray, i: int, j, s_j, z_j, out):
    """D at cells (i, j) of stripe ``st``, i >= r0, into ``out`` (vectorized).

    ``s_j``/``z_j`` are S and Z of the stripe's value at j. A path from
    entry column j' to (i, j) costs S(j) - S(j') while it can descend
    diagonally or in a zero-cost column, which covers every
    j' <= x = max(j - di, z(j)). Past x all columns cost one, the path costs
    di, and the row above is zero-cost there, so D(r0 - 1, .) is
    non-increasing on (x, thi]: its minimum is at y = min(j, thi).
    """
    di = i - st.r0 + 1
    o = st.tlo - 1  # column x is entry x - o of ``pre`` and of ``top``
    x = np.maximum(j - (di + o), z_j - o)
    np.add(s_j, pre.take(x, mode="clip"), out=out)
    y = np.minimum(j - o, st.thi - o)
    np.minimum(out, np.where(y > x, st.top.take(y) + di, _INF), out=out)


def _forward(a: np.ndarray, r: int, col: _Columns
             ) -> tuple[list[_Stripe], int]:
    """All stripes with their entry rows, and the optimal cost D(n-1, n-1)."""
    n = len(a)
    starts = _run_starts(a)
    ends = np.append(starts[1:], n) - 1
    top = np.array([_INF, 0, _INF], dtype=np.int32)
    tlo = thi = -1
    s_top = np.zeros(1, dtype=np.int32)  # S(-1) = 0
    stripes = []
    for r0, r1 in zip(starts.tolist(), ends.tolist()):
        v = int(a[r0])
        st = _Stripe(r0, v, tlo, thi, top)
        stripes.append(st)
        pre = _entry_prefix(st, s_top)
        tlo, thi = max(r1 - r, 0), min(r1 + r, n - 1)
        j = np.arange(tlo, thi + 1, dtype=np.int32)
        s_j = col.s_window(v, tlo, thi)
        top = np.empty(thi - tlo + 3, dtype=np.int32)
        top[0] = top[-1] = _INF
        _stripe_d(st, pre, r1, j, s_j, col.z_window(v, j), top[1:-1])
        # the next stripe's value is 1 - v: S(1 - v, j) = j + 1 - S(v, j)
        s_top = j + 1 - s_j
    return stripes, int(top[-2])


def _longest(holds, kmax: int) -> int:
    """Largest m <= kmax with ``holds(m)``, for a ``holds`` true on 0..M and
    false after: doubling steps, then bisection."""
    lo, hi = 0, 1
    while hi <= kmax and holds(hi):
        lo, hi = hi, 2 * hi
    hi = min(hi, kmax + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo


def _top_row_left(st: _Stripe, col: _Columns, j: int, r: int, d: int
                   ) -> int:
    """How many left moves the path makes from (st.r0, j), D there ``d``.

    The predecessors lie on the entry row, which has no shape to bisect on,
    so the cells are checked in blocks that double in size.
    """
    i, lo = st.r0, max(st.r0 - r, 0)
    m, size = 0, 64
    s_j = col.sz(st.v, j)[0]
    while m <= j - lo:
        j_lo = max(j - m - size, lo - 1) + 1
        jj = np.arange(j - m, j_lo - 1, -1)
        s = col.s_window(st.v, j_lo, j - m)[::-1]
        c = col.b8[j_lo:j - m + 1][::-1] ^ st.v
        dd = d - s_j + s
        stop = (jj > 0) & (st.top[jj - st.tlo] + c == dd)
        stop |= (jj - i < r) & (st.top[jj - st.tlo + 1] + c == dd)
        if stop.any():
            return m + int(stop.argmax())
        m += len(jj)
        size *= 2
    return m


def _traceback(a: np.ndarray, b: np.ndarray, r: int, stripes, col: _Columns,
               cost: int) -> list[list]:
    """Optimal path (0,0) -> (n-1,n-1); ties go diagonal, then up, then left.

    Returns the path's moves run-length coded, ``[(di, dj), count]``,
    walking back from (n-1, n-1).
    """
    n = len(a)
    am, bm = memoryview(a.view(np.uint8)), memoryview(b.view(np.uint8))
    sz = col.sz
    steps: list[list] = []
    i = j = n - 1
    d = cost
    k = len(stripes)
    r0 = n
    run = 0
    prem = last = None

    def at(ii: int, jj: int) -> int:
        # Scalar D(ii, jj) for ii >= r0 - 1 inside the band (see _stripe_d).
        nonlocal prem, last
        di = ii - r0 + 1
        if di == 0:
            return topm[jj - tlo + 1]
        if prem is None:  # the stripe's first read below its entry row
            pre = _entry_prefix(st, col.s_window(v, tlo, thi))
            prem, last = memoryview(pre), len(pre) - 1
        x = jj - di
        sj, zj = sz(v, jj)
        if zj > x:
            x = zj
        p = x - tlo + 1
        p = sj + prem[0 if p < 0 else (p if p < last else last)]
        y = jj if jj < thi else thi
        if y > x:
            q = topm[y - tlo + 1] + di
            if q < p:
                p = q
        return p

    # Whether the first m moves from (i, j) all repeat the last move. The up
    # and left tests look at the m-th move only: the moves that hold form a
    # prefix of the segment.
    def diag_holds(m: int) -> bool:
        return at(i - m, j - m) + s_j - sz(v, j - m)[0] == d

    def up_holds(m: int) -> bool:
        ii, dd = i - m + 1, d - (m - 1) * c
        return (j - ii < r and at(ii - 1, j) + c == dd
                and not (j and at(ii - 1, j - 1) + c == dd))

    def left_holds(m: int) -> bool:
        jj = j - m + 1
        dd = d - s_j + sz(v, jj)[0]
        return not ((jj and at(i - 1, jj - 1) + c == dd)
                    or (jj - i < r and at(i - 1, jj) + c == dd))

    while i or j:
        if i == 0:
            steps.append([_LEFT, j])
            break
        if i < r0:
            k -= 1
            st = stripes[k]
            r0, v, tlo, thi = st.r0, st.v, st.tlo, st.thi
            topm, prem = memoryview(st.top), None
        if run >= _JUMP_AFTER:
            # Follow a repeated move to the end of its segment in one jump
            # (see the module docstring for why bisection finds it); the
            # next repeat of the move, if any, tries again.
            run = _JUMP_AFTER - 1
            mv = steps[-1][0]
            c = bm[j] ^ v
            s_j = sz(v, j)[0]
            if mv is _DIAG:
                m = _longest(diag_holds, min(j, i - max(r0, 1) + 1))
            elif mv is _UP:
                m = _longest(up_holds, min(i - r0, r - j + i))
            elif i == r0:
                m = _top_row_left(st, col, j, r, d)
            else:
                # within j's b-run and the band, and on one side of the
                # band edge for the up predecessor
                kmax = j - max(sz(1 - bm[j], j)[1] + 1, i - r, 0) + 1
                if j - i >= r:
                    kmax = min(kmax, j - i - r + 1)
                m = _longest(left_holds, kmax)
            if m:
                d -= m * c if mv is _UP else s_j - sz(v, j - m)[0]
                steps[-1][1] += m
                i, j = i - mv[0] * m, j - mv[1] * m
                continue
        c = am[i] ^ bm[j]
        if j and (p := at(i - 1, j - 1)) + c == d:
            mv, d = _DIAG, p
        elif j - i < r and (p := at(i - 1, j)) + c == d:
            mv, d = _UP, p
        else:
            mv, d = _LEFT, d - c
        i, j = i - mv[0], j - mv[1]
        if steps and steps[-1][0] is mv:
            steps[-1][1] += 1
            run += 1
        else:
            steps.append([mv, 1])
            run = 1
    return steps


def _dtw_moves(a: np.ndarray, b: np.ndarray, r: int) -> tuple[list[list], int]:
    """The optimal path's run-length moves (see :func:`_traceback`) and cost."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    n = len(a)
    if len(b) != n:
        raise MetricError("dtw_path needs equal lengths (pad first)")
    if n == 0:
        raise MetricError("empty sequences")
    r = min(max(int(r), 0), n - 1) if n > 1 else 0
    col = _Columns(b)
    stripes, cost = _forward(a, r, col)
    return _traceback(a, b, r, stripes, col, cost), cost


def dtw_path(a: np.ndarray, b: np.ndarray, r: int
             ) -> tuple[np.ndarray, np.ndarray, int]:
    """Banded optimal alignment of two equal-length boolean sequences.

    Returns (path_i, path_j, cost) with the path running (0,0) -> (n-1,n-1)
    monotonically inside the band |i - j| <= r; cost is the minimal mismatch
    count. Ties resolve diagonal-first, then up, then left, so results are
    deterministic.
    """
    steps, cost = _dtw_moves(a, b, r)
    counts = [c for _, c in steps]
    path = []
    for axis in (0, 1):
        moves = np.repeat([mv[axis] for mv, _ in steps], counts)[::-1]
        out = np.zeros(len(moves) + 1, dtype=np.intp)
        np.cumsum(moves, out=out[1:])
        path.append(out)
    return path[0], path[1], cost


def compute_ape(a, b, window: float = 0.0) -> ApeReport:
    """Activity profile error, optionally DTW-filtered.

    Window 0 disables warping: the raw per-step disagreement fraction.
    Otherwise profiles are banded-DTW aligned first and mismatches are
    counted along the optimal path, normalized by path length. The window
    (seconds, or steps for raw arrays) bounds how far the alignment may
    locally shift one profile against the other; it must be at least one
    step, or inf. Profiles of unequal duration are padded with off.
    """
    x, y, step = _as_bool_pair(a, b)
    x, y = _pad_equal(x, y)
    if window == 0.0:
        n_diff = int(np.count_nonzero(x != y))
        n_total = len(x)
    else:
        steps, n_diff = _dtw_moves(x, y, _radius(window, step, len(x)))
        n_total = 1 + sum(c for _, c in steps)
    return ApeReport(epsilon=n_diff / n_total, n_diff=n_diff,
                     n_total=n_total, dtw_window=window)


def mismatch_spans(a, b) -> list[tuple[float, float]]:
    """Contiguous [t_start, t_end) spans where the raw profiles disagree."""
    x, y, step = _as_bool_pair(a, b)
    x, y = _pad_equal(x, y)
    diff = np.concatenate(([False], x != y, [False]))
    edges = np.flatnonzero(diff[1:] != diff[:-1])
    return list(zip((edges[0::2] * step).tolist(),
                    (edges[1::2] * step).tolist()))
