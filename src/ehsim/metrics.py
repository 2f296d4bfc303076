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
row above has the complementary cost. The forward pass keeps one band row
per a-run, so time and memory are O(n + a-runs x band width): a few runs
per day cost almost nothing, whatever the window. The traceback answers
each in-stripe value query in O(1) from those rows and takes long straight
or diagonal segments in one vectorized stride, so its cost follows the
path's segments rather than its length. While every move of a stride repeats
the last one, D along the stride falls by the cost of each cell it leaves,
so a stride evaluates only its cells' predecessors, once along a line: for a
diagonal or up stride the predecessor on the line is the next cell of the
stride (an up stride also evaluates the column to its left for the diagonal
predecessor), and for a left stride both predecessors lie on the row above.
Costs are unit per on/off mismatch and zero per match, held in integers, so
all arithmetic is exact. Where several predecessors tie, the traceback moves
diagonally, then up, then left, on every row. It returns the path's moves
run-length coded; the path length, the APE denominator, is counted from
them without building the path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .app import ActivityProfile

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
# A traceback move repeated this often is checked ahead in one vectorized
# stride of at least _MIN_STRIDE cells; short segments are cheaper to walk
# cell by cell.
_STRIDE_AFTER = 8
_MIN_STRIDE = 64


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


def _entry_prefix(st: _Stripe, S) -> np.ndarray:
    """pre[x - tlo + 1] = min over columns j' <= x of D(r0-1, j') - S(j')."""
    pre = np.empty(len(st.top) - 1, dtype=np.int32)
    pre[0] = _INF
    np.minimum.accumulate(st.top[1:-1] - S[st.v][st.tlo + 1:st.thi + 2],
                          out=pre[1:])
    return pre


def _stripe_d(st: _Stripe, pre: np.ndarray, i, j, s_j, z_j):
    """D at cells (i, j) of stripe ``st``, i >= r0 (vectorized).

    ``s_j``/``z_j`` are S and Z of the stripe's value at j + 1. A path from
    entry column j' to (i, j) costs S(j) - S(j') while it can descend
    diagonally or in a zero-cost column, which covers every
    j' <= x = max(j - di, z(j)). Past x all columns cost one, the path costs
    di, and the row above is zero-cost there, so D(r0 - 1, .) is
    non-increasing on (x, thi]: its minimum is at min(j, thi).
    """
    di = i - st.r0 + 1
    x = np.maximum(j - di, z_j)
    p = s_j + pre[np.clip(x - st.tlo + 1, 0, len(pre) - 1)]
    y = np.minimum(j, st.thi)
    q = np.where(y > x, st.top[y - st.tlo + 1] + di, _INF)
    return np.minimum(p, q)


def _forward(a: np.ndarray, r: int, S, Z) -> tuple[list[_Stripe], int]:
    """All stripes with their entry rows, and the optimal cost D(n-1, n-1)."""
    n = len(a)
    starts = np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1])))
    ends = np.append(starts[1:], n) - 1
    top = np.array([_INF, 0, _INF], dtype=np.int32)
    tlo = thi = -1
    stripes = []
    for r0, r1 in zip(starts.tolist(), ends.tolist()):
        v = int(a[r0])
        st = _Stripe(r0, v, tlo, thi, top)
        stripes.append(st)
        tlo, thi = max(r1 - r, 0), min(r1 + r, n - 1)
        top = np.empty(thi - tlo + 3, dtype=np.int32)
        top[0] = top[-1] = _INF
        top[1:-1] = _stripe_d(st, _entry_prefix(st, S), r1,
                              np.arange(tlo, thi + 1), S[v][tlo + 1:thi + 2],
                              Z[v][tlo + 1:thi + 2])
    return stripes, int(top[-2])


def _traceback(a: np.ndarray, b: np.ndarray, r: int, stripes, S, Z,
               cost: int) -> list[list]:
    """Optimal path (0,0) -> (n-1,n-1); ties go diagonal, then up, then left.

    Returns the path's moves run-length coded, ``[(di, dj), count]``,
    walking back from (n-1, n-1).
    """
    n = len(a)
    am, bm = memoryview(a.view(np.uint8)), memoryview(b.view(np.uint8))
    steps: list[list] = []
    i = j = n - 1
    d = cost
    k = len(stripes)
    st = None
    r0 = n
    run, stride = 0, _MIN_STRIDE

    def at(ii: int, jj: int) -> int:
        # Scalar D(ii, jj) for ii >= r0 - 1 inside the band (see _stripe_d).
        di = ii - r0 + 1
        if di == 0:
            return topm[jj - tlo + 1]
        x = jj - di
        z = Zm[jj + 1]
        if z > x:
            x = z
        p = x - tlo + 1
        p = Sm[jj + 1] + prem[0 if p < 0 else (p if p < last else last)]
        y = jj if jj < thi else thi
        if y > x:
            q = topm[y - tlo + 1] + di
            if q < p:
                p = q
        return p

    def at_vec(ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        jp = jj + 1
        out = _stripe_d(st, pre, ii, jj, S[st.v][jp], Z[st.v][jp])
        edge = ii == r0 - 1
        if edge.any():
            out = np.where(edge, st.top[np.clip(jj - tlo + 1, 0, thi - tlo + 2)],
                           out)
        return out

    while i or j:
        if i == 0:
            steps.append([_LEFT, j])
            break
        if i < r0:
            k -= 1
            st = stripes[k]
            r0, tlo, thi = st.r0, st.tlo, st.thi
            pre = _entry_prefix(st, S)
            topm, prem = memoryview(st.top), memoryview(pre)
            last = len(pre) - 1
            Sm, Zm = memoryview(S[st.v]), memoryview(Z[st.v])
        if run >= _STRIDE_AFTER:
            mv = steps[-1][0]
            floor = max(r0, 1)
            if mv is _DIAG:
                cap = min(i - floor, j) + 1
            elif mv is _UP:
                cap = min(i - floor, r - j + i) + 1
            else:
                cap = j - max(0, i - r) + 1
            m = min(stride, cap)
            if m >= _MIN_STRIDE:
                # The stride's m cells and the one after them along mv.
                ks = np.arange(m + 1)
                ii, jj = i - mv[0] * ks, j - mv[1] * ks
                cc = (b[jj[:m]] != st.v).astype(np.int32)
                # D at the stride's cells while every earlier move was mv:
                # each move takes off the cost of the cell it leaves.
                dd = d - np.cumsum(cc) + cc
                # Only the predecessors are evaluated. Along a DIAG or UP
                # stride, (i-1, j-1) or (i-1, j) is the next cell on the
                # line; along a LEFT stride both lie on row i - 1.
                if mv is _LEFT:
                    prev = at_vec(ii - 1, jj)
                    up_d, diag_d = prev[:-1], prev[1:]
                elif mv is _UP:
                    up_d = at_vec(ii[1:], jj[1:])
                    diag_d = at_vec(ii[1:], jj[1:] - 1)
                else:
                    diag_d = at_vec(ii[1:], jj[1:])
                ii, jj = ii[:m], jj[:m]
                good = (jj > 0) & (diag_d + cc == dd)
                if mv is not _DIAG:
                    up = (jj - ii < r) & (up_d + cc == dd)
                    good = ~good & (up if mv is _UP else ~up)
                taken = m if good.all() else int(np.argmin(good))
                if taken:
                    steps[-1][1] += taken
                    i, j = i - mv[0] * taken, j - mv[1] * taken
                    d = int(dd[taken - 1] - cc[taken - 1])
                stride = stride * 2 if taken == m else _MIN_STRIDE
                run = 0
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

    # Column-cost prefix sums S[v][j+1] = #{k <= j: b[k] != v} and the last
    # zero-cost column Z[v][j+1] = max{k <= j: b[k] == v} (-2: none), v = 0/1.
    ones = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(b, out=ones[1:])
    S = (ones, np.arange(n + 1, dtype=np.int32) - ones)
    cols = np.arange(n, dtype=np.int32)
    Z = tuple(np.concatenate(([np.int32(-2)], np.maximum.accumulate(
        np.where(b == v, cols, np.int32(-2))))) for v in (False, True))

    stripes, cost = _forward(a, r, S, Z)
    return _traceback(a, b, r, stripes, S, Z, cost), cost


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
