"""Test oracle: the row-vectorized banded DTW with checkpointed traceback.

This is the cell-level ``dtw_path`` that ``ehsim.metrics`` used before its
run-length block DP. It is kept verbatim so the differential tests can require
identical ``(path_i, path_j, cost)`` from the production kernel.
"""

from __future__ import annotations

import numpy as np

from ehsim.metrics import MetricError

_INF = np.int32(1 << 28)
_CHECKPOINT_ROWS = 2048


def _band_limits(n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    rows = np.arange(n)
    lo = np.maximum(rows - r, 0)
    hi = np.minimum(rows + r, n - 1)
    return lo, hi


def _forward_rows(a8: np.ndarray, b8: np.ndarray, r: int, lo: np.ndarray,
                  hi: np.ndarray, start_row: int, end_row: int,
                  d_prev: np.ndarray | None, keep_all: bool):
    """Run the DP over rows [start_row, end_row); returns kept rows or checkpoints.

    ``d_prev`` is the band row for ``start_row - 1`` (None at the top). Each
    band row is stored left-aligned at its own window offset ``lo[i]``. The
    within-row left dependency is folded into a prefix minimum over
    cost-adjusted entry values, keeping every row fully vectorized.
    """
    kept: list[np.ndarray] = []
    checkpoints: dict[int, np.ndarray] = {}
    width_max = 2 * r + 1
    ext = np.empty(width_max + 2, dtype=np.int32)  # d_prev padded with INF
    scratch = np.empty(width_max, dtype=np.int32)
    for i in range(start_row, end_row):
        w_lo = lo[i]
        width = hi[i] - w_lo + 1
        cost = (b8[w_lo:w_lo + width] != a8[i]).astype(np.int32)
        if i == 0:
            row = np.cumsum(cost, dtype=np.int32)
        else:
            shift = w_lo - lo[i - 1]
            prev_width = hi[i - 1] - lo[i - 1] + 1
            # ext holds [INF, d_prev...]: diag/up become plain slices of it
            ext[0] = _INF
            ext[1:prev_width + 1] = d_prev
            avail = prev_width + 1 - shift  # entries covering this window
            if avail >= width + 1:
                diag = ext[shift:shift + width]
                up = ext[shift + 1:shift + 1 + width]
            else:
                ext[prev_width + 1:width + shift + 1] = _INF
                diag = ext[shift:shift + width]
                up = ext[shift + 1:shift + 1 + width]
            entry = np.minimum(up, diag, out=scratch[:width])
            entry += cost
            s = np.cumsum(cost, dtype=np.int32)
            entry -= s
            np.minimum.accumulate(entry, out=entry)
            row = entry + s
        if keep_all:
            kept.append(row)
        elif i % _CHECKPOINT_ROWS == 0:
            checkpoints[i] = row.copy()
        d_prev = row
    if keep_all:
        return kept, d_prev
    return checkpoints, d_prev


def dtw_path(a: np.ndarray, b: np.ndarray, r: int
             ) -> tuple[np.ndarray, np.ndarray, int]:
    """Banded optimal alignment of two equal-length boolean sequences.

    Returns (path_i, path_j, cost) with the path running (0,0) -> (n-1,n-1)
    monotonically inside the band |i - j| <= r; cost is the minimal mismatch
    count. Ties resolve diagonal-first, then up, then left, so results are
    deterministic.
    """
    a8 = np.asarray(a, dtype=np.uint8)
    b8 = np.asarray(b, dtype=np.uint8)
    n = len(a8)
    if len(b8) != n:
        raise MetricError("dtw_path needs equal lengths (pad first)")
    if n == 0:
        raise MetricError("empty sequences")
    r = min(max(int(r), 0), n - 1) if n > 1 else 0
    lo, hi = _band_limits(n, r)

    checkpoints, last = _forward_rows(a8, b8, r, lo, hi, 0, n, None, False)
    cost = int(last[hi[n - 1] - lo[n - 1]])

    # Traceback through recomputed blocks.
    path_i: list[int] = []
    path_j: list[int] = []
    i, j = n - 1, n - 1
    block_hi = n
    block_lo = (n - 1) // _CHECKPOINT_ROWS * _CHECKPOINT_ROWS
    rows: list[np.ndarray] | None = None
    while True:
        if rows is None:
            if block_lo == 0:
                rows, _ = _forward_rows(a8, b8, r, lo, hi, 0, block_hi, None, True)
            else:
                prev = checkpoints[block_lo]
                rows, _ = _forward_rows(a8, b8, r, lo, hi, block_lo + 1,
                                        block_hi, prev, True)
                rows.insert(0, prev)
        while True:
            path_i.append(i)
            path_j.append(j)
            if i == 0 and j == 0:
                return (np.asarray(path_i[::-1]), np.asarray(path_j[::-1]), cost)
            row = rows[i - block_lo]
            here = int(row[j - lo[i]])
            c_here = int(a8[i] != b8[j])
            if i > 0:
                prow = rows[i - 1 - block_lo] if i - 1 >= block_lo else None
                if (prow is not None and j > 0 and lo[i - 1] <= j - 1 <= hi[i - 1]
                        and int(prow[j - 1 - lo[i - 1]]) + c_here == here):
                    i, j = i - 1, j - 1
                elif (prow is not None and lo[i - 1] <= j <= hi[i - 1]
                      and int(prow[j - lo[i - 1]]) + c_here == here):
                    i = i - 1
                elif j > 0 and j - 1 >= lo[i] and int(row[j - 1 - lo[i]]) + c_here == here:
                    j = j - 1
                else:
                    # predecessor lies in the previous block
                    break
            else:
                j = j - 1  # row 0: only left moves remain
        # Predecessor lives below this block: recompute [block_lo', i] and
        # re-enter at the same cell (drop its duplicate append).
        block_hi = i + 1
        block_lo = (i - 1) // _CHECKPOINT_ROWS * _CHECKPOINT_ROWS
        path_i.pop()
        path_j.pop()
        rows = None
