"""Test oracle: the banded DTW as a plain cell-level dynamic program.

It keeps every band row and walks back from (n-1, n-1) cell by cell, taking
a tied diagonal move first, then up, then left. The differential tests
require ``ehsim.metrics.dtw_path`` to return its exact
``(path_i, path_j, cost)``, because the path length is the APE denominator.
"""

from __future__ import annotations

import numpy as np

from ehsim.metrics import MetricError

_INF = 1 << 28


def dtw_path(a, b, r) -> tuple[np.ndarray, np.ndarray, int]:
    """Banded optimal alignment of two equal-length boolean sequences."""
    a8 = np.asarray(a, dtype=np.uint8)
    b8 = np.asarray(b, dtype=np.uint8)
    n = len(a8)
    if len(b8) != n:
        raise MetricError("dtw_path needs equal lengths (pad first)")
    if n == 0:
        raise MetricError("empty sequences")
    r = min(max(int(r), 0), n - 1) if n > 1 else 0
    lo = [max(i - r, 0) for i in range(n)]
    hi = [min(i + r, n - 1) for i in range(n)]

    # rows[i][j - lo[i]] = D(i, j). Within a row, D(i, j) is the cheapest
    # entry from row i - 1 at some column k <= j plus the costs of columns
    # k + 1 .. j, a prefix minimum over cost-adjusted entries.
    rows = []
    for i in range(n):
        cost = (b8[lo[i]:hi[i] + 1] != a8[i]).astype(np.int32)
        s = np.cumsum(cost, dtype=np.int32)
        if i == 0:
            rows.append(s)
            continue
        p = lo[i - 1]
        ext = np.full(hi[i] - p + 2, _INF, dtype=np.int32)  # D(i-1, j) at j-p+1
        ext[1:len(rows[-1]) + 1] = rows[-1]
        entry = np.minimum(ext[lo[i] - p:hi[i] - p + 1],
                           ext[lo[i] - p + 1:hi[i] - p + 2]) + cost - s
        rows.append(np.minimum.accumulate(entry) + s)

    def d(i, j):
        return int(rows[i][j - lo[i]]) if lo[i] <= j <= hi[i] else _INF

    path = [(n - 1, n - 1)]
    i = j = n - 1
    while i or j:
        here, c = d(i, j), int(a8[i] != b8[j])
        if i and j and d(i - 1, j - 1) + c == here:
            i, j = i - 1, j - 1
        elif i and d(i - 1, j) + c == here:
            i -= 1
        else:
            assert d(i, j - 1) + c == here
            j -= 1
        path.append((i, j))
    path_i, path_j = np.array(path[::-1], dtype=np.intp).T
    return path_i, path_j, int(rows[-1][-1])
