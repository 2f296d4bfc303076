"""Test oracle: the banded DTW's column-cost tables, filled from b's runs.

``column_tables`` is the fill ``ehsim.metrics`` made on every call before it
derived the column costs from b's runs: four int32 tables of n + 1 entries,
entry j + 1 for column j and entry 0 for the virtual corner's column -1. It
is kept verbatim so the differential tests can require that every window
and every scalar read of ``metrics._Columns`` equals the table entry.
"""

from __future__ import annotations

import numpy as np

from ehsim.app import _run_starts


def column_tables(b: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray],
                                          tuple[np.ndarray, np.ndarray]]:
    """(S, Z): S[v][j+1] = #{k <= j: b[k] != v} and the last zero-cost
    column Z[v][j+1] = max{k <= j: b[k] == v} (-2: none), v = 0/1."""
    b = np.asarray(b, dtype=bool)
    n = len(b)
    # table entry 0 (S = 0) is a run of its own
    starts = _run_starts(b)
    lens = np.diff(np.append(starts, n))
    vals = b[starts]
    counts = np.append(1, lens)
    on = np.repeat(np.append(False, vals), counts)
    cols = np.arange(-1, n, dtype=np.int32)  # cols[j + 1] = j
    # ones through column j: those before j's run, plus j - start + 1 in a
    # run of ones
    ones = np.append(0, np.cumsum(lens * vals) - (starts + lens - 1) * vals)
    ones = np.repeat(ones.astype(np.int32), counts)
    np.add(ones, cols, out=ones, where=on)
    # a column whose b is not v has Z at the column left of its run
    left = np.append(-2, np.where(starts > 0, starts - 1, -2)).astype(np.int32)
    Z = (np.repeat(left, counts), np.repeat(left, counts))
    np.copyto(Z[0], cols, where=~on)
    np.copyto(Z[1], cols, where=on)
    cols += 1
    S = (ones, np.subtract(cols, ones, out=cols))
    return S, Z
