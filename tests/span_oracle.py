"""Test oracle: a closed-form span's end state and rows, each in its own form.

``end_state`` is the end state ``ehsim.engine._advance_span`` computed, and
``row_voltages`` the voltages ``ehsim.engine._write_rows`` wrote for queued
spans, before one integrator (``engine._segment_at``) evaluated both: the
span's stored energy ``E(s) = e0 + slope * phi(s)`` was written twice, for
scalars and for arrays. They are kept verbatim so the tests can require
that the integrator's end state and rows equal them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np


def end_state(e0: float, slope: float, v0: float, a: float,
              two_over_c: float, d0: float, n: int, agg: float
              ) -> tuple[float, float, float]:
    """``(v_prev, v_end, leak)`` of an ``n``-bin span whose first bin is
    ``d0`` long: the voltages at its last two bin ends and its leak."""
    span = d0 + (n - 1) * agg
    s_prev = (n - 2) * agg + d0
    if a == 0.0:
        phi_prev, phi_end, leak = s_prev, span, 0.0
    else:
        phi_prev = float(-np.expm1(-a * s_prev) / a)
        phi_end = float(-np.expm1(-a * span) / a)
        leak = a * e0 * span + slope * (span - phi_end)
    if slope == 0.0:
        v_prev = v_end = v0
    else:
        v_prev = math.sqrt(max((e0 + slope * phi_prev) * two_over_c, 0.0))
        v_end = math.sqrt(max((e0 + slope * phi_end) * two_over_c, 0.0))
    return v_prev, v_end, leak


def row_voltages(e0, slope, v0, a, two_over_c, d0, n, agg: float
                 ) -> np.ndarray:
    """The voltage at every bin end of consecutive spans, one array entry
    per span in each parameter, spans in order."""
    n = n.astype(np.intp)
    last = np.cumsum(n) - 1
    first = last - (n - 1)
    span_of = np.repeat(np.arange(len(n)), n)  # each row's span
    k = np.arange(last[-1] + 1) - first[span_of]  # each row's bin in its span
    s = k * agg + d0[span_of]
    a = a[span_of]
    phi = np.divide(-np.expm1(-a * s), a, out=s.copy(), where=a != 0.0)
    v = np.sqrt(np.maximum((e0[span_of] + slope[span_of] * phi)
                           * two_over_c[span_of], 0.0))
    return np.where(slope[span_of] == 0.0, v0[span_of], v)
