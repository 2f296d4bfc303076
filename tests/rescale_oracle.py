"""Test oracle: the bin-level activity rescale.

``rescale_activity`` is the function ``ehsim.scaling`` used before it
worked on on/off and label runs: it interpolates the on-count prefix sum at
every stretched bin edge. It is kept verbatim so the differential tests can
require the production rescale's exact ``on_off`` and ``labels``.
"""

from __future__ import annotations

import numpy as np

from ehsim.app import ActivityProfile
from ehsim.scaling import _check_s_tp


def _rebin_sum(values: np.ndarray, s_tp: float, n_out: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Conservative redistribution of per-bin totals onto the stretched axis.

    Output bin j covers [j, j+1) / s_tp on the input-bin axis. Returns each
    output bin's total and its overlap width with the input, in input bins.
    """
    n_in = len(values)
    cum = np.concatenate([[0.0], np.cumsum(values)])
    edges = np.clip(np.arange(n_out + 1) / s_tp, 0.0, n_in)
    cum_at = np.interp(edges, np.arange(n_in + 1), cum)
    return np.diff(cum_at), np.diff(edges)


def rescale_activity(activity: ActivityProfile, s_tp: float
                     ) -> ActivityProfile:
    """Map a scaled run's activity profile back to the real-time axis.

    Every step is stretched by ``s_tp`` and re-binned onto the standard
    grid: a bin is on where the stretched on-time covers at least half of
    it, and takes the label of the scaled bin under its centre. At
    ``s_tp == 1`` the profile itself is returned.
    """
    _check_s_tp(s_tp)
    if s_tp == 1.0:
        return activity
    n_out = int(round(len(activity) * s_tp))
    on_sum, width = _rebin_sum(activity.on_off.astype(float), s_tp, n_out)
    on_frac = np.divide(on_sum, width, out=np.zeros(n_out), where=width > 0)
    centers = (np.arange(n_out) + 0.5) / s_tp
    src = np.minimum(centers.astype(int), len(activity) - 1)
    return ActivityProfile(step_len=activity.step_len,
                           on_off=on_frac >= 0.5,
                           labels=activity.labels[src])
