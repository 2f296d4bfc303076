"""Differential tests: the block CSV writer against the per-row oracle.

``save_result`` and the ``mismatch_spans.csv`` writer must produce files
byte-identical to ``tests/csv_oracle.py`` for every row count around the
block size, every phase label, and the float values where ``%.10g`` output
changes shape (signed zero, subnormals, exponent switch, inf/nan). The
oracle predates the ``.npy`` tables and ``result.json``'s ``step_len``;
those are the only differences allowed.
"""

from __future__ import annotations

import filecmp
import json
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import csv_oracle
from ehsim.app import PHASES, ActivityProfile, preset
from ehsim.config import _BLOCK_ROWS, _write_csv, save_result
from ehsim.engine import EnergyStackProfile, SimConfig, simulate
from ehsim.ess import EssConfig
from ehsim.traces import IrradianceTrace

ROW_COUNTS = [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1]

SPECIAL = [0.0, -0.0, 5e-324, -1.5e-310, 2.2250738585072014e-308, 1e-300,
           1e22, -1e22, 1e-4, 9.99999999995e-5, 1e-5, 9999999999.0,
           9999999999.5, 1e10, 12345678901.0, 0.1, 1 / 3, 0.2 * 3,
           np.inf, -np.inf, np.nan]

values = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True,
                                                       allow_infinity=True))
pools = st.lists(values, min_size=1, max_size=12)


@pytest.fixture(scope="module")
def base_result():
    trace = IrradianceTrace(t=np.array([0.0, 60.0]), g=np.array([100.0, 100.0]))
    return simulate(trace, None, EssConfig(), preset("TMP1"),
                    SimConfig(dt_quiescent=0.2))


def _column(pool, n, shift):
    """``n`` values cycling through ``pool``, starting at ``shift``."""
    return np.roll(np.resize(np.asarray(pool, dtype=float), n),
                   shift if n else 0)


NPY_TABLES = ["activity.npy", "events.npy", "profile.npy", "voltage.npy"]


def _same_files(a, b):
    names = sorted(os.listdir(b))
    assert sorted(os.listdir(a)) == sorted(names + NPY_TABLES)
    names.remove("result.json")
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert (mismatch, errors) == ([], [])
    with open(os.path.join(a, "result.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    del payload["step_len"]
    with open(os.path.join(b, "result.json"), encoding="utf-8") as fh:
        assert fh.read() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _check(result):
    with tempfile.TemporaryDirectory() as tmp:
        new, old = os.path.join(tmp, "new"), os.path.join(tmp, "old")
        save_result(result, new)
        csv_oracle.save_result(result, old)
        _same_files(new, old)


@given(n=st.sampled_from(ROW_COUNTS), n_ev=st.sampled_from(ROW_COUNTS),
       pool=pools, labels=st.lists(st.integers(0, len(PHASES) - 1),
                                   min_size=1, max_size=8),
       step=st.one_of(st.sampled_from([0.2, 0.1, 1 / 3, 1e-9, 3600.0]),
                      st.floats(min_value=1e-12, max_value=1e6)),
       shift=st.integers(0, 6))
@settings(max_examples=25, deadline=None)
def test_save_result_matches_row_oracle(base_result, n, n_ev, pool, labels,
                                        step, shift):
    cols = [_column(pool, n, shift + j) for j in range(9)]
    result = replace(
        base_result,
        profile=EnergyStackProfile(step, *cols[:7]),
        activity=ActivityProfile(step, on_off=np.isfinite(cols[1]) & (cols[1] > 0),
                                 labels=np.resize(np.asarray(labels, np.int8), n)),
        voltage_t=cols[7], voltage_v=cols[8],
        event_log=np.column_stack((_column(pool, n_ev, shift),
                                   np.arange(n_ev) % 2)).astype(float))
    _check(result)


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_every_phase_label_and_event_log(base_result, n):
    assert len(base_result.event_log) == 0  # the empty log case
    _check(base_result)
    cols = [np.arange(n) * 0.2 + j for j in range(9)]
    result = replace(
        base_result,
        profile=EnergyStackProfile(0.2, *cols[:7]),
        activity=ActivityProfile(0.2, on_off=np.arange(n) % 3 == 0,
                                 labels=np.arange(n) % len(PHASES)),
        voltage_t=cols[7], voltage_v=cols[8],
        event_log=np.column_stack((cols[0], np.arange(n) % 2)).astype(float))
    _check(result)


@given(n=st.sampled_from(ROW_COUNTS), pool=pools, shift=st.integers(0, 6))
@settings(max_examples=15, deadline=None)
def test_mismatch_spans_csv_matches_row_oracle(n, pool, shift):
    spans = list(zip(_column(pool, n, shift).tolist(),
                     _column(pool, n, shift + 1).tolist()))
    with tempfile.TemporaryDirectory() as tmp:
        new, old = os.path.join(tmp, "new.csv"), os.path.join(tmp, "old.csv")
        arr = np.asarray(spans, dtype=float).reshape(-1, 2)
        _write_csv(new, ("t_start_s", "t_end_s"), (arr[:, 0], arr[:, 1]))
        csv_oracle.write_mismatch_spans(old, spans)
        assert filecmp.cmp(new, old, shallow=False)
