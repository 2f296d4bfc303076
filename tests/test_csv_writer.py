"""Differential tests: the block CSV writer against the per-row oracle.

``save_result`` and the ``mismatch_spans.csv`` writer must produce files
byte-identical to ``tests/csv_oracle.py`` for every row count around the
block size, every phase label, and the float values where ``%.10g`` output
changes shape (signed zero, subnormals, exponent switch, inf/nan). The
writer formats each run of equal bits once and shares the bin time grid
between tables, so runs across block edges and values equal by ``==`` but
not by bits are covered too. The oracle predates the ``.npy`` tables,
``result.json``'s ``step_len`` and ``run_meta.json``'s stats and save time;
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
from ehsim.config import _BLOCK_ROWS, _write_csvs, save_result
from ehsim.engine import EnergyStackProfile, SimConfig, simulate
from ehsim.ess import EssConfig
from ehsim.traces import IrradianceTrace
from test_engine import _pin_inputs

ROW_COUNTS = [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1]

SPECIAL = [0.0, -0.0, 5e-324, -1.5e-310, 2.2250738585072014e-308, 1e-300,
           1e22, -1e22, 1e-4, 9.99999999995e-5, 1e-5, 9999999999.0,
           9999999999.5, 1e10, 12345678901.0, 0.1, 1 / 3, 0.2 * 3,
           np.inf, -np.inf, np.nan]

values = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True,
                                                       allow_infinity=True))
pools = st.lists(values, min_size=1, max_size=12)

# Neighbours that only their bits tell apart: 0.0 == -0.0 but they print
# "0" and "-0"; the two NaNs (quiet, and negative with a payload) never
# equal anything.
BITWISE = np.array([0x0000000000000000, 0x8000000000000000,
                    0x7FF8000000000000, 0xFFF8000000000001],
                   dtype=np.uint64).view(np.float64)


@pytest.fixture(scope="module")
def base_result():
    trace = IrradianceTrace(t=np.array([0.0, 60.0]), g=np.array([100.0, 100.0]))
    return simulate(trace, None, EssConfig(), preset("TMP1"),
                    SimConfig(dt_quiescent=0.2))


@pytest.fixture(scope="module")
def dawn_result(tmp_path_factory):
    """Two hours of the simulate benchmark's inputs across sunrise (06:00)."""
    result = simulate(*_pin_inputs("window_realtime_5",
                                   tmp_path_factory.mktemp("dawn")))
    harvest = result.profile.harvest
    assert harvest[0] == 0.0 and harvest[-1] > 0.0  # dark, then lit
    return result


def _on_grid(t, step, shift):
    """Whether ``t`` holds the bits of ``(k + shift) * step``."""
    grid = np.arange(shift, len(t) + shift) * step
    return np.array_equal(np.asarray(t).view(np.uint64), grid.view(np.uint64))


def _column(pool, n, shift):
    """``n`` values cycling through ``pool``, starting at ``shift``."""
    return np.roll(np.resize(np.asarray(pool, dtype=float), n),
                   shift if n else 0)


NPY_TABLES = ["activity.npy", "events.npy", "profile.npy", "voltage.npy"]


def _same_files(a, b):
    names = sorted(os.listdir(b))
    assert sorted(os.listdir(a)) == sorted(names + NPY_TABLES)
    names.remove("result.json")
    names.remove("run_meta.json")
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert (mismatch, errors) == ([], [])
    # Keys added since the oracle: result.json's step, run_meta.json's stats
    # and save time.
    with open(os.path.join(a, "result.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    del payload["step_len"]
    with open(os.path.join(b, "result.json"), encoding="utf-8") as fh:
        assert fh.read() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(os.path.join(a, "run_meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    del meta["stats"], meta["save_s"]
    with open(os.path.join(b, "run_meta.json"), encoding="utf-8") as fh:
        assert fh.read() == json.dumps(meta, indent=2) + "\n"


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
    cols = [_column(pool, n, shift + j) for j in range(7)]
    result = replace(
        base_result,
        profile=EnergyStackProfile(step, *cols[:6]),
        activity=ActivityProfile(step, on_off=np.isfinite(cols[0]) & (cols[0] > 0),
                                 labels=np.resize(np.asarray(labels, np.int8), n)),
        voltage_v=cols[6],
        event_log=np.column_stack((_column(pool, n_ev, shift),
                                   np.arange(n_ev) % 2)).astype(float))
    _check(result)


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_every_phase_label_and_event_log(base_result, n):
    assert len(base_result.event_log) == 0  # the empty log case
    _check(base_result)
    cols = [np.arange(n) * 0.2 + j for j in range(7)]
    result = replace(
        base_result,
        profile=EnergyStackProfile(0.2, *cols[:6]),
        activity=ActivityProfile(0.2, on_off=np.arange(n) % 3 == 0,
                                 labels=np.arange(n) % len(PHASES)),
        voltage_v=cols[6],
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
        _write_csvs([(new, ("t_start_s", "t_end_s"), (arr[:, 0], arr[:, 1]))])
        csv_oracle.write_mismatch_spans(old, spans)
        assert filecmp.cmp(new, old, shallow=False)


@pytest.mark.parametrize("name", ["base_result", "dawn_result"])
def test_engine_results_share_the_time_grid(request, name):
    result = request.getfixturevalue(name)
    step = result.activity.step_len
    assert _on_grid(result.profile.t_start, step, 0)
    assert _on_grid(result.voltage_t, step, 1)
    _check(result)


@given(first=st.integers(_BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1),
       runs=st.lists(st.tuples(values, st.one_of(
           st.integers(1, 3), st.integers(_BLOCK_ROWS - 2, _BLOCK_ROWS + 2))),
           max_size=3),
       value=values,
       at=st.one_of(st.sampled_from([_BLOCK_ROWS - 2, _BLOCK_ROWS - 1,
                                     _BLOCK_ROWS]),
                    st.integers(0, 2 * _BLOCK_ROWS)),
       step=st.sampled_from([0.2, 0.1, 1 / 3, 3600.0]))
@settings(max_examples=12, deadline=None)
def test_runs_across_block_edges_match_row_oracle(base_result, first, runs,
                                                  value, at, step):
    """Runs longer than a block, bitwise-only neighbours.

    A run of more than ``_BLOCK_ROWS`` rows always spans a block edge. Each
    column holds the ``BITWISE`` neighbours at its own offset.
    """
    col = np.concatenate([np.full(first, value)]
                         + [np.full(k, v) for v, k in runs])
    at = min(at, len(col))
    col = np.concatenate((col[:at], BITWISE, col[at:]))
    n = len(col)
    cols = [np.roll(col, j * (_BLOCK_ROWS // 3)) for j in range(7)]
    result = replace(
        base_result,
        profile=EnergyStackProfile(step, *cols[:6]),
        activity=ActivityProfile(step, on_off=np.signbit(cols[0]),
                                 labels=np.arange(n) // 5000 % len(PHASES)),
        voltage_v=cols[6])
    _check(result)
