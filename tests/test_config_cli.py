import csv
import dataclasses
import io
import json
import math
import os
import shutil
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ehsim import cli
from ehsim.cli import main
from ehsim.config import (build_app, build_ess, build_sim, config_hash,
                          load_config, load_result, load_summary,
                          save_result)
from ehsim.engine import (ConfigError, EnergyStackProfile, SimConfig,
                          _resolution_guard, simulate)
from ehsim.ess import EssConfig, StorageModel, HarvesterModel
from ehsim.app import PHASES, ActivityProfile, preset
from ehsim.scaling import rescale_timeline
from ehsim.traces import (IrradianceTrace, synthetic_solar_trace,
                          write_irradiance)


def write_fixture_config(tmp_path, *, days=1, peak=40.0, app_block=None,
                         extra=None, k_mpp=1e-4):
    trace = synthetic_solar_trace(days=days, peak=peak, cadence_s=600)
    trace_path = tmp_path / "trace.csv"
    with open(trace_path, "w") as fh:
        write_irradiance(trace, fh)
    cfg = {
        "trace": {"path": "trace.csv"},
        "ess": {
            "harvester": {"kind": "linear_mpp", "k_mpp": k_mpp},
            "storage": {"capacitance": 0.5, "esr": 0.5,
                        "leak_resistance": 50e3, "v_init": 0.75},
        },
        "app": app_block or {"preset": "TMP1"},
        "sim": {"dt_quiescent": 0.2},
        "plan": {"mode": "realtime", "s_i": 1.0},
    }
    if extra:
        cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path


def test_config_round_trip_and_hash(tmp_path):
    path = write_fixture_config(tmp_path)
    cfg = load_config(str(path))
    blob = json.dumps(cfg.raw, sort_keys=True)
    again = json.loads(blob)
    assert again == cfg.raw
    assert config_hash(cfg.raw) == config_hash(again)
    assert len(cfg.hash) == 16


def assert_bit_equal(a, b, path="result"):
    """``a`` and ``b`` hold the same bits in every array, field and scalar."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), path
        for f in dataclasses.fields(a):
            if f.name != "wall_time_s":  # run metadata, never saved
                assert_bit_equal(getattr(a, f.name), getattr(b, f.name),
                                 f"{path}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray), path
        assert (a.dtype, a.shape) == (b.dtype, b.shape), path
        assert np.array_equal(np.ascontiguousarray(a).view(np.uint8),
                              np.ascontiguousarray(b).view(np.uint8)), path
    elif isinstance(a, dict):
        assert sorted(a) == sorted(b), path
        for k in a:
            assert_bit_equal(a[k], b[k], f"{path}[{k!r}]")
    elif isinstance(a, float) or isinstance(b, float):
        # result.json spells every NaN alike, so a NaN scalar's sign and
        # payload are not kept; arrays keep theirs.
        assert (struct.pack("<d", a) == struct.pack("<d", b)
                or math.isnan(a) and math.isnan(b)), (path, a, b)
    else:
        assert (type(a), a) == (type(b), b), path


def test_save_load_result_round_trip(tmp_path):
    tr = synthetic_solar_trace(days=1, peak=30.0, cadence_s=600)
    ess = EssConfig(storage=StorageModel(capacitance=0.4, leak_resistance=40e3))
    res = simulate(tr, None, ess, preset("TMP1"), SimConfig(dt_quiescent=0.2))
    out = str(tmp_path / "run")
    save_result(res, out)
    assert_bit_equal(load_result(out), res)


@pytest.fixture(scope="module")
def one_row_result():
    tr = IrradianceTrace(t=np.array([0.0, 0.5]), g=np.array([100.0, 100.0]))
    return simulate(tr, None, EssConfig(), preset("TMP1"),
                    SimConfig(dt_quiescent=0.5, aggregation_step=0.5,
                              end_policy="hard_stop"))


def test_load_result_keeps_the_step_of_a_one_row_result(tmp_path,
                                                         one_row_result):
    res = one_row_result
    assert len(res.activity) == 1
    empty = dataclasses.replace(
        res, activity=ActivityProfile(0.5, res.activity.on_off[:0],
                                      res.activity.labels[:0]),
        profile=EnergyStackProfile(0.5, *(np.empty(0) for _ in range(7))),
        voltage_t=np.empty(0), voltage_v=np.empty(0))
    # Rescaled, the voltage keeps the scaled run's samples, stamped s_tp apart.
    rescaled = rescale_timeline(res, 4.0)
    assert rescaled.voltage_t[0] == 2.0
    for name, r in (("one", res), ("empty", empty), ("rescaled", rescaled)):
        save_result(r, str(tmp_path / name))
        back = load_result(str(tmp_path / name))
        assert back.profile.step_len == 0.5, name
        assert back.activity.step_len == 0.5, name
        assert_bit_equal(back, r, name)


SPECIAL = [0.0, -0.0, 5e-324, -1.5e-310, 2.2250738585072014e-308, 1e-300,
           1e308, 0.1, 1 / 3, math.inf, -math.inf, math.nan]
specials = st.one_of(st.sampled_from(SPECIAL),
                     st.floats(allow_nan=True, allow_infinity=True))


@given(n=st.sampled_from([0, 1, 4097]), n_ev=st.sampled_from([0, 1, 5]),
       pool=st.lists(specials, min_size=1, max_size=8), scalar=specials,
       step=st.floats(min_value=1e-9, max_value=1e6), seed=st.integers(0, 99))
@settings(max_examples=60, deadline=None)
# result.json's closure_error_j of such a ledger may overflow; it is not read.
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_load_result_inverts_save_result_bit_for_bit(one_row_result, n, n_ev,
                                                     pool, scalar, step, seed):
    rng = np.random.default_rng(seed)

    def col(k):
        return rng.choice(np.asarray(SPECIAL + pool, dtype=float), size=k)

    res = one_row_result
    ledger = dataclasses.replace(res.ledger, harvest_input=scalar,
                                 storage_residual=-scalar)
    r = dataclasses.replace(
        res, ledger=ledger,
        profile=EnergyStackProfile(step, *(col(n) for _ in range(7))),
        activity=ActivityProfile(step, on_off=rng.random(n) < 0.5,
                                 labels=rng.integers(0, len(PHASES), n)),
        voltage_t=col(n), voltage_v=col(n), on_time_s=scalar,
        v_cap_final=scalar, duration_s=scalar,
        event_log=np.column_stack((col(n_ev), rng.integers(0, 2, n_ev)))
        .astype(float))
    with tempfile.TemporaryDirectory() as out:
        save_result(r, out)
        assert_bit_equal(load_result(out), r)


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("saved")
    cfg = write_fixture_config(base)
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(base / "out")]) == 0
    return base / "out"


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-9])


def _wrong_shape(path):
    np.save(path, np.zeros((3, 3)))


def _pickled(path):
    np.save(path, np.array([{}, {}], dtype=object), allow_pickle=True)


def _without_step_len(path):
    payload = json.loads(path.read_text())
    del payload["step_len"]
    path.write_text(json.dumps(payload))


_DAMAGES = [
    ("profile.npy", os.remove), ("activity.npy", _truncate),
    ("voltage.npy", _wrong_shape), ("events.npy", _pickled),
    ("activity.npy", lambda p: p.write_bytes(b"")),
    ("result.json", _without_step_len), ("activity.npy", os.remove),
]
# The files of a result directory compare reads; it never opens the others.
_COMPARE_READS = ("result.json", "activity.npy", "plan.json")


@pytest.mark.parametrize("command, name, damage", [
    (command, name, damage) for command in ("compare", "stacks")
    for name, damage in _DAMAGES
    if command == "stacks" or name in _COMPARE_READS])
def test_damaged_result_table_exits_2_naming_the_file(tmp_path, capsys,
                                                      saved_run, name, damage,
                                                      command):
    run = tmp_path / "run"
    shutil.copytree(saved_run, run)
    damage(run / name)
    if command == "compare":
        argv = ["compare", "--baseline", str(saved_run), "--scaled", str(run),
                "--plan", str(run / "plan.json"), "--out", str(tmp_path / "c")]
    else:
        argv = ["stacks", "--result", str(run)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError:") and str(run / name) in err
    assert "re-run simulate" in err and "Traceback" not in err


@pytest.fixture(scope="module")
def scaled_pair(tmp_path_factory):
    """A real-time run and its st-up twin (s_tp 3): their profiles differ."""
    base = tmp_path_factory.mktemp("pair")
    cfg = write_fixture_config(base)
    for mode in ("realtime", "st-up"):
        assert main(["simulate", "--config", str(cfg), "--out",
                     str(base / mode), "--mode", mode]) == 0
    return base / "realtime", base / "st-up"


def _compare(tmp_path, baseline, scaled, out, *plan):
    code = main(["compare", "--baseline", str(baseline), "--scaled",
                 str(scaled), *plan, "--window", "60", "--out",
                 str(tmp_path / out)])
    return code, {name: (tmp_path / out / name).read_bytes()
                  for name in ("report.json", "mismatch_spans.csv")
                  if (tmp_path / out / name).exists()}


def test_compare_reads_only_result_json_and_the_activity(tmp_path,
                                                         monkeypatch,
                                                         scaled_pair):
    rt, up = scaled_pair
    opened = []
    real_open = open

    def recording_open(file, *args, **kwargs):
        opened.append(os.path.abspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", recording_open)
    code, full = _compare(tmp_path, rt, up, "full")
    monkeypatch.undo()
    assert code == 0
    assert len(full["mismatch_spans.csv"].splitlines()) > 1
    inputs = [p for p in opened if os.path.dirname(p) in (str(rt), str(up))]
    assert sorted({os.path.basename(p) for p in inputs}) == sorted(
        _COMPARE_READS)

    # Without the tables compare does not read, the outputs are the same.
    lean = []
    for run in (rt, up):
        shutil.copytree(run, tmp_path / run.name)
        for name in ("profile.npy", "voltage.npy", "events.npy",
                     "run_meta.json"):
            os.remove(tmp_path / run.name / name)
        lean.append(tmp_path / run.name)
    assert _compare(tmp_path, *lean, "lean") == (0, full)


def test_load_summary_is_load_result_without_the_tables(tmp_path, saved_run):
    run = tmp_path / "run"
    run.mkdir()
    for name in ("result.json", "activity.npy"):
        shutil.copy(saved_run / name, run / name)
    summary = load_summary(str(run))
    full = load_result(str(saved_run))
    for f in dataclasses.fields(summary):
        assert_bit_equal(getattr(summary, f.name), getattr(full, f.name),
                         f.name)


def test_compare_scores_by_the_scaled_runs_plan_by_default(tmp_path,
                                                           scaled_pair):
    rt, up = scaled_pair
    given = _compare(tmp_path, rt, up, "given", "--plan",
                     str(up / "plan.json"))
    assert given[0] == 0
    assert _compare(tmp_path, rt, up, "default") == given


def _other_profile(tmp_path, up):
    plan = json.loads((up / "plan.json").read_text())
    plan["profile"]["p_idle_avg_w"] *= 2
    (tmp_path / "plan.json").write_text(json.dumps(plan))


def _other_s_tp(tmp_path, up):
    assert main(["plan", "--config", str(up.parent / "config.json"),
                 "--mode", "st-up", "--s-tp", "2", "--out",
                 str(tmp_path)]) == 0


@pytest.mark.parametrize("make_plan, fields", [
    (_other_s_tp, "s_tp, profile"), (_other_profile, "profile.p_idle_avg_w")])
def test_compare_rejects_a_plan_the_scaled_run_was_not_made_with(
        tmp_path, capsys, scaled_pair, make_plan, fields):
    rt, up = scaled_pair
    make_plan(tmp_path, up)
    capsys.readouterr()
    code, written = _compare(tmp_path, rt, up, "o", "--plan",
                             str(tmp_path / "plan.json"))
    assert (code, written) == (2, {})
    assert capsys.readouterr().err == (
        f"error: PlanError: {tmp_path / 'plan.json'} differs from "
        f"{up / 'plan.json'}, the plan the scaled run was made with, in "
        f"{fields}\n")


def test_compare_of_a_run_without_plan_json_needs_plan(tmp_path, capsys,
                                                       scaled_pair):
    # As a sweep cell: the result files and no plan.json.
    rt, up = scaled_pair
    cell = tmp_path / "cell"
    shutil.copytree(up, cell)
    os.remove(cell / "plan.json")
    capsys.readouterr()
    assert _compare(tmp_path, rt, cell, "o") == (2, {})
    assert str(cell / "plan.json") in capsys.readouterr().err
    given = _compare(tmp_path, rt, up, "given")
    assert _compare(tmp_path, rt, cell, "o", "--plan",
                    str(up / "plan.json")) == given


def test_cmd_simulate_writes_outputs_and_is_deterministic(tmp_path, capsys):
    cfg = write_fixture_config(tmp_path)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("result.json", "profile.csv", "activity.csv", "voltage.csv",
                 "plan.json", "run_meta.json"):
        assert (out1 / name).exists()
    assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()
    assert (out1 / "profile.csv").read_bytes() == (out2 / "profile.csv").read_bytes()
    assert "throughput=" in capsys.readouterr().out


def test_cmd_simulate_writes_run_stats_to_run_meta_only(tmp_path):
    cfg = write_fixture_config(tmp_path)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    stats = json.loads((out / "run_meta.json").read_text())["stats"]
    assert sorted(stats) == ["dark_steps", "span_bins", "spans", "steps"]
    n_bins = len(load_result(str(out)).activity)
    assert stats["steps"] > 0 and 0 < stats["span_bins"] < n_bins
    # every bin is spanned or closed by at least one step
    assert stats["steps"] + stats["span_bins"] >= n_bins
    assert 0 <= stats["dark_steps"] <= stats["steps"]
    assert "span_bins" not in (out / "result.json").read_text()


def test_load_result_reads_run_meta_without_dark_steps(tmp_path):
    # run_meta.json files written before the dark step count load as 0
    cfg = write_fixture_config(tmp_path)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    meta_path = out / "run_meta.json"
    meta = json.loads(meta_path.read_text())
    stats = meta["stats"]
    del stats["dark_steps"]
    meta_path.write_text(json.dumps(meta))
    loaded = load_result(str(out)).stats
    assert loaded.dark_steps == 0
    assert dataclasses.asdict(loaded) == {**stats, "dark_steps": 0}


def test_save_result_records_its_time_in_run_meta_written_last(tmp_path):
    cfg = write_fixture_config(tmp_path)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    assert 0.0 < meta["save_s"] < 60.0
    assert "save_s" not in (out / "result.json").read_text()
    last = (out / "run_meta.json").stat().st_mtime_ns
    assert all(p.stat().st_mtime_ns <= last for p in out.iterdir()
               if p.name not in ("run_meta.json", "plan.json"))


def test_cmd_simulate_missing_trace_exits_nonzero(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"trace": {"path": "nope.csv"},
                               "app": {"preset": "TMP1"}}))
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2


def test_cmd_profile_theta_oracle(tmp_path):
    cfg = write_fixture_config(tmp_path)
    out = tmp_path / "p"
    assert main(["profile", "--config", str(cfg), "--out", str(out)]) == 0
    prof = json.loads((out / "profile.json").read_text())
    assert prof["theta_profiling_bytes"] == 2160
    assert prof["t_profiling_s"] == 3600.0


def test_cmd_profile_too_short_errors(tmp_path):
    cfg = write_fixture_config(tmp_path, extra={"profile": {"duration_s": 1.0}})
    assert main(["profile", "--config", str(cfg), "--out",
                 str(tmp_path / "p")]) == 2


def test_cmd_plan_max_and_explicit(tmp_path):
    cfg = write_fixture_config(tmp_path)
    out = tmp_path / "plan_max"
    assert main(["plan", "--config", str(cfg), "--out", str(out),
                 "--s-tp", "max"]) == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["s_tp"] == 3
    assert plan["s_f"] == pytest.approx(3.4, abs=0.01)
    assert plan["binding"] == "schedulability"

    out1 = tmp_path / "plan_one"
    assert main(["plan", "--config", str(cfg), "--out", str(out1),
                 "--s-tp", "1"]) == 0
    plan1 = json.loads((out1 / "plan.json").read_text())
    assert plan1["s_f"] == pytest.approx(1.0)

    # infeasible target names the binding constraint
    code = main(["plan", "--config", str(cfg), "--out",
                 str(tmp_path / "plan_bad"), "--s-tp", "50"])
    assert code == 2


def test_cmd_plan_reuses_profile_file(tmp_path):
    cfg = write_fixture_config(tmp_path)
    pdir = tmp_path / "p"
    main(["profile", "--config", str(cfg), "--out", str(pdir)])
    out = tmp_path / "plan"
    assert main(["plan", "--config", str(cfg), "--out", str(out),
                 "--profile", str(pdir / "profile.json"), "--s-tp", "2"]) == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["s_tp"] == 2.0


@pytest.mark.parametrize("s_tp", ["nan", "inf"])
def test_cmd_plan_rejects_a_non_finite_s_tp(tmp_path, capsys, s_tp):
    cfg = write_fixture_config(tmp_path)
    assert main(["plan", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--s-tp", s_tp]) == 2
    assert (f"PlanError: s_tp must be a finite number >= 1; got {s_tp}"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["p_active_avg_w", "p_idle_avg_w",
                                 "t_active_s", "t_app_period_s",
                                 "t_profiling_s"])
def test_cmd_plan_rejects_a_nan_profile_field(tmp_path, capsys, key):
    cfg = write_fixture_config(tmp_path)
    profile = {"p_active_avg_w": 2e-3, "p_idle_avg_w": 1e-4,
               "t_active_s": 1.0, "t_app_period_s": 20.0,
               "theta_profiling_bytes": 1200, "t_profiling_s": 3600.0,
               key: math.nan}
    (tmp_path / "profile.json").write_text(json.dumps(profile))
    assert main(["plan", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--profile", str(tmp_path / "profile.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: PlanError: ") and key.rsplit("_", 1)[0] in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("theta", [-5, 1.5, math.nan])
def test_cmd_plan_rejects_a_malformed_theta_profiling(tmp_path, capsys, theta):
    cfg = write_fixture_config(tmp_path)
    profile = {"p_active_avg_w": 2e-3, "p_idle_avg_w": 1e-4,
               "t_active_s": 1.0, "t_app_period_s": 20.0,
               "theta_profiling_bytes": theta, "t_profiling_s": 3600.0}
    (tmp_path / "profile.json").write_text(json.dumps(profile))
    assert main(["plan", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--profile", str(tmp_path / "profile.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: PlanError: ") and "theta_profiling" in err
    assert not (tmp_path / "o").exists()


PROFILE_FILE = {"p_active_avg_w": 2e-3, "p_idle_avg_w": 1e-4,
                "t_active_s": 1.0, "t_app_period_s": 20.0,
                "theta_profiling_bytes": 1200, "t_profiling_s": 3600.0}


@pytest.mark.parametrize("key", sorted(PROFILE_FILE))
def test_cmd_plan_names_a_key_the_profile_file_lacks(tmp_path, capsys, key):
    cfg = write_fixture_config(tmp_path)
    profile = {k: v for k, v in PROFILE_FILE.items() if k != key}
    (tmp_path / "profile.json").write_text(json.dumps(profile))
    assert main(["plan", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--profile", str(tmp_path / "profile.json")]) == 2
    assert (f"error: PlanError: profile has no '{key}'"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_config_hash_reaches_every_result_file(tmp_path):
    cfg = write_fixture_config(tmp_path)
    want = load_config(str(cfg)).hash
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "s")]) == 0
    assert main(["profile", "--config", str(cfg), "--out",
                 str(tmp_path / "p")]) == 0
    assert main(["plan", "--config", str(cfg), "--out", str(tmp_path / "q"),
                 "--profile", str(tmp_path / "p" / "profile.json")]) == 0
    for path in ("s/result.json", "s/plan.json", "p/profile.json",
                 "q/plan.json"):
        payload = json.loads((tmp_path / path).read_text())
        assert payload["config_hash"] == want, path
    assert "run_id" not in (tmp_path / "s" / "result.json").read_text()


def test_cmd_compare_self_is_zero_error(tmp_path):
    cfg = write_fixture_config(tmp_path)
    out = tmp_path / "base"
    main(["simulate", "--config", str(cfg), "--out", str(out)])
    rep_dir = tmp_path / "cmp"
    assert main(["compare", "--baseline", str(out), "--scaled", str(out),
                 "--plan", str(out / "plan.json"), "--out", str(rep_dir),
                 "--window", "60"]) == 0
    rep = json.loads((rep_dir / "report.json").read_text())
    assert rep["throughput_error"] == 0.0
    assert rep["ape_raw"]["epsilon"] == 0.0
    assert rep["ape_dtw"]["epsilon"] == 0.0
    assert (rep_dir / "mismatch_spans.csv").exists()


def _sweep_config(tmp_path, caps, sis, workers=1):
    return write_fixture_config(
        tmp_path,
        app_block={"preset": "PARKING"},
        k_mpp=1e-4,
        extra={
            "events": {"parking": {"opening": [9, 20], "peak_h": 14,
                                   "n_events_per_day": 40, "days": 1,
                                   "seed": 5}},
            "plan": {"mode": "st_sp", "s_tp": 5, "s_i": 1.0},
            "sweep": {"capacitance": caps, "s_i": sis, "workers": workers},
        })


def test_cmd_sweep_single_cell_matches_simulate(tmp_path):
    cfg = _sweep_config(tmp_path, [0.5], [0.05])
    sweep_out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(sweep_out)]) == 0
    cell_dirs = [d for d in os.listdir(sweep_out) if d.startswith("cell_")]
    assert len(cell_dirs) == 1
    cell = load_result(str(sweep_out / cell_dirs[0]))

    # standalone simulate with the same electrical cell configuration
    raw = json.loads(cfg.read_text())
    raw["ess"]["storage"]["capacitance"] = 0.5
    raw["plan"]["s_i"] = 0.05
    solo_cfg = tmp_path / "solo.json"
    solo_cfg.write_text(json.dumps(raw))
    solo_out = tmp_path / "solo"
    assert main(["simulate", "--config", str(solo_cfg), "--out",
                 str(solo_out)]) == 0
    solo = load_result(str(solo_out))
    assert solo.throughput_bytes == cell.throughput_bytes
    assert solo.events_detected_at_event == cell.events_detected_at_event
    np.testing.assert_array_equal(solo.activity.on_off, cell.activity.on_off)


def test_cmd_sweep_worker_count_invariant(tmp_path):
    cfg = _sweep_config(tmp_path, [0.3, 1.0], [0.03, 0.08])
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w2"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1),
                 "--workers", "1"]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2),
                 "--workers", "2"]) == 0
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    assert (out1 / "heatmap.csv").read_bytes() == (out2 / "heatmap.csv").read_bytes()
    # Each cell's result file records the config hash, whichever process
    # wrote it.
    want = load_config(str(cfg)).hash
    for out in (out1, out2):
        cells = sorted(out.glob("cell_*/result.json"))
        assert len(cells) == 4
        for path in cells:
            assert json.loads(path.read_text())["config_hash"] == want, path


def test_cmd_sweep_isolates_cell_failures(tmp_path, capsys):
    cfg = _sweep_config(tmp_path, [-1.0, 0.5], [0.05])  # first cell invalid
    out = tmp_path / "sweepfail"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert "error" in lines[1]
    assert ",ok," in lines[2]


def test_cmd_sweep_stops_on_a_programming_error(tmp_path, monkeypatch):
    """Only a cell's own invalid parameters make an error row; an exception
    of any other kind is a fault of the program and fails the sweep."""
    def broken(*args, **kwargs):
        raise IndexError("index 3 is out of bounds")

    monkeypatch.setattr(cli, "_run_experiment", broken)
    cfg = _sweep_config(tmp_path, [0.5], [0.05])
    assert main(["sweep", "--config", str(cfg), "--out",
                 str(tmp_path / "sweep")]) != 0


def test_cmd_sweep_summary_quotes_error_text(tmp_path):
    """A failed cell's message holds commas; summary.csv still parses."""
    sim = {"dt_quiescent": 0.2, "dt_active": 0.2}
    cfg = write_fixture_config(tmp_path, extra={
        "sim": sim, "sweep": {"capacitance": [0.5, 1.0], "s_i": [1.0]}})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    with pytest.raises(ConfigError) as exc:
        _resolution_guard(preset("TMP1"), SimConfig(**sim))
    want = f"ConfigError: {exc.value}"
    assert "," in want
    with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    assert all(len(row) == 11 for row in rows)
    header = rows[0]
    for row in rows[1:]:
        cell = dict(zip(header, row))
        assert cell["status"] == "error"
        assert cell["error"] == want


def test_cmd_stacks_renders(tmp_path, capsys):
    cfg = write_fixture_config(tmp_path)
    out = tmp_path / "res"
    main(["simulate", "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert main(["stacks", "--result", str(out), "--out",
                 str(tmp_path / "stack")]) == 0
    text = capsys.readouterr().out
    assert "harvest_input" in text
    assert (tmp_path / "stack" / "stack.csv").exists()


def test_cli_mode_flag_overrides_config(tmp_path):
    cfg = write_fixture_config(tmp_path, extra={
        "plan": {"mode": "realtime", "s_tp": 2, "s_i": 1.0}})
    out = tmp_path / "stup"
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--mode", "st-up"]) == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["mode"] == "st_up"
    assert plan["s_f"] == 1.0


PLAN_KEYS = ("mode", "s_tp", "s_f", "s_i", "binding")


def _plan_fields(path):
    plan = json.loads(path.read_text())
    return {k: plan[k] for k in PLAN_KEYS}


@pytest.mark.parametrize("mode, target, binding", [
    ("st_sp", "max", "schedulability"),
    ("st_sp", 2, "requested"),
    ("st_up", "max", "schedulability"),
    ("st_up", 2, "requested"),
])
def test_cmd_plan_and_simulate_resolve_the_same_plan(tmp_path, mode, target,
                                                     binding):
    cfg = write_fixture_config(tmp_path, extra={
        "plan": {"mode": mode, "s_tp": target, "s_i": 1.0}})
    assert main(["plan", "--config", str(cfg), "--out",
                 str(tmp_path / "plan")]) == 0
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "sim")]) == 0
    planned = _plan_fields(tmp_path / "plan" / "plan.json")
    assert planned == _plan_fields(tmp_path / "sim" / "plan.json")
    assert planned["mode"] == mode
    assert planned["s_tp"] == (3 if target == "max" else 2)
    assert planned["binding"] == binding
    if mode == "st_up":
        assert planned["s_f"] == 1.0


def test_infeasible_explicit_s_tp_exits_2_from_plan_and_simulate(tmp_path,
                                                                 capsys):
    cfg = write_fixture_config(tmp_path, extra={
        "plan": {"mode": "st_sp", "s_tp": 50, "s_i": 1.0}})
    capsys.readouterr()
    for command in ("plan", "simulate"):
        assert main([command, "--config", str(cfg), "--out",
                     str(tmp_path / command)]) == 2
        assert "schedulability" in capsys.readouterr().err
    assert not (tmp_path / "simulate" / "result.json").exists()


@pytest.mark.parametrize("row", ["60,nan", "60,inf", "inf,1"])
def test_cmd_simulate_rejects_non_finite_trace(tmp_path, row):
    cfg = write_fixture_config(tmp_path)
    (tmp_path / "trace.csv").write_text(f"0,0\n30,1\n{row}\n")
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("text", ["1.5,abc\n", "600\n900 , x, y\n"])
def test_cmd_simulate_rejects_event_line_with_extra_columns(tmp_path, capsys,
                                                            text):
    cfg = write_fixture_config(
        tmp_path, extra={"events": {"path": "events.csv"}})
    (tmp_path / "events.csv").write_text(text)
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2
    assert "expected 1 column" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", ["nan\n", "600\nnan\n", "inf\n"])
def test_cmd_simulate_rejects_non_finite_event_time(tmp_path, capsys, text):
    cfg = write_fixture_config(
        tmp_path, extra={"events": {"path": "events.csv"}})
    (tmp_path / "events.csv").write_text(text)
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2
    assert "TraceParseError" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("volts", [math.nan, math.inf, -1.0, 0.0])
def test_cmd_simulate_rejects_bad_supply_override(tmp_path, volts):
    cfg = write_fixture_config(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["sim"]["supply_override"] = volts
    cfg.write_text(json.dumps(raw))  # NaN and Infinity as Python's json spells them
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("block,key", [("storage", "capacitance"),
                                       ("harvester", "k_mpp"),
                                       ("converter", "v_on")])
def test_cmd_simulate_rejects_nan_model_parameter_before_simulating(
        tmp_path, monkeypatch, block, key):
    cfg = write_fixture_config(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["ess"].setdefault(block, {})[key] = math.nan
    cfg.write_text(json.dumps(raw))

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulation started")
    monkeypatch.setattr("ehsim.cli.simulate", no_simulation)
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["dt_active", "dt_quiescent", "aggregation_step",
                                 "max_extension_s"])
def test_cmd_simulate_rejects_nan_sim_parameter(tmp_path, capsys, key):
    cfg = write_fixture_config(tmp_path)
    raw = json.loads(cfg.read_text())
    raw["sim"][key] = math.nan
    cfg.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2
    assert f"ConfigError: {key}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cmd_simulate_rejects_an_unknown_event_time_unit(tmp_path, capsys):
    cfg = write_fixture_config(tmp_path, extra={
        "events": {"path": "events.csv", "time_unit": "ms"}})
    (tmp_path / "events.csv").write_text("1\n2\n")
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2
    assert "TraceError: unsupported time_unit 'ms'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, hint", [("pln", " (plan?)"), ("zzz", "")],
                         ids=["pln", "zzz"])
def test_unknown_config_block_exits_2_naming_it(tmp_path, capsys, key, hint):
    cfg = write_fixture_config(tmp_path, extra={key: {"mode": "st_sp"}})
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"error: ConfigError: {key}: unknown config block{hint}\n")
    assert not (tmp_path / "o").exists()


def test_readme_config_loads():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("```json\n", 1)[1].split("```")[0]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(block)
        cfg = load_config(path)
    build_ess(cfg)
    build_app(cfg)
    build_sim(cfg)


def test_cmd_compare_rejects_a_nan_window(tmp_path, capsys):
    cfg = write_fixture_config(tmp_path)
    out = tmp_path / "base"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["compare", "--baseline", str(out), "--scaled", str(out),
                 "--plan", str(out / "plan.json"), "--out",
                 str(tmp_path / "cmp"), "--window", "nan"]) == 2
    assert "MetricError: window must be 0, >= one step, or inf; got nan" \
        in capsys.readouterr().err
    assert not (tmp_path / "cmp").exists()


@pytest.fixture(scope="module")
def one_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("one_run")
    cfg = write_fixture_config(tmp)
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp / "res")]) == 0
    return cfg, tmp / "res"


# The flags each command does not read: argparse rejects them (exit 2)
# instead of running the command with them ignored.
_UNREAD_FLAGS = {"simulate": ("--workers",),
                 "profile": ("--seed", "--workers", "--mode"),
                 "plan": ("--seed", "--workers"),
                 "compare": ("--seed", "--workers", "--mode", "--profile"),
                 "stacks": ("--seed", "--workers", "--mode")}


@pytest.mark.parametrize("command, flag", [
    (c, f) for c, flags in _UNREAD_FLAGS.items() for f in flags])
def test_cli_rejects_a_flag_the_command_does_not_read(one_run, tmp_path,
                                                      capsys, command, flag):
    cfg, res = one_run
    inputs = {"compare": ["--baseline", str(res), "--scaled", str(res),
                          "--plan", str(res / "plan.json")],
              "stacks": ["--result", str(res)]}.get(
                  command, ["--config", str(cfg)])
    value = {"--seed": "4", "--workers": "9", "--mode": "st-sp",
             "--profile": "profile.json"}[flag]
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, "--out", str(tmp_path / "o"), flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _exit_output(run, capsys):
    with pytest.raises(SystemExit) as exc:
        run()
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv", [
    [cmd, "--help"] for cmd in ("simulate", "profile", "plan", "compare",
                                "sweep", "stacks")]
    + [["--help"], [], ["bogus", "--out", "o"], ["compare"]])
def test_cli_builds_only_the_invoked_command_with_the_same_output(
        argv, capsys, monkeypatch):
    # main adds the flags of the named command only; its help and the
    # usage errors read as the fully built parser's do
    monkeypatch.setenv("COLUMNS", "80")
    want = _exit_output(lambda: cli._build_parser().parse_args(argv), capsys)
    assert _exit_output(lambda: main(argv), capsys) == want
    assert want[0] in (0, 2) and (want[1] or want[2])


@pytest.mark.parametrize("key", ["mode", "s_tp", "s_f", "s_i",
                                 "profile.p_idle_avg_w"])
def test_cmd_compare_names_a_key_the_plan_file_lacks(one_run, tmp_path,
                                                     capsys, key):
    _, res = one_run
    plan = {"mode": "st_sp", "s_tp": 2.0, "s_f": 2.2, "s_i": 1.0,
            "binding": "requested", "profile": dict(PROFILE_FILE)}
    *block, name = key.split(".")
    del (plan[block[0]] if block else plan)[name]
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    capsys.readouterr()
    assert main(["compare", "--baseline", str(res), "--scaled", str(res),
                 "--plan", str(tmp_path / "plan.json"), "--out",
                 str(tmp_path / "o")]) == 2
    what = block[0] if block else "plan"
    assert (f"error: PlanError: {what} has no '{name}'"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()
