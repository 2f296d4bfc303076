import functools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rescale_oracle
from ehsim.app import PHASES, PRESETS, ActivityProfile, AppSpec, preset
from ehsim.engine import SimConfig, simulate
from ehsim.scaling import (
    PlanError, PowerProfile, ScalingPlan, build_experiment, compute_sf,
    max_speedup, plan_run, predict_throughput, profile_application,
    rescale_activity, scaled_average_power,
)
from ehsim.ess import EssConfig, StorageModel
from ehsim.traces import EventTrace, IrradianceTrace, synthetic_solar_trace


def test_profile_hand_oracle():
    # flat 2 mW for 1 s of each 20 s period, 0.1 mW sleep
    app = AppSpec(t_sample_period=20.0, t_sample=0.6, t_comm=0.4,
                  n_per_comm=1, p_sample=2e-3, p_comm=2e-3, p_idle=1e-4,
                  name="hand")
    prof = profile_application(app, 3600.0)
    assert prof.p_active_avg == pytest.approx(1e-4, rel=1e-3)
    assert prof.p_idle_avg == pytest.approx(9.5e-5, rel=1e-3)
    assert prof.t_active == pytest.approx(1.0)
    assert prof.t_app_period == pytest.approx(20.0)


def test_profile_zero_idle_power():
    app = AppSpec(t_sample_period=20.0, t_sample=0.6, t_comm=0.4,
                  p_sample=2e-3, p_comm=2e-3, p_idle=0.0)
    prof = profile_application(app, 600.0)
    assert prof.p_idle_avg == 0.0


def test_profile_deterministic():
    app = preset("PMS")
    a = profile_application(app, 1800.0)
    b = profile_application(app, 1800.0)
    assert a == b


# (p_active_avg, p_idle_avg, theta_profiling) of a one-hour profile at 3.3 V,
# recorded from the dedicated constant-supply loop that the engine's
# ideal-source supply model replaced.
RECORDED_PROFILES = {
    "TMP1": (0.00234999999999991, 0.00033569378333338224, 2160),
    "TMP2": (0.0016749999999999103, 0.0007114330708335541, 72),
    "IMU": (0.0009000000000000135, 0.000517424378055586, 2160),
    "PMS": (0.00059500000000001, 0.0004908726686111878, 720),
    "TOF": (2.0666666666666673e-05, 5.276530452503609e-06, 360),
    "BIO": (0.0002620000000000002, 1.7435948593055154e-05, 5760),
    "PARKING": (1.066666666666667e-05, 5.280050652503607e-06, 0),
}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_profile_presets_match_recorded_bit_for_bit(name):
    app = preset(name)
    p_active, p_idle, theta = RECORDED_PROFILES[name]
    assert profile_application(app) == PowerProfile(
        p_active_avg=p_active, p_idle_avg=p_idle, t_active=app.t_active,
        t_app_period=app.t_app_period, theta_profiling=theta,
        t_profiling=3600.0)


def test_profile_requires_one_period():
    with pytest.raises(PlanError):
        profile_application(preset("TMP1"), 1.0)


@pytest.mark.parametrize("theta", [-5, 1.5, math.nan, math.inf, True, "12"])
def test_power_profile_rejects_a_malformed_theta(theta):
    with pytest.raises(PlanError, match="theta_profiling"):
        hand_profile(theta=theta)


def test_power_profile_stores_a_whole_theta_as_int():
    for theta in (1200, 1200.0, np.int64(1200), np.float64(1200.0)):
        stored = hand_profile(theta=theta).theta_profiling
        assert type(stored) is int and stored == 1200


def hand_profile(pa=2e-3, pi=1e-4, ta=1.0, T=20.0, theta=1200):
    return PowerProfile(p_active_avg=pa, p_idle_avg=pi, t_active=ta,
                        t_app_period=T, theta_profiling=theta,
                        t_profiling=3600.0)


def test_compute_sf_collapses_without_idle_power():
    prof = hand_profile(pi=0.0)
    for s_tp in (1.0, 2.5, 7.0):
        assert compute_sf(prof, s_tp) == pytest.approx(s_tp, rel=1e-12)


def test_compute_sf_identity_at_one():
    assert compute_sf(hand_profile(), 1.0) == pytest.approx(1.0, rel=1e-12)


def test_compute_sf_matches_roundtrip_oracle():
    prof = hand_profile()
    s_f = compute_sf(prof, 3.0)
    assert s_f == pytest.approx(3.1055, abs=1e-4)
    # plugging back: scaled average power equals 3 x (Pa + Pi) = 6.3 mW
    assert scaled_average_power(prof, s_f) == pytest.approx(
        3.0 * (2e-3 + 1e-4), rel=1e-12)


def test_compute_sf_degenerate_denominator():
    prof = hand_profile(pa=1e-4, pi=5e-3, ta=10.0, T=20.0)
    with pytest.raises(PlanError):
        compute_sf(prof, 2.0)


@given(pa=st.floats(min_value=1e-5, max_value=1.0),
       ratio=st.floats(min_value=0.0, max_value=0.5),
       duty=st.floats(min_value=0.01, max_value=0.5),
       T=st.floats(min_value=1.0, max_value=600.0),
       s_tp=st.floats(min_value=1.0, max_value=12.0))
@settings(max_examples=300, deadline=None)
def test_sf_roundtrip_property(pa, ratio, duty, T, s_tp):
    prof = PowerProfile(p_active_avg=pa, p_idle_avg=pa * ratio,
                        t_active=duty * T, t_app_period=T,
                        theta_profiling=1, t_profiling=T)
    try:
        s_f = compute_sf(prof, s_tp)
    except PlanError:
        return
    target = s_tp * (prof.p_active_avg + prof.p_idle_avg)
    assert abs(scaled_average_power(prof, s_f) - target) <= 1e-9 * target
    # monotone in the time/power factor
    if s_tp >= 1.5:
        assert compute_sf(prof, s_tp) > compute_sf(prof, s_tp - 0.5) - 1e-12


def test_max_speedup_back_to_back_app():
    # tasks already run back to back: the bound T_S/(t_S+t_C) is 1
    app = AppSpec(t_sample_period=1.5, t_sample=1.0, t_comm=0.5,
                  p_sample=2e-3, p_comm=2e-3, p_idle=0.0)
    prof = PowerProfile(p_active_avg=2e-3, p_idle_avg=0.0, t_active=1.5,
                        t_app_period=1.5000001, theta_profiling=1,
                        t_profiling=100.0)
    s_tp, s_f, binding = max_speedup(prof, app)
    assert (s_tp, s_f) == (1.0, 1.0)
    assert binding == "schedulability"


def test_max_speedup_matches_tuned_presets():
    expectations = {"TMP1": (3, 3.4), "TMP2": (2, 2.6),
                    "IMU": (7, 10.9), "PMS": (6, 10.9)}
    for name, (want_tp, want_f) in expectations.items():
        app = preset(name)
        prof = profile_application(app, 3600.0)
        s_tp, s_f, binding = max_speedup(prof, app)
        assert s_tp == want_tp, name
        assert s_f == pytest.approx(want_f, abs=0.05), name
        assert binding == "schedulability"


def test_max_speedup_env_cap_binds_before_schedulability():
    app = preset("TOF")
    prof = profile_application(app, 3600.0)
    # without a cap the schedulability bound is far away for this preset
    s_tp_free, _, _ = max_speedup(prof, app)
    assert s_tp_free > 10
    s_tp, s_f, binding = max_speedup(prof, app, env_power_cap=220.0,
                                     peak_input=20.5)
    assert s_tp == 10
    assert s_f == pytest.approx(12.3, abs=0.05)
    assert binding == "env_power_cap"


# Per preset: s_i, the "max" plan's s_tp and s_f, and the s_f of s_tp 2, as
# `ehsim plan --mode M --s-tp T` wrote them to plan.json for a config that
# holds only {"app": {"preset": name}}, when the mode rules lived in the CLI.
# st_up runs the same s_tp at s_f 1; no preset makes s_tp 2 infeasible.
PRESET_PLANS = {
    "TMP1": (0.02, 3.0, 3.3999743502911657, 2.199987175145583),
    "TMP2": (0.015, 2.0, 2.5999699257727644, 2.5999699257727644),
    "IMU": (0.015, 7.0, 10.899911614782381, 2.6499852691303967),
    "PMS": (0.015, 6.0, 10.899994549032902, 2.979998909806581),
    "TOF": (0.02, 1138.0, 1428.549592301877, 2.255540538524078),
    "BIO": (0.03, 562.0, 599.4007086445325, 2.0666679298476516),
    "PARKING": (0.06, 955.0, 1427.258064501592, 2.4950294177165535),
}


@functools.cache
def _preset_profile(name):
    return profile_application(preset(name), 3600.0)


@pytest.mark.parametrize("target", ["max", 2])
@pytest.mark.parametrize("mode", ["st_sp", "st_sp_sn", "st_up"])
@pytest.mark.parametrize("name", sorted(PRESET_PLANS))
def test_plan_run_reproduces_the_cli_plans(name, mode, target):
    s_i, tp_max, sf_max, sf_2 = PRESET_PLANS[name]
    calls = []

    def profile():
        calls.append(name)
        return _preset_profile(name)

    plan, used = plan_run(mode, preset(name), profile, s_i=s_i, s_tp=target)
    s_tp, s_f = (tp_max, sf_max) if target == "max" else (2.0, sf_2)
    assert plan.as_dict() == {
        "mode": mode, "s_tp": s_tp, "s_f": 1.0 if mode == "st_up" else s_f,
        "s_i": s_i,
        "binding": "schedulability" if target == "max" else "requested"}
    # an explicit st_up target is the one scaled plan that needs no profile
    needs_profile = mode != "st_up" or target == "max"
    assert len(calls) == needs_profile
    assert used is (_preset_profile(name) if needs_profile else None)


@pytest.mark.parametrize("name", sorted(PRESET_PLANS))
def test_max_speedup_keeps_the_preset_factors(name):
    _, s_tp, s_f, _ = PRESET_PLANS[name]
    assert max_speedup(_preset_profile(name), preset(name)) == (
        s_tp, s_f, "schedulability")


def _max_speedup_by_search(profile, spec, env_power_cap=None, peak_input=None):
    """The factor-by-factor search max_speedup bisects, up to its limit."""
    best, s_tp = (1.0, 1.0), 1.0
    while s_tp < 1e6:
        try:
            s_f = compute_sf(profile, s_tp)
        except PlanError:
            return (*best, "degenerate_profile")
        if s_f > spec.max_sf:
            return (*best, "schedulability")
        if (env_power_cap is not None
                and peak_input * s_tp > env_power_cap * (1 + 1e-12)):
            return (*best, "env_power_cap")
        best = (s_tp, s_f)
        s_tp += 1.0
    return (*best, "s_tp_limit")


@given(pa=st.floats(1e-6, 1e-1), pi=st.sampled_from([0.0, 1e-6, 1e-4, 1e-2]),
       ta=st.floats(0.01, 10.0), slack=st.floats(1.0001, 300.0),
       burst=st.floats(0.01, 10.0), bound=st.floats(1.0, 2000.0),
       cap=st.one_of(st.none(), st.floats(-5.0, 3000.0)),
       peak=st.floats(-2.0, 50.0))
@settings(max_examples=200, deadline=None)
def test_max_speedup_matches_the_factor_by_factor_search(pa, pi, ta, slack,
                                                         burst, bound, cap,
                                                         peak):
    profile = PowerProfile(p_active_avg=pa, p_idle_avg=pi, t_active=ta,
                           t_app_period=ta * slack, theta_profiling=1,
                           t_profiling=3600.0)
    spec = AppSpec(t_sample_period=burst * bound, t_sample=burst / 2,
                   t_comm=burst / 2)
    assert max_speedup(profile, spec, cap, peak_input=peak) == \
        _max_speedup_by_search(profile, spec, cap, peak)


def test_max_speedup_reports_its_limit_without_searching_to_it():
    # no idle power, so s_f == s_tp, and max_sf is 5e6: every factor the
    # search tries is feasible
    spec = AppSpec(t_sample_period=1e7, t_sample=1.0, t_comm=1.0, p_idle=0.0)
    profile = PowerProfile(p_active_avg=1e-3, p_idle_avg=0.0, t_active=2.0,
                           t_app_period=1e7, theta_profiling=0,
                           t_profiling=1e7)
    t0 = time.perf_counter()
    found = max_speedup(profile, spec)
    assert time.perf_counter() - t0 < 0.01
    assert found == (999999.0, 999999.0, "s_tp_limit")


def test_plan_run_realtime_is_unscaled_and_never_profiles():
    def profile():
        raise AssertionError("realtime needs no profile")

    plan, used = plan_run("realtime", preset("TMP1"), profile, s_i=0.5,
                          s_tp=3)
    assert plan == ScalingPlan(mode="realtime", s_i=0.5) and used is None


def test_plan_run_rejects_a_target_past_the_schedulability_bound():
    app = preset("TMP1")
    with pytest.raises(PlanError, match="schedulability bound 4$"):
        plan_run("st_sp", app, lambda: _preset_profile("TMP1"), s_tp=50)
    # st_up leaves the application unscaled, so no bound applies
    plan, _ = plan_run("st_up", app, lambda: _preset_profile("TMP1"), s_tp=50)
    assert (plan.s_tp, plan.s_f) == (50.0, 1.0)


def test_profile_and_plan_dicts_round_trip():
    prof = _preset_profile("PMS")
    assert PowerProfile.from_dict(prof.as_dict()) == prof
    plan = ScalingPlan(mode="st_sp", s_tp=6.0, s_f=10.9, s_i=0.015,
                       binding="schedulability")
    assert ScalingPlan.from_dict(plan.as_dict()) == plan
    d = plan.as_dict()
    del d["binding"]
    assert ScalingPlan.from_dict(d) == replace(plan, binding="")


def test_plan_validation():
    with pytest.raises(PlanError):
        ScalingPlan(mode="st_up", s_tp=2.0, s_f=2.0)
    with pytest.raises(PlanError):
        ScalingPlan(mode="realtime", s_tp=2.0)
    with pytest.raises(PlanError):
        ScalingPlan(mode="warp9", s_tp=2.0)


def test_build_experiment_realtime_scales_amplitude_only():
    tr = synthetic_solar_trace(days=1, cadence_s=600)
    app = preset("TMP1")
    cfg = SimConfig()
    plan = ScalingPlan(mode="realtime", s_i=2.0)
    tr2, ev2, app2, cfg2 = build_experiment(plan, tr, None, app, cfg)
    np.testing.assert_array_equal(tr2.t, tr.t)
    np.testing.assert_allclose(tr2.g, tr.g * 2.0)
    assert app2 == app
    assert ev2 is None
    assert cfg2 is cfg


@pytest.mark.parametrize("mode, s_tp, s_f, g_scale", [
    ("realtime", 1.0, 1.0, 0.5),   # g * s_i
    ("st_up", 2.0, 1.0, 0.5),      # g * s_i
    ("st_sp", 2.0, 2.5, 1.0),      # g * s_i * s_tp
    ("st_sp_sn", 2.0, 2.5, 1.0),
], ids=["realtime", "st_up", "st_sp", "st_sp_sn"])
def test_build_experiment_mode_definitions(mode, s_tp, s_f, g_scale):
    tr = IrradianceTrace(t=np.array([0.0, 100.0]), g=np.array([0.0, 200.0]))
    ev = EventTrace(t=np.array([10.0, 20.0]))
    app = preset("TMP1")
    plan = ScalingPlan(mode=mode, s_tp=s_tp, s_f=s_f, s_i=0.5)
    tr2, ev2, app2, _ = build_experiment(plan, tr, ev, app, SimConfig())
    np.testing.assert_array_equal(tr2.t, tr.t / s_tp)
    np.testing.assert_array_equal(tr2.g, tr.g * g_scale)
    np.testing.assert_array_equal(ev2.t, ev.t / s_tp)    # co-scaled
    assert app2.t_sample_period == app.t_sample_period / s_f


def test_build_experiment_st_up_leaves_app_unscaled():
    tr = synthetic_solar_trace(days=1, cadence_s=600)
    ev = EventTrace(t=np.array([1000.0, 2000.0]))
    app = preset("TMP1")
    cfg = SimConfig()
    plan = ScalingPlan(mode="st_up", s_tp=4.0, s_i=0.5)
    tr2, ev2, app2, cfg2 = build_experiment(plan, tr, ev, app, cfg)
    assert app2 == app
    assert cfg2 is cfg
    np.testing.assert_allclose(tr2.t, tr.t / 4.0)
    np.testing.assert_allclose(tr2.g, tr.g * 0.5)  # amplitude: s_i only
    np.testing.assert_allclose(ev2.t, ev.t / 4.0)


def test_build_experiment_st_sp_preserves_trace_integral():
    tr = synthetic_solar_trace(days=1, cadence_s=600)
    app = preset("TMP1")
    cfg = SimConfig()
    plan = ScalingPlan(mode="st_sp", s_tp=2.0, s_f=2.2, s_i=1.0)
    tr_rt, _, _, _ = build_experiment(ScalingPlan(mode="realtime"), tr, None,
                                      app, cfg)
    tr_sp, _, app_sp, _ = build_experiment(plan, tr, None, app, cfg)
    assert abs(tr_sp.integral() - tr_rt.integral()) <= 1e-9 * tr_rt.integral()
    assert app_sp.t_sample_period == pytest.approx(20.0 / 2.2)


def test_build_experiment_keeps_relative_event_position():
    tr = synthetic_solar_trace(days=1, cadence_s=600)
    ev = EventTrace(t=np.array([1000.0, 43000.0]))
    plan = ScalingPlan(mode="st_up", s_tp=6.0)
    tr2, ev2, _, _ = build_experiment(plan, tr, ev, preset("TMP1"), SimConfig())
    np.testing.assert_allclose(ev.t / tr.duration, ev2.t / tr2.duration,
                               rtol=1e-12)


class _FakeResult:
    def __init__(self, bytes_, on_time):
        self.throughput_bytes = bytes_
        self.on_time_s = on_time


def test_predict_throughput_identity_and_eq_arithmetic():
    prof = PowerProfile(p_active_avg=1e-3, p_idle_avg=0.0, t_active=1.0,
                        t_app_period=20.0, theta_profiling=1200,
                        t_profiling=3600.0)
    rt = ScalingPlan(mode="realtime")
    assert predict_throughput(rt, _FakeResult(500, 100.0), prof) == 500
    one = ScalingPlan(mode="st_sp", s_tp=1.0, s_f=1.0)
    assert predict_throughput(one, _FakeResult(0, 3600.0), prof) \
        == pytest.approx(1200.0)
    ten = ScalingPlan(mode="st_sp", s_tp=10.0, s_f=10.0)
    assert predict_throughput(ten, _FakeResult(0, 360.0), prof) \
        == pytest.approx(1200.0)
    up = ScalingPlan(mode="st_up", s_tp=3.0)
    assert predict_throughput(up, _FakeResult(100, 0.0)) == pytest.approx(300.0)


def _tmp1_day_activity():
    tr = synthetic_solar_trace(days=1, peak=20.0, cadence_s=600)
    ess = EssConfig.ideal(capacitance=0.5)
    res = simulate(tr, None, ess, preset("TMP1"), SimConfig(dt_quiescent=0.2))
    return res.activity


def test_rescale_identity():
    act = _tmp1_day_activity()
    assert rescale_activity(act, 1.0) is act


def test_rescale_stretches_and_conserves():
    act = _tmp1_day_activity()
    s = 3.0
    out = rescale_activity(act, s)
    assert out.step_len == act.step_len
    assert len(out) == len(act) * s
    # on-time re-binned within one bin of the stretched total
    on_scaled = act.on_off.sum() * act.step_len * s
    on_out = out.on_off.sum() * out.step_len
    assert abs(on_out - on_scaled) <= s * out.step_len + 1e-9


def test_fractional_rescale_binning():
    act = _tmp1_day_activity()
    out = rescale_activity(act, 2.5)
    assert len(out) == int(round(len(act) * 2.5))


# Includes factors whose output bins run past the input's end
# (round(n * s_tp) > n * s_tp) and one just above 1.
_ORACLE_S_TP = (1.5, 2.0, 2.5, 3.0, 7 / 3, 10.0, 432.5, 1 + 1e-9)


@st.composite
def rescale_cases(draw):
    """(profile, s_tp): run-structured or i.i.d. on/off bits and labels."""
    s_tp = draw(st.sampled_from(_ORACLE_S_TP))
    longest = min(5000, int(250_000 // s_tp))  # keeps the oracle's arrays small
    past_end = [n for n in range(1, longest + 1) if round(n * s_tp) > n * s_tp]
    if past_end and draw(st.booleans()):
        n = draw(st.sampled_from(past_end))
    else:
        n = draw(st.integers(1, longest))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        run = draw(st.sampled_from([3, 40, 1000]))
        on = np.repeat(np.arange(n) % 2 == draw(st.integers(0, 1)),
                       rng.integers(1, run, size=n))[:n]
        labels = np.repeat(rng.integers(0, len(PHASES), size=n),
                           rng.integers(1, run, size=n))[:n]
    else:
        on = rng.random(n) < draw(st.floats(0.0, 1.0))
        labels = rng.integers(0, len(PHASES), size=n)
    return ActivityProfile(step_len=0.2, on_off=on, labels=labels), s_tp


@given(case=rescale_cases())
@settings(max_examples=200, deadline=None)
def test_rescale_activity_matches_bin_level_oracle(case):
    act, s_tp = case
    got = rescale_activity(act, s_tp)
    want = rescale_oracle.rescale_activity(act, s_tp)
    assert got.step_len == want.step_len
    assert got.on_off.dtype == want.on_off.dtype
    assert got.labels.dtype == want.labels.dtype
    np.testing.assert_array_equal(got.on_off, want.on_off)
    np.testing.assert_array_equal(got.labels, want.labels)


def test_build_experiment_turns_skip_nights_on_for_st_sp_sn_only():
    tr = synthetic_solar_trace(days=1, cadence_s=600)
    app = preset("TMP1")
    cfg = SimConfig(dt_quiescent=0.2)
    plan = ScalingPlan(mode="st_sp_sn", s_tp=2.0, s_f=2.0)
    assert build_experiment(plan, tr, None, app, cfg)[3] == SimConfig(
        dt_quiescent=0.2, skip_nights=True)
    for plan in (ScalingPlan(), ScalingPlan(mode="st_sp", s_tp=2.0, s_f=2.0),
                 ScalingPlan(mode="st_up", s_tp=2.0)):
        assert build_experiment(plan, tr, None, app, cfg)[3] is cfg


def test_st_sp_sn_plan_equals_run_with_skip_nights():
    trace = synthetic_solar_trace(days=1, peak=800.0, cadence_s=600)
    app = preset("TMP1")
    ess = EssConfig(storage=StorageModel(capacitance=2.2, esr=0.5,
                                         leak_resistance=1e6))
    cfg = SimConfig(dt_quiescent=0.2)
    plan = ScalingPlan(mode="st_sp_sn", s_tp=3.0, s_f=3.4, s_i=0.02)
    tr_x, _, app_x, cfg_x = build_experiment(plan, trace, None, app, cfg)
    via_plan = simulate(tr_x, None, ess, app_x, cfg_x)
    direct = simulate(tr_x, None, ess, app_x, replace(cfg, skip_nights=True))
    assert via_plan.ledger.as_dict() == direct.ledger.as_dict()
    for name in ("throughput_bytes", "boots", "on_time_s", "duration_s",
                 "v_cap_final", "converter_on_final"):
        assert getattr(via_plan, name) == getattr(direct, name), name
    for name in ("voltage_t", "voltage_v", "event_log"):
        np.testing.assert_array_equal(getattr(via_plan, name),
                                      getattr(direct, name))
    np.testing.assert_array_equal(via_plan.activity.on_off,
                                  direct.activity.on_off)
    np.testing.assert_array_equal(via_plan.activity.labels,
                                  direct.activity.labels)
    for name in ("harvest", "mppt_loss", "converter_loss", "soc_energy",
                 "sensor_energy", "storage_delta"):
        np.testing.assert_array_equal(getattr(via_plan.profile, name),
                                      getattr(direct.profile, name))
