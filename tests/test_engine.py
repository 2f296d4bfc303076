import hashlib
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ehsim.app import PHASE_INDEX, PRESETS, AppSpec, preset
from ehsim.cli import _resolve_plan
from ehsim.config import (build_app, build_ess, build_sim, load_config,
                          load_events, load_trace)
from ehsim import engine
from ehsim.engine import (
    ClosureError, ConfigError, EnergyLedger, SimConfig, finalize_stack,
    simulate,
)
from ehsim.ess import (ConverterModel, EssConfig, HarvesterModel, MpptModel,
                       StorageModel)
from ehsim.scaling import build_experiment
from ehsim.traces import EventTrace, IrradianceTrace, synthetic_solar_trace
import span_oracle
from test_engine_differential import _make_inputs


def flat_trace(duration, g, cadence=60.0):
    n = int(duration / cadence) + 1
    return IrradianceTrace(t=np.arange(n) * cadence,
                           g=np.full(n, float(g)))


def small_app(**kw):
    base = dict(t_sample_period=10.0, t_sample=0.5, t_comm=0.3, n_per_comm=1,
                bytes_per_comm=12, p_sample=5e-3, p_comm=8e-3, p_idle=2e-4,
                name="small")
    base.update(kw)
    return AppSpec(**base)


def test_zero_irradiance_never_turns_on():
    tr = flat_trace(3600.0, 0.0)
    ess = EssConfig(storage=StorageModel(v_init=0.75, leak_resistance=50e3))
    res = simulate(tr, None, ess, small_app(), SimConfig(dt_quiescent=0.2))
    assert res.throughput_bytes == 0
    assert res.boots == 0
    led = res.ledger
    assert led.harvest_input == 0.0
    sss = led.sss_by_activity
    assert sss["off"] > 0.0
    assert all(v == 0.0 for k, v in sss.items() if k != "off")
    assert len(res.activity) == 18000
    assert not res.activity.on_off.any()
    np.testing.assert_array_equal(res.activity.labels, PHASE_INDEX["off"])


def test_all_off_run_profile_is_off_in_every_bin():
    # 10 s dark with an empty store: 50 bins of 0.2 s, each off
    tr = IrradianceTrace(t=np.array([0.0, 10.0]), g=np.zeros(2))
    ess = EssConfig(storage=StorageModel(v_init=0.0))
    res = simulate(tr, None, ess, small_app(), SimConfig(dt_quiescent=0.2))
    assert res.boots == 0
    assert len(res.activity) == 50
    assert not res.activity.on_off.any()
    np.testing.assert_array_equal(res.activity.labels, PHASE_INDEX["off"])


def _profiled(duration, **app_kw):
    # ideal source: powered from t = 0, stopped at the trace end
    tr = IrradianceTrace(t=np.array([0.0, duration]), g=np.zeros(2))
    cfg = SimConfig(supply_override=3.3, dt_quiescent=0.2)
    return simulate(tr, None, None, small_app(**app_kw), cfg)


def test_bin_count_includes_partial_final_bin():
    assert len(_profiled(1.01).activity) == math.ceil(1.01 / 0.2)


def test_bin_on_off_follows_majority_rule():
    # powered for 0.08 s of the last 0.2 s bin: off; for 0.12 s: on
    assert _profiled(0.28).activity.on_off.tolist() == [True, False]
    assert _profiled(0.32).activity.on_off.tolist() == [True, True]


def test_bin_label_is_the_majority_phase():
    # the first bin splits between the boot and the first sampling burst
    assert _profiled(0.4, t_boot=0.12).activity.labels[0] == PHASE_INDEX["booting"]
    assert _profiled(0.4, t_boot=0.08).activity.labels[0] == PHASE_INDEX["sampling"]


def test_constant_supply_profiling_byte_count():
    tr = flat_trace(3600.0, 0.0)
    cfg = SimConfig(supply_override=3.3, dt_quiescent=0.2,
                    end_policy="hard_stop")
    res = simulate(tr, None, None, preset("TMP1"), cfg)
    assert res.throughput_bytes == 2160
    assert res.activity.on_off.all()


@pytest.mark.parametrize("end_policy", ["hard_stop", "drain_until_converter_off"])
def test_constant_supply_reactive_run_matches_recorded(end_policy):
    # Figures recorded from the dedicated constant-supply loop that the
    # ideal-source supply model replaced; they must hold bit for bit. The
    # irradiance changes every minute: the source ignores it, so its samples
    # clip no step, and the run stops at the trace end under either policy.
    t = np.arange(31) * 60.0
    t[1:-1] += 7.77  # samples off the aggregation grid
    tr = IrradianceTrace(t=t, g=(np.arange(31) * 37 % 11) * 50.0)
    ev = EventTrace(t=np.array([0.0, 100.05, 130.0, 359.93, 1000.0, 1700.01,
                                1800.0]))
    cfg = SimConfig(supply_override=3.3, dt_quiescent=0.2,
                    end_policy=end_policy)
    res = simulate(tr, ev, None, preset("PARKING"), cfg)
    assert res.throughput_bytes == 60
    assert res.duration_s == 1800.0
    # every event, the one stamped at the trace end included, is delivered
    # and finds the node powered
    np.testing.assert_array_equal(res.event_log, [
        [0.0, 1], [100.05, 1], [130.0, 1], [359.93, 1], [1000.0, 1],
        [1700.01, 1], [1800.0, 1]])
    assert len(res.activity) == 9000
    assert res.activity.on_off.all()
    labels = np.full(9000, PHASE_INDEX["idle"])
    labels[0] = PHASE_INDEX["communicating"]  # boot, sample, event report
    np.testing.assert_array_equal(res.activity.labels, labels)
    assert res.ledger.sss_by_activity == {
        "off": 0.0, "boot": 0.0004, "sampling_processing": 0.019200000000000002,
        "communicating": 0.005999999999999999, "backup_restore": 0.0,
        "idle": 0.009501847046999608}


def test_constant_supply_ledger_closes_on_the_source_energy():
    tr = flat_trace(3600.0, 0.0)
    cfg = SimConfig(supply_override=3.3, dt_quiescent=0.2,
                    end_policy="hard_stop")
    res = simulate(tr, None, None, preset("TMP1"), cfg)
    led = res.ledger
    # the source delivers exactly what the application consumes
    assert led.sss_total > 9.0
    assert abs(led.closure_error()) <= 1e-12 * led.sss_total
    assert led.initial_storage == led.storage_residual == 0.0
    assert led.mppt_loss == led.storage_loss == led.converter_loss == 0.0
    prof = res.profile
    np.testing.assert_array_equal(prof.storage_delta, 0.0)
    np.testing.assert_allclose(prof.harvest, prof.soc_energy + prof.sensor_energy,
                               rtol=1e-12, atol=0)
    # the source replaces the chain: a lossy one changes nothing
    lossy = EssConfig(storage=StorageModel(capacitance=0.1, esr=3.0,
                                           leak_resistance=1e3, v_init=0.0))
    again = simulate(tr, None, lossy, preset("TMP1"), cfg)
    assert again.ledger.as_dict() == res.ledger.as_dict()
    np.testing.assert_array_equal(again.profile.harvest, prof.harvest)


def test_ideal_configuration_conserves_energy():
    tr = synthetic_solar_trace(days=1, peak=8.0, cadence_s=300)
    ess = EssConfig.ideal(capacitance=1.0, k_mpp=1e-4)
    res = simulate(tr, None, ess, small_app(), SimConfig(dt_quiescent=0.2))
    led = res.ledger
    assert led.mppt_loss == 0.0
    assert led.storage_loss == 0.0
    assert led.converter_loss <= 1e-9  # floating-point wobble only
    total_in = led.harvest_input + led.initial_storage
    total_out = led.sss_total + led.storage_residual + led.converter_loss
    assert abs(total_in - total_out) <= 1e-6 * total_in


def test_determinism_bit_identical():
    tr = synthetic_solar_trace(days=1, peak=40.0, cadence_s=120)
    ev = EventTrace(t=np.array([10000.0, 30000.0, 55000.0]))
    ess = EssConfig(storage=StorageModel(capacitance=0.5, esr=1.0,
                                         leak_resistance=40e3))
    app = small_app(reactive=True)
    cfg = SimConfig(dt_quiescent=0.2)
    a = simulate(tr, ev, ess, app, cfg)
    b = simulate(tr, ev, ess, app, cfg)
    assert a.throughput_bytes == b.throughput_bytes
    assert a.ledger.closure_error() == b.ledger.closure_error()
    np.testing.assert_array_equal(a.voltage_v, b.voltage_v)
    np.testing.assert_array_equal(a.profile.storage_delta, b.profile.storage_delta)
    np.testing.assert_array_equal(a.activity.on_off, b.activity.on_off)


def test_multirate_matches_uniform_fine_stepping():
    tr = flat_trace(900.0, 500.0, cadence=30.0)
    app = preset("TMP1")
    ess = EssConfig(harvester=HarvesterModel(k_mpp=2e-5),
                    storage=StorageModel(capacitance=0.2, esr=1.0,
                                         leak_resistance=20e3, v_init=1.9))
    fine = simulate(tr, None, ess, app,
                    SimConfig(dt_active=1e-3, dt_quiescent=1e-3,
                              aggregation_step=0.2))
    adap = simulate(tr, None, ess, app,
                    SimConfig(dt_active=1e-3, dt_quiescent=0.1))
    assert abs(fine.throughput_bytes - adap.throughput_bytes) \
        <= 0.01 * fine.throughput_bytes
    lf, la = fine.ledger, adap.ledger
    scale = lf.total_input()
    for field in ("harvest_input", "mppt_loss", "storage_loss_leak",
                  "storage_loss_esr", "converter_loss", "storage_residual"):
        vf, va = getattr(lf, field), getattr(la, field)
        assert abs(vf - va) <= max(0.01 * abs(vf), 2e-3 * scale), field
    for key in lf.sss_by_activity:
        vf, va = lf.sss_by_activity[key], la.sss_by_activity[key]
        assert abs(vf - va) <= max(0.01 * abs(vf), 2e-3 * scale), key


def test_aggregation_profile_matches_run_totals():
    tr = synthetic_solar_trace(days=1, peak=30.0, cadence_s=120)
    ess = EssConfig(storage=StorageModel(capacitance=0.4, esr=0.8,
                                         leak_resistance=30e3))
    res = simulate(tr, None, ess, small_app(), SimConfig(dt_quiescent=0.2))
    led = res.ledger
    prof = res.profile
    tol = 1e-9 * max(led.total_input(), 1.0)
    assert abs(prof.harvest.sum() - led.harvest_input) <= tol
    assert abs(prof.mppt_loss.sum() - led.mppt_loss) <= tol
    assert abs(prof.converter_loss.sum() - led.converter_loss) <= tol
    assert abs(prof.soc_energy.sum() + prof.sensor_energy.sum()
               - led.sss_total) <= tol
    # residual handled at finalize: the signed storage column carries the
    # stored-energy change plus storage-internal losses
    expect = led.storage_loss + led.storage_residual - led.initial_storage
    assert abs(prof.storage_delta.sum() - expect) <= tol


def test_per_step_profile_closure():
    tr = synthetic_solar_trace(days=1, peak=25.0, cadence_s=300)
    ess = EssConfig(storage=StorageModel(capacitance=0.3, esr=2.0,
                                         leak_resistance=25e3))
    res = simulate(tr, None, ess, small_app(), SimConfig(dt_quiescent=0.2))
    prof = res.profile
    lhs = prof.harvest
    rhs = (prof.mppt_loss + prof.converter_loss + prof.soc_energy
           + prof.sensor_energy + prof.storage_delta)
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_skip_nights_noop_without_dark():
    tr = flat_trace(1200.0, 50.0)
    ess = EssConfig(storage=StorageModel(capacitance=0.4, leak_resistance=30e3))
    cfg = SimConfig(dt_quiescent=0.2)
    plain = simulate(tr, None, ess, small_app(), cfg)
    skip = simulate(tr, None, ess, small_app(),
                    replace(cfg, skip_nights=True))
    assert plain.throughput_bytes == skip.throughput_bytes
    np.testing.assert_array_equal(plain.voltage_v, skip.voltage_v)


def test_skip_nights_all_dark_equals_leak_decay():
    tr = flat_trace(7200.0, 0.0)
    ess = EssConfig(storage=StorageModel(capacitance=1.0, leak_resistance=10e3,
                                         v_init=1.5))
    app = small_app(p_off_residual=5e-7)
    cfg = SimConfig(dt_quiescent=0.2, end_policy="hard_stop")
    plain = simulate(tr, None, ess, app, cfg)
    skip = simulate(tr, None, ess, app, replace(cfg, skip_nights=True))
    assert skip.throughput_bytes == plain.throughput_bytes == 0
    assert abs(skip.v_cap_final - plain.v_cap_final) / plain.v_cap_final < 1e-3
    assert abs(skip.ledger.storage_loss_leak
               - plain.ledger.storage_loss_leak) \
        <= 1e-3 * plain.ledger.storage_loss_leak + 1e-9
    assert len(skip.profile) == len(plain.profile)


def test_skip_nights_does_not_skip_while_converter_on():
    # dark trace but storage pre-charged above turn-on: the load must run
    tr = flat_trace(1800.0, 0.0)
    ess = EssConfig(storage=StorageModel(capacitance=2.0, v_init=2.5,
                                         leak_resistance=1e5))
    cfg = SimConfig(dt_quiescent=0.2, end_policy="hard_stop")
    res = simulate(tr, None, ess, small_app(), replace(cfg, skip_nights=True))
    assert res.throughput_bytes > 0
    assert res.activity.on_off[:100].all()


def test_drain_policy_extends_until_converter_off():
    tr = flat_trace(600.0, 400.0)
    ess = EssConfig(harvester=HarvesterModel(k_mpp=1e-4),
                    storage=StorageModel(capacitance=0.3, v_init=0.75,
                                         leak_resistance=50e3))
    app = small_app()
    hard = simulate(tr, None, ess, app,
                    SimConfig(dt_quiescent=0.2, end_policy="hard_stop"))
    drain = simulate(tr, None, ess, app, SimConfig(dt_quiescent=0.2))
    assert hard.duration_s == pytest.approx(600.0)
    assert drain.duration_s > 600.0
    assert not drain.converter_on_final
    assert drain.v_cap_final < ess.converter.v_on
    # the drained run converts most stored energy into work instead of residual
    assert drain.ledger.storage_residual < hard.ledger.storage_residual


def test_undersupplied_run_books_large_residual():
    # storage charges to just below turn-on: everything ends up residual
    tr = flat_trace(1500.0, 100.0)
    ess = EssConfig(harvester=HarvesterModel(k_mpp=1e-5),
                    storage=StorageModel(capacitance=1.0, v_init=0.75,
                                         leak_resistance=1e6))
    res = simulate(tr, None, ess, small_app(), SimConfig(dt_quiescent=0.2))
    led = res.ledger
    assert res.throughput_bytes == 0
    assert res.v_cap_final < ess.converter.v_on
    assert led.storage_residual > 0.5 * led.total_input()


def test_finalize_residual_values_and_closure_guard():
    sto = StorageModel(capacitance=2.2, buffer_capacitance=0.0)
    led = EnergyLedger(harvest_input=9.251, initial_storage=0.0)
    finalize_stack(led, 2.9, sto)
    assert led.storage_residual == pytest.approx(9.251)
    led2 = EnergyLedger(harvest_input=0.0)
    finalize_stack(led2, 0.0, sto)
    assert led2.storage_residual == 0.0
    bad = EnergyLedger(harvest_input=100.0)
    with pytest.raises(ClosureError):
        finalize_stack(bad, 0.5, sto)


@pytest.mark.parametrize("ledger", [
    EnergyLedger(harvest_input=math.nan),
    EnergyLedger(harvest_input=1.0, converter_loss=math.nan),
    EnergyLedger(harvest_input=math.inf),
    EnergyLedger(harvest_input=math.inf, mppt_loss=math.inf),
], ids=["nan_input", "nan_sink", "inf_input", "inf_input_and_sink"])
def test_closure_guard_rejects_non_finite_ledger(ledger):
    sto = StorageModel(capacitance=2.2, buffer_capacitance=0.0)
    with pytest.raises(ClosureError):
        finalize_stack(ledger, 0.0, sto)


def test_resolution_guard_rejects_coarse_active_step():
    tr = flat_trace(100.0, 10.0)
    app = small_app(t_sample=0.01, t_comm=0.3)
    with pytest.raises(ConfigError):
        simulate(tr, None, EssConfig(), app,
                 SimConfig(dt_active=0.05, dt_quiescent=0.1))


def test_event_outside_trace_rejected():
    tr = flat_trace(100.0, 10.0)
    ev = EventTrace(t=np.array([150.0]))
    with pytest.raises(ConfigError):
        simulate(tr, ev, EssConfig(), small_app(), SimConfig())


@pytest.mark.parametrize("field", ["dt_active", "dt_quiescent",
                                   "aggregation_step", "max_extension_s"])
def test_sim_config_rejects_nan_naming_the_field(field):
    with pytest.raises(ConfigError, match=field):
        SimConfig(**{field: math.nan})


@pytest.mark.parametrize("end_policy", ["hard_stop", "drain_until_converter_off"])
def test_event_at_trace_end_is_delivered(end_policy):
    tr = flat_trace(600.0, 300.0)
    ev = EventTrace(t=np.array([100.0, 600.0]))
    ess = EssConfig(storage=StorageModel(capacitance=0.3, v_init=2.5,
                                         leak_resistance=1e5))
    res = simulate(tr, ev, ess, small_app(reactive=True),
                   SimConfig(dt_quiescent=0.2, end_policy=end_policy))
    assert res.events_offered == 2
    np.testing.assert_array_equal(res.event_log, [[100.0, 1], [600.0, 1]])


def test_sim_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(dt_active=0.2, dt_quiescent=0.1)
    with pytest.raises(ConfigError):
        SimConfig(aggregation_step=0.25, dt_quiescent=0.1)
    with pytest.raises(ConfigError):
        SimConfig(end_policy="whenever")


@pytest.mark.parametrize("volts", [math.nan, math.inf, -math.inf, -1.0, 0.0])
def test_sim_config_rejects_bad_supply_override(volts):
    with pytest.raises(ConfigError, match="supply_override"):
        SimConfig(supply_override=volts)


def test_only_a_profiling_run_may_omit_the_ess():
    tr = flat_trace(60.0, 0.0)
    with pytest.raises(ConfigError, match="only a profiling run"):
        simulate(tr, None, None, small_app(), SimConfig())
    # A profiling run ignores an ESS it is given.
    cfg = SimConfig(supply_override=3.3, dt_quiescent=0.2)
    ess = EssConfig(storage=StorageModel(capacitance=0.1, v_init=0.3))
    assert (_result_digest(simulate(tr, None, ess, small_app(), cfg))
            == _result_digest(simulate(tr, None, None, small_app(), cfg)))


def test_reactive_detection_counts():
    tr = flat_trace(3600.0, 300.0)
    ev = EventTrace(t=np.array([600.0, 1200.0, 1800.0, 2400.0]))
    ess = EssConfig(harvester=HarvesterModel(k_mpp=1e-4),
                    storage=StorageModel(capacitance=0.3, v_init=2.5,
                                         leak_resistance=1e5))
    app = small_app(reactive=True, t_sample_period=30.0, n_per_comm=10 ** 9)
    res = simulate(tr, ev, ess, app, SimConfig(dt_quiescent=0.2))
    assert res.events_offered == 4
    # powered throughout with sampling period below the event gap: all seen
    assert res.events_detected == 4
    assert res.events_detected_at_event == 4
    assert res.events_observed == 4
    assert res.events_detected <= res.events_offered


def test_pending_event_survives_dark_gap():
    # event arrives while the node is off; the level-triggered flag holds
    # until the first sampling after wake-up
    t = np.array([0.0, 1800.0, 1800.1, 3600.0])
    g = np.array([0.0, 0.0, 3000.0, 3000.0])
    tr = IrradianceTrace(t=t, g=g)
    ev = EventTrace(t=np.array([600.0]))
    ess = EssConfig(harvester=HarvesterModel(k_mpp=1e-4),
                    storage=StorageModel(capacitance=0.2, v_init=0.75,
                                         leak_resistance=1e6))
    app = small_app(reactive=True, n_per_comm=10 ** 9)
    res = simulate(tr, ev, ess, app, SimConfig(dt_quiescent=0.2))
    assert res.events_offered == 1
    assert res.events_detected_at_event == 0   # node was dark at event time
    assert res.events_observed == 1            # observed after wake-up
    assert res.events_detected == 1


def test_esr_free_buffer_saturation_curtails_as_mppt_loss():
    # Without ESR the buffer sits on the storage node: a saturated store
    # curtails the surplus of both capacitors as MPPT loss, and the load's
    # converter sees the clamped node. So the buffer adds only its own
    # stored energy, and the books match the R -> 0 limit of a buffer
    # behind an ESR.
    trace = flat_trace(600.0, 3000.0)
    cfg = SimConfig(end_policy="hard_stop")
    runs = {}
    for esr, cb in ((0.0, 0.0), (0.0, 400e-6), (1e-6, 400e-6)):
        ess = EssConfig(harvester=HarvesterModel(k_mpp=1e-4),
                        storage=StorageModel(capacitance=0.05, esr=esr,
                                             v_init=2.9,
                                             buffer_capacitance=cb))
        runs[esr, cb] = simulate(trace, None, ess, preset("TMP1"), cfg)
    bare = runs[0.0, 0.0].ledger
    v_max = MpptModel().storage_v_max
    for key in ((0.0, 400e-6), (1e-6, 400e-6)):
        led = runs[key].ledger
        assert led.converter_loss == pytest.approx(bare.converter_loss,
                                                   rel=1e-6), key
        assert led.mppt_loss == pytest.approx(bare.mppt_loss, rel=1e-9), key
        assert led.sss_by_activity == pytest.approx(bare.sss_by_activity,
                                                    rel=1e-9), key
        assert led.storage_residual - bare.storage_residual == pytest.approx(
            0.5 * 400e-6 * v_max * v_max, rel=1e-6), key


@pytest.mark.parametrize("esr", [1e-4, 1e-3, 1e-2])
def test_small_esr_without_buffer_delivers_what_no_esr_does(esr):
    # A few milliohms leave every preset's draw an operating point, so the
    # bus must never collapse: the node boots once and delivers what it
    # delivers with no ESR at all.
    trace = IrradianceTrace(t=np.array([0.0, 600.0]), g=np.full(2, 3000.0))
    cfg = SimConfig(dt_quiescent=0.2, end_policy="hard_stop")
    for name in PRESETS:
        runs = [simulate(trace, None, EssConfig(
            harvester=HarvesterModel(k_mpp=1e-4),
            storage=StorageModel(capacitance=0.05, esr=r, v_init=2.9,
                                 buffer_capacitance=0.0)),
            preset(name), cfg) for r in (0.0, esr)]
        assert runs[0].boots == 1, name
        assert (runs[1].throughput_bytes, runs[1].boots) == (
            runs[0].throughput_bytes, runs[0].boots), name


def _pin_inputs(name, tmp_path):
    """Small, mostly stepped runs that pin the step loop's output bytes."""
    if name.startswith("window"):
        # two hours of the simulate benchmark's inputs, planned as the CLI does
        _, mode, start_h = name.split("_", 2)
        _make_inputs()("simulate_tmp1", 411, str(tmp_path),
                       window=(float(start_h), 2.0))
        cfg = load_config(str(tmp_path / "config.json"))
        app, s_i = build_app(cfg)
        plan, _ = _resolve_plan(cfg, app, s_i, mode)
        trace, events, app_x, sim_cfg = build_experiment(
            plan, load_trace(cfg), load_events(cfg), app, build_sim(cfg))
        return trace, events, build_ess(cfg), app_x, sim_cfg
    if name.startswith("esr"):
        # criterion 8's brownout chain, ten minutes of constant light
        app = AppSpec(name="tof_case", t_sample_period=120.0, t_sample=0.002,
                      t_comm=0.08, n_per_comm=1, bytes_per_comm=12,
                      p_sample=0.25, p_comm=15e-3, p_idle=5e-6,
                      sensor_fraction_sampling=0.9)
        ess = EssConfig(storage=StorageModel(
            capacitance=0.54, esr=6.9, leak_resistance=200e3, v_init=0.75,
            buffer_capacitance=400e-6 if name == "esr_buffer" else 0.0))
        return (flat_trace(600.0, 60.0), None, ess, app,
                SimConfig(dt_quiescent=0.2, end_policy="hard_stop"))
    if name == "ideal_partial_bin":
        # profiling run stopped mid-bin, inside a sampling burst
        return (IrradianceTrace(t=np.array([0.0, 20.1]), g=np.zeros(2)),
                None, None, small_app(),
                SimConfig(dt_quiescent=0.2, supply_override=3.0))
    if name == "dark_night_dawn_boot":
        # two dark hours with the node off and events offered, then a lit
        # hour that boots it; trace samples off the bin grid
        t = np.append(np.arange(0.0, 10800.0, 61.3), 10800.0)
        ess = EssConfig(storage=StorageModel(capacitance=0.3, esr=0.5,
                                             leak_resistance=5e4,
                                             v_init=1.95))
        return (IrradianceTrace(t=t, g=np.where(t < 7200.0, 0.0, 400.0)),
                EventTrace(t=np.arange(333.3, 10800.0, 997.0)), ess,
                small_app(reactive=True),
                SimConfig(dt_quiescent=0.2, end_policy="hard_stop"))
    if name == "dark_dead_node":
        # a dark store draining through the off-residual draw until the
        # bus passes _V_DEAD, two steps per bin, trace end mid-bin
        t = np.append(np.arange(0.0, 1800.0, 47.7), 1800.03)
        ess = EssConfig(storage=StorageModel(capacitance=0.1, esr=0.5,
                                             leak_resistance=5e4,
                                             v_init=0.3))
        return (IrradianceTrace(t=t, g=np.zeros(len(t))), None, ess,
                small_app(p_off_residual=1e-5),
                SimConfig(dt_quiescent=0.1, end_policy="hard_stop"))
    if name == "dark_at_v_max":
        # a dark store starting at storage_v_max with a converter that
        # cannot turn on below it; drained to a trace end mid-bin
        ess = EssConfig(storage=StorageModel(capacitance=0.2, esr=0.5,
                                             leak_resistance=2e4,
                                             v_init=2.9),
                        converter=ConverterModel(v_on=3.0))
        return (IrradianceTrace(t=np.array([0.0, 1200.1]), g=np.zeros(2)),
                None, ess, small_app(), SimConfig(dt_quiescent=0.2))
    if name == "span_saturated":
        # idle at storage_v_max under strong light: every span holds the
        # store and curtails the surplus
        ess = EssConfig(harvester=HarvesterModel(k_mpp=1e-4),
                        storage=StorageModel(capacitance=0.3, esr=0.5,
                                             leak_resistance=1e6,
                                             v_init=2.9))
        return (flat_trace(1200.0, 3000.0), None, ess,
                small_app(t_sample_period=60.0),
                SimConfig(dt_quiescent=0.2, end_policy="hard_stop"))
    if name == "span_drain_regrow":
        # two lit minutes, then idle spans drain the store for over an hour
        # past the trace end, through several regrowths of the bin arrays
        ess = EssConfig(harvester=HarvesterModel(k_mpp=1e-4),
                        storage=StorageModel(capacitance=0.5, esr=0.5,
                                             leak_resistance=1e6,
                                             v_init=2.5))
        return (flat_trace(120.0, 1000.0), None, ess,
                small_app(t_sample_period=30.0), SimConfig(dt_quiescent=0.2))
    if name == "span_off_grid":
        # idle spans on a slowly rising store, trace samples off the bin
        # grid, so spans open a hair after a bin edge
        t = np.append(np.arange(0.0, 1800.0, 61.3), 1800.0)
        ess = EssConfig(harvester=HarvesterModel(k_mpp=1e-4),
                        storage=StorageModel(capacitance=0.3, esr=0.5,
                                             leak_resistance=1e5,
                                             v_init=2.2))
        return (IrradianceTrace(t=t, g=5.0 + 1.5 * np.sin(t / 300.0)), None,
                ess, small_app(t_sample_period=30.0),
                SimConfig(dt_quiescent=0.2, end_policy="hard_stop"))
    # a reactive PARKING node offered an event every 97 s
    ess = EssConfig(harvester=HarvesterModel(k_mpp=1e-4),
                    storage=StorageModel(capacitance=0.3, esr=0.5,
                                         leak_resistance=1e6, v_init=2.5))
    return (flat_trace(1800.0, 300.0), EventTrace(t=np.arange(45.0, 1800.0,
                                                              97.0)),
            ess, preset("PARKING"),
            SimConfig(dt_quiescent=0.2, end_policy="hard_stop"))


def _result_digest(res):
    """sha256 of a result's tables, counts and ledger, bit for bit."""
    h = hashlib.sha256()
    prof, act = res.profile, res.activity
    for arr in (prof.t_start, prof.harvest, prof.mppt_loss,
                prof.converter_loss, prof.soc_energy, prof.sensor_energy,
                prof.storage_delta, act.on_off, act.labels, res.voltage_t,
                res.voltage_v, res.event_log):
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    led = res.ledger
    h.update(repr((res.throughput_bytes, res.boots, res.events_offered,
                   res.events_detected, res.events_detected_at_event,
                   res.events_observed)).encode())
    scalars = [led.harvest_input, led.initial_storage, led.mppt_loss,
               led.storage_loss_leak, led.storage_loss_esr,
               led.storage_residual, led.converter_loss,
               *(led.sss_by_activity[k] for k in sorted(led.sss_by_activity)),
               res.on_time_s, res.duration_s, res.v_cap_final]
    h.update(np.array(scalars, dtype=np.float64).tobytes())
    return h.hexdigest()


# Recorded from the step loop before its per-bin sums moved into Python
# floats; a deliberate change of per-step numerics re-records them.
PINNED_DIGESTS = {
    "window_realtime_5": "6fc80efa29a03b27ee74575bbd3c4592324250a9d49109c2e654284f73530925",
    "window_st-sp_5": "c85113c6b32d8b2108f5a9435ec276ef6922e8f0c0686e53ae99aedee7ce8076",
    "window_realtime_7": "1769672343f58f9185734ddd64f43c978392dc01715d0807e628243c7fe97a97",
    "window_st-sp_7": "13f3989781e74470a5038a5b11b00f9cbf1d5b03b31e3bdbdfca2edcfcbe7248",
    "esr_buffer": "569bcae27c4e73aa74db84c2230a5e602e30254d427cc3c3102b417c968c67d0",
    "esr_no_buffer": "949c4e3971af76299d4624a63313a45fefbf286828cbd438f5be701f43d5d7bd",
    "parking_events": "d5e7642c1ef8a2334ca0e995a0abc6610b3ff578cf6d03d9cdf08c72db7a43df",
    "ideal_partial_bin": "640104a5db20632f16d4ffbc1836e22c6be53aea74f2ae5ff860622d6dac7e8e",
    # recorded from the general step, before dark off bins had an evaluator
    "dark_night_dawn_boot": "dc7cc5df6e3e9024a5aefd7f15749b2dca0cc325725e4f6312d40a7d71b5722e",
    "dark_dead_node": "2031413f3b897622f275e6386a8e491ef4d6686005c1ab09940fe7db497c91ed",
    "dark_at_v_max": "01ca729590b87983728b3c7270cf0ef1f205b94f2d005545d16adccef1034d23",
    # recorded while each span still wrote its own rows
    "window_st-sp-sn_5": "7ef7aeb91d79ffe3018bbe3e5d59760037b3f743cb38633676ceef98ab82c184",
    "span_saturated": "1aae53da7824506fa5e94697d0f439be255fb523019a6c7b2558a77ae9912890",
    "span_drain_regrow": "7b68dbd023644730b18e5dd765c1a587b4e7cce5bf933f57d787f459a6e27a4f",
    "span_off_grid": "8202a9e8a992a4e1c3130ab127d1c1cc760e510763daffe9fc69768c2ee49b67",
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_step_loop_output_bytes_are_pinned(tmp_path, name):
    res = simulate(*_pin_inputs(name, tmp_path))
    assert _result_digest(res) == PINNED_DIGESTS[name]


@given(st.lists(st.floats(min_value=1e-9, max_value=10.0), min_size=1,
                max_size=64))
@settings(max_examples=200, deadline=None)
def test_scalar_expm1_matches_the_array_call(magnitudes):
    """The integrator (``engine._segment_at``) takes ``np.expm1`` of a
    Python float at a span's last two bin ends for its end state, and of an
    array for its rows: the end state equals the last row written only
    while the two agree bit for bit. They must: ``math.expm1`` would not
    do, as it differs from the array call in the last bit in 45 787 of
    2 000 000 draws on an AVX-512 host."""
    x = [-m for m in magnitudes]
    assert [float(np.expm1(v)) for v in x] == np.expm1(np.array(x)).tolist()


@given(spans=st.lists(st.tuples(
           st.floats(0.0, 50.0),  # e0
           st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),  # slope
           st.floats(0.0, 5.0),  # v0, held while the slope is 0
           st.floats(1e-3, 1e3),  # two_over_c
           st.floats(1e-9, 1.0),  # d0, as a share of a bin
           st.integers(2, 2000)), min_size=1, max_size=6),  # n
       # a s spans 1e-3 to 5, where math.expm1 and np.expm1 part most
       a=st.one_of(st.just(0.0), st.floats(1e-6, 1e-2)),
       agg=st.sampled_from([0.05, 0.2, 1.0]))
@settings(max_examples=200, deadline=None)
def test_segment_integrator_matches_the_span_oracle(spans, a, agg):
    """The rows ``_write_rows`` writes for queued segments, and a span's
    end state and leak as ``_advance_span`` takes them from the
    integrator, equal the two forms the integrator replaced bit for bit;
    the end state is the last two rows. Large falling slopes drain the
    store below zero, where the voltage is clamped to 0."""
    e0, slope, v0, tc, share, n = (np.array(c, dtype=float)
                                   for c in zip(*spans))
    d0 = share * agg
    lo = np.cumsum(n) - n
    bins = engine._Bins(int(n.sum()), a)
    for rec in zip(lo, n, d0, e0, slope, v0, tc):
        bins.spans += engine._pack_span(*engine._Segment(
            *rec, p_mpp=0.0, p_ml=0.0, p_conv=0.0, p_load=0.0, conv_last=0.0,
            load_last=0.0, on=0.0, label=0.0))
    bins.pending = int(n.sum())
    engine._write_rows(bins, agg)
    rows = span_oracle.row_voltages(e0, slope, v0, np.full(len(n), a), tc,
                                    d0, n, agg)
    assert bins.volt_v[:len(rows)].tobytes() == rows.tobytes()
    last = (lo + n - 1).astype(int)
    for i, (e, sl, v, c, d, k) in enumerate(spans):
        d *= agg
        span = d + (k - 1) * agg
        v_prev = engine._segment_at(e, sl, v, a, c, (k - 2) * agg + d)[1]
        phi_end, v_end = engine._segment_at(e, sl, v, a, c, span)
        leak = a * e * span + sl * (span - phi_end)  # as _advance_span books
        got = struct.pack("3d", v_prev, v_end, leak)
        assert got == struct.pack("3d", *span_oracle.end_state(
            e, sl, v, a, c, d, k, agg))
        assert got[:16] == rows[last[i] - 1:last[i] + 1].tobytes()


@pytest.mark.parametrize("name", ["window_st-sp-sn_5", "span_drain_regrow",
                                  "window_realtime_5"])
def test_pending_rows_stay_within_the_flush_bound(tmp_path, monkeypatch,
                                                  name):
    # Stepped bins, dark chunks and spans all wait in one queue for the one
    # writer, which runs before they pass _SPAN_MAX_BINS and once at the end.
    # The real-time window opens with an hour of dark bins, each trace
    # sample on a bin edge: a stretch longer than _SPAN_MAX_BINS, which the
    # dark evaluator must cut.
    inputs = _pin_inputs(name, tmp_path)  # may profile the app: not counted
    write = engine._write_rows
    queued = []  # stepped, dark and span rows at each write

    def counting_write(bins, agg):
        steps = np.frombuffer(bins.steps).reshape(-1, 10)
        spans = engine._Segment._make(np.frombuffer(bins.spans).reshape(
            -1, len(engine._Segment._fields)).T)
        queued.append((len(steps),
                       sum(len(volts) for _, _, volts in bins.dark),
                       int(spans.n.sum())))
        assert sum(queued[-1]) == bins.pending
        write(bins, agg)

    monkeypatch.setattr(engine, "_write_rows", counting_write)
    res = simulate(*inputs)
    steps, dark, spans = (sum(rows) for rows in zip(*queued))
    assert len(queued) >= 2 and steps and spans
    assert max(map(sum, queued)) <= engine._SPAN_MAX_BINS
    assert steps + dark + spans == len(res.activity)
    assert spans == res.stats.span_bins
    assert (dark > 0) == (res.stats.dark_steps > 0)


def test_run_stats_reconcile_with_the_bins():
    # Twenty dark minutes, then twenty lit ones too dim to boot the node:
    # dark off steps (no skip_nights) and lit off spans. Trace samples sit
    # on bin edges and dt_quiescent is one bin, so each stepped bin takes
    # exactly one step.
    trace = IrradianceTrace(t=np.arange(41) * 60.0,
                            g=np.where(np.arange(41) < 20, 0.0, 5.0))
    ess = EssConfig(storage=StorageModel(v_init=0.5, leak_resistance=50e3))
    res = simulate(trace, None, ess, small_app(),
                   SimConfig(dt_quiescent=0.2, end_policy="hard_stop"))
    stats = res.stats
    assert res.boots == 0
    assert stats.steps >= 6000 and stats.spans >= 1
    assert stats.steps + stats.span_bins == len(res.activity) == 12000
    assert stats.dark_steps == 6000


def test_dark_evaluator_hands_back_a_bin_it_cannot_close():
    # A collapsed bus over a store above v_on: a step lifts the bus to v_on,
    # where the general step would switch the converter on. With two steps
    # per bin that happens mid-bin, and the evaluator must hand the whole
    # bin back, with the state it was given and no row written; with one
    # step per bin, it closes the bin and stops there.
    ess = EssConfig(storage=StorageModel(capacitance=0.2, esr=0.5,
                                         leak_resistance=5e4, v_init=2.5))
    state = (10.0, 2.5, 0.0, "tracking", -1e-3, 0.0, 0.25, 0.125, 0.5)
    t, v_cap, v_bus, mode, de_rate, i_out, leak, esr, off = state
    runs = {}
    for dt_step in (0.1, 0.2):
        bins = engine._Bins(100)
        runs[dt_step] = bins, engine._step_dark_span(
            ess, small_app(), dt_step, 0.0, 0.2, bins, 50, t, 100.0,
            [0.0, 100.0], [0.0, 0.0], 0, v_cap, v_bus, mode, de_rate, i_out,
            leak, esr, off)
        engine._write_rows(bins, 0.2)
    bins, out = runs[0.1]
    assert out == (0, 0, t, v_cap, v_bus, mode, de_rate, i_out, 0, leak,
                   esr, off)
    for name in ("soc", "sdelta", "volt_v"):
        assert not getattr(bins, name).any()
    bins, out = runs[0.2]
    assert out[:2] == (1, 1) and out[4] >= 2.0
    assert bins.volt_v[50] == out[3] and bins.volt_v.any()
