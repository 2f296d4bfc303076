import math
from dataclasses import replace

import numpy as np
import pytest

from ehsim.app import PHASE_INDEX, AppSpec, preset
from ehsim.engine import (
    ClosureError, ConfigError, EnergyLedger, SimConfig, finalize_stack,
    run_with_skip_nights, simulate,
)
from ehsim.ess import (ConverterModel, EssConfig, HarvesterModel, MpptModel,
                       StorageModel)
from ehsim.traces import EventTrace, IrradianceTrace, synthetic_solar_trace


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
    led = res.stack.ledger
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
    assert res.stack.ledger.sss_by_activity == {
        "off": 0.0, "boot": 0.0004, "sampling_processing": 0.019200000000000002,
        "communicating": 0.005999999999999999, "backup_restore": 0.0,
        "idle": 0.009501847046999608}


def test_constant_supply_ledger_closes_on_the_source_energy():
    tr = flat_trace(3600.0, 0.0)
    cfg = SimConfig(supply_override=3.3, dt_quiescent=0.2,
                    end_policy="hard_stop")
    res = simulate(tr, None, None, preset("TMP1"), cfg)
    led = res.stack.ledger
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
    assert again.stack.as_dict() == res.stack.as_dict()
    np.testing.assert_array_equal(again.profile.harvest, prof.harvest)


def test_ideal_configuration_conserves_energy():
    tr = synthetic_solar_trace(days=1, peak=8.0, cadence_s=300)
    ess = EssConfig.ideal(capacitance=1.0, k_mpp=1e-4)
    res = simulate(tr, None, ess, small_app(), SimConfig(dt_quiescent=0.2))
    led = res.stack.ledger
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
    assert a.stack.ledger.closure_error() == b.stack.ledger.closure_error()
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
    lf, la = fine.stack.ledger, adap.stack.ledger
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
    led = res.stack.ledger
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
    skip = run_with_skip_nights(tr, None, ess, small_app(), cfg)
    assert plain.throughput_bytes == skip.throughput_bytes
    np.testing.assert_array_equal(plain.voltage_v, skip.voltage_v)


def test_skip_nights_all_dark_equals_leak_decay():
    tr = flat_trace(7200.0, 0.0)
    ess = EssConfig(storage=StorageModel(capacitance=1.0, leak_resistance=10e3,
                                         v_init=1.5))
    app = small_app(p_off_residual=5e-7)
    cfg = SimConfig(dt_quiescent=0.2, end_policy="hard_stop")
    plain = simulate(tr, None, ess, app, cfg)
    skip = run_with_skip_nights(tr, None, ess, app, cfg)
    assert skip.throughput_bytes == plain.throughput_bytes == 0
    assert abs(skip.v_cap_final - plain.v_cap_final) / plain.v_cap_final < 1e-3
    assert abs(skip.stack.ledger.storage_loss_leak
               - plain.stack.ledger.storage_loss_leak) \
        <= 1e-3 * plain.stack.ledger.storage_loss_leak + 1e-9
    assert len(skip.profile) == len(plain.profile)


def test_skip_nights_does_not_skip_while_converter_on():
    # dark trace but storage pre-charged above turn-on: the load must run
    tr = flat_trace(1800.0, 0.0)
    ess = EssConfig(storage=StorageModel(capacitance=2.0, v_init=2.5,
                                         leak_resistance=1e5))
    cfg = SimConfig(dt_quiescent=0.2, end_policy="hard_stop")
    res = run_with_skip_nights(tr, None, ess, small_app(), cfg)
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
    assert drain.stack.ledger.storage_residual < hard.stack.ledger.storage_residual


def test_undersupplied_run_books_large_residual():
    # storage charges to just below turn-on: everything ends up residual
    tr = flat_trace(1500.0, 100.0)
    ess = EssConfig(harvester=HarvesterModel(k_mpp=1e-5),
                    storage=StorageModel(capacitance=1.0, v_init=0.75,
                                         leak_resistance=1e6))
    res = simulate(tr, None, ess, small_app(), SimConfig(dt_quiescent=0.2))
    led = res.stack.ledger
    assert res.throughput_bytes == 0
    assert res.v_cap_final < ess.converter.v_on
    assert led.storage_residual > 0.5 * led.total_input()


def test_finalize_residual_values_and_closure_guard():
    sto = StorageModel(capacitance=2.2, buffer_capacitance=0.0)
    led = EnergyLedger(harvest_input=9.251, initial_storage=0.0)
    stack = finalize_stack(led, 2.9, False, sto)
    assert stack.ledger.storage_residual == pytest.approx(9.251)
    led2 = EnergyLedger(harvest_input=0.0)
    stack2 = finalize_stack(led2, 0.0, False, sto)
    assert stack2.ledger.storage_residual == 0.0
    bad = EnergyLedger(harvest_input=100.0)
    with pytest.raises(ClosureError):
        finalize_stack(bad, 0.5, False, sto)


@pytest.mark.parametrize("ledger", [
    EnergyLedger(harvest_input=math.nan),
    EnergyLedger(harvest_input=1.0, converter_loss=math.nan),
    EnergyLedger(harvest_input=math.inf),
    EnergyLedger(harvest_input=math.inf, mppt_loss=math.inf),
], ids=["nan_input", "nan_sink", "inf_input", "inf_input_and_sink"])
def test_closure_guard_rejects_non_finite_ledger(ledger):
    sto = StorageModel(capacitance=2.2, buffer_capacitance=0.0)
    with pytest.raises(ClosureError):
        finalize_stack(ledger, 0.0, False, sto)


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
                                   "aggregation_step", "dark_threshold",
                                   "max_extension_s"])
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
    bare = runs[0.0, 0.0].stack.ledger
    v_max = MpptModel().storage_v_max
    for key in ((0.0, 400e-6), (1e-6, 400e-6)):
        led = runs[key].stack.ledger
        assert led.converter_loss == pytest.approx(bare.converter_loss,
                                                   rel=1e-6), key
        assert led.mppt_loss == pytest.approx(bare.mppt_loss, rel=1e-9), key
        assert led.sss_by_activity == pytest.approx(bare.sss_by_activity,
                                                    rel=1e-9), key
        assert led.storage_residual - bare.storage_residual == pytest.approx(
            0.5 * 400e-6 * v_max * v_max, rel=1e-6), key
