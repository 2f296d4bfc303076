import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ehsim.app import preset
from ehsim.engine import SimConfig, simulate
from ehsim.ess import (
    ConverterModel, EfficiencyCurve, EssConfig, EssError,
    HarvesterModel, MpptModel, StorageModel, IvGridWarning,
    MODE_BYPASS, MODE_COLD_START, MODE_TRACKING,
    converter_next_state, harvester_mpp_power,
    harvester_power, mppt_next_mode, mppt_step, residual_energy,
    solve_load_current, storage_step,
)
from ehsim.traces import IrradianceTrace


def test_efficiency_flat_and_table():
    assert EfficiencyCurve.flat(0.85).at(1e-3) == 0.85
    tab = EfficiencyCurve(power_w=(1e-3, 1e-2, 1e-1), eta=(0.6, 0.8, 0.9))
    assert tab.at(1e-3) == 0.6
    assert tab.at(1.0) == 0.9  # clamped
    assert 0.6 < tab.at(5e-3) < 0.8
    with pytest.raises(EssError):
        EfficiencyCurve(power_w=(1.0,), eta=(1.2,))


def test_harvester_dark_is_zero():
    assert harvester_power(HarvesterModel(k_mpp=1e-3), 0.0) == 0.0


def test_harvester_linear_definition():
    assert harvester_power(HarvesterModel(k_mpp=1e-3), 500.0) == pytest.approx(0.5)


def test_harvester_single_point_iv_matches_linear():
    g0, v0, i0 = 400.0, 1.5, 0.2
    iv = HarvesterModel(model_kind="iv_surface",
                        iv_irradiance=np.array([g0]),
                        iv_voltage=np.array([v0]),
                        iv_current=np.array([[i0]]))
    lin = HarvesterModel(k_mpp=i0 * v0 / g0)
    assert abs(harvester_power(iv, g0, v0)
               - harvester_power(lin, g0, v0)) < 1e-9
    assert abs(harvester_mpp_power(iv, g0) - harvester_mpp_power(lin, g0)) < 1e-9


def test_harvester_iv_clamps_with_warning():
    iv = HarvesterModel(model_kind="iv_surface",
                        iv_irradiance=np.array([0.0, 1000.0]),
                        iv_voltage=np.array([0.5, 2.5]),
                        iv_current=np.array([[0.0, 0.0], [0.3, 0.2]]))
    with pytest.warns(IvGridWarning):
        p = harvester_power(iv, 500.0, 4.0)
    assert p == pytest.approx(0.1 * 2.5)


def test_harvester_iv_monotonicity_enforced():
    with pytest.raises(EssError):
        HarvesterModel(model_kind="iv_surface",
                       iv_irradiance=np.array([0.0, 1.0]),
                       iv_voltage=np.array([0.5, 1.0]),
                       iv_current=np.array([[0.0, 0.1], [0.1, 0.2]]))


def test_mppt_hysteresis_walk():
    mppt = MpptModel()
    _, _, mode = mppt_step(mppt, MODE_BYPASS, 1.5, 1e-3)
    assert mode == MODE_BYPASS
    _, _, mode = mppt_step(mppt, mode, 1.8, 1e-3)
    assert mode == MODE_TRACKING
    # above engage, hysteresis holds
    _, _, mode = mppt_step(mppt, mode, 1.7, 1e-3)
    assert mode == MODE_TRACKING


def test_mppt_cold_start_without_bypass():
    # Bypass window far below the cold-start boundary: charging up from
    # bypass passes through cold start until 1.77 V, then tracks.
    mppt = MpptModel(bypass_engage_v=0.1, bypass_release_v=0.2)
    p_in, p_loss, mode = mppt_step(mppt, MODE_BYPASS, 1.0, 1.0)
    assert mode == MODE_COLD_START
    assert p_in == pytest.approx(mppt.cold_start_efficiency)
    _, _, mode = mppt_step(mppt, mode, 1.78, 1.0)
    assert mode == MODE_TRACKING
    _, _, mode = mppt_step(mppt, mode, 1.5, 1.0)  # falling: stays tracking
    assert mode == MODE_TRACKING


def test_mppt_no_input():
    p_in, p_loss, _ = mppt_step(MpptModel(), MODE_TRACKING, 2.0, 0.0)
    assert p_in == 0.0 and p_loss == 0.0


@given(p=st.floats(min_value=0.0, max_value=10.0),
       v=st.floats(min_value=0.0, max_value=2.9))
@settings(max_examples=100, deadline=None)
def test_mppt_power_conservation(p, v):
    p_in, p_loss, _ = mppt_step(MpptModel(), MODE_TRACKING, v, p)
    assert p_in + p_loss == pytest.approx(p, rel=1e-12, abs=1e-15)
    assert p_in >= 0.0 and p_loss >= 0.0


@given(walk=st.lists(st.floats(min_value=0.0, max_value=3.0),
                     min_size=1, max_size=60))
@settings(max_examples=150, deadline=None)
def test_hysteresis_matches_reference_automaton(walk):
    mppt = MpptModel()
    conv = ConverterModel()
    mode = MODE_BYPASS
    conv_on = False
    ref_bypass = True
    ref_on = False
    for v in walk:
        mode = mppt_next_mode(mppt, mode, v)
        conv_on = converter_next_state(conv, conv_on, v)
        # reference two-state automatons driven only by threshold crossings
        if ref_bypass:
            ref_bypass = v < mppt.bypass_release_v
        else:
            ref_bypass = v < mppt.bypass_engage_v
        if ref_on:
            ref_on = v >= conv.v_off
        else:
            ref_on = v >= conv.v_on
        assert (mode == MODE_BYPASS) == ref_bypass
        assert conv_on == ref_on


def test_storage_isolated_capacitor_holds_voltage():
    sto = StorageModel(capacitance=1.0, esr=0.0, leak_resistance=math.inf,
                       buffer_capacitance=0.0)
    v, e_leak, e_esr, v_bus = storage_step(sto, 1.7, 0.0, 0.0, 1.0)
    assert v == 1.7
    assert e_leak == 0.0 and e_esr == 0.0
    assert v_bus == 1.7


def test_storage_rc_decay_matches_closed_form():
    C, R = 1.0, 5000.0
    sto = StorageModel(capacitance=C, esr=0.0, leak_resistance=R,
                       buffer_capacitance=0.0)
    v = 2.5
    n, dt = 1000, 2.0  # 0.4 time constants across 1000 steps
    for _ in range(n):
        v, _, _, _ = storage_step(sto, v, 0.0, 0.0, dt)
    exact = 2.5 * math.exp(-n * dt / (R * C))
    assert abs(v - exact) / exact < 1e-3


def test_storage_constant_power_charge_matches_closed_form():
    C = 0.5
    sto = StorageModel(capacitance=C, esr=0.0, leak_resistance=math.inf,
                       buffer_capacitance=0.0)
    v0, p = 0.5, 0.02
    v = v0
    t = 0.0
    for _ in range(2000):
        v, _, _, _ = storage_step(sto, v, p, 0.0, 0.1)
        t += 0.1
    exact = math.sqrt(v0 * v0 + 2.0 * p * t / C)
    assert abs(v - exact) / exact < 1e-3


def test_storage_esr_drop_exact():
    sto = StorageModel(capacitance=2.2, esr=6.9, leak_resistance=math.inf,
                       buffer_capacitance=0.0)
    v_new, _, e_esr, v_bus = storage_step(sto, 2.0, 0.0, 0.15, 1e-3)
    assert v_new - v_bus == 6.9 * 0.15  # the 1.04 V worst-case dip
    assert e_esr == pytest.approx(0.15 ** 2 * 6.9 * 1e-3)


def test_storage_buffer_absorbs_short_spike():
    heavy = StorageModel(capacitance=2.2, esr=6.9, leak_resistance=math.inf,
                         buffer_capacitance=400e-6)
    bare = StorageModel(capacitance=2.2, esr=6.9, leak_resistance=math.inf,
                        buffer_capacitance=0.0)
    _, _, _, v_bus_buf = storage_step(heavy, 2.0, 0.0, 0.15, 1e-3,
                                      v_bus_prev=2.0)
    _, _, _, v_bus_bare = storage_step(bare, 2.0, 0.0, 0.15, 1e-3)
    assert v_bus_buf > v_bus_bare + 0.3


@given(p1=st.floats(min_value=0.0, max_value=0.2),
       p2=st.floats(min_value=0.0, max_value=0.2))
@settings(max_examples=60, deadline=None)
def test_storage_voltage_monotone_in_input_power(p1, p2):
    sto = StorageModel(capacitance=1.0, esr=0.5, leak_resistance=1e4)
    lo, hi = sorted((p1, p2))
    v_lo, _, _, _ = storage_step(sto, 1.5, lo, 0.01, 0.1, v_bus_prev=1.49)
    v_hi, _, _, _ = storage_step(sto, 1.5, hi, 0.01, 0.1, v_bus_prev=1.49)
    assert v_hi >= v_lo - 1e-15


def test_storage_step_energy_balance_two_branch():
    sto = StorageModel(capacitance=0.5, esr=2.0, leak_resistance=1e4,
                       buffer_capacitance=400e-6)
    v_cap, v_bus = 2.4, 2.35
    p_in, i_out, dt = 3e-3, 0.02, 0.05
    v2, e_leak, e_esr, v_bus2 = storage_step(sto, v_cap, p_in, i_out, dt,
                                             v_bus_prev=v_bus)
    d_cap = 0.5 * sto.capacitance * (v2 ** 2 - v_cap ** 2)
    d_buf = 0.5 * sto.buffer_capacitance * (v_bus2 ** 2 - v_bus ** 2)
    supplied = p_in * dt - e_leak - e_esr - d_cap - d_buf
    # delivered to the load: integral of v_bus * i_out over the step
    tau = sto.esr * sto.buffer_capacitance
    a = math.exp(-dt / tau)
    v_inf = v_cap - sto.esr * i_out
    int_v_bus = v_inf * dt + (v_bus - v_inf) * tau * (1 - a)
    assert supplied == pytest.approx(i_out * int_v_bus, rel=1e-9)


def test_solve_load_current():
    # (v - R i) i == p for the stable root
    i = solve_load_current(2.0, 1.0, 0.5)
    assert (2.0 - i) * i == pytest.approx(0.5, rel=1e-12)
    # infeasible demand returns the max-power current
    assert solve_load_current(2.0, 1.0, 2.0) == pytest.approx(1.0)
    assert solve_load_current(2.0, 0.0, 0.5) == pytest.approx(0.25)


def test_converter_stays_off_below_threshold():
    conv = ConverterModel()
    assert not converter_next_state(conv, False, 1.99)
    assert converter_next_state(conv, False, conv.v_on)


def test_converter_draw_arithmetic():
    # the engine draws p_load / eta through the converter: with a lossless
    # storage the converter books exactly the (1 - eta) share of the draw
    ess = EssConfig(
        storage=StorageModel(capacitance=1.0, esr=0.0, leak_resistance=math.inf,
                             v_init=2.5, buffer_capacitance=0.0),
        converter=ConverterModel(efficiency=EfficiencyCurve.flat(0.8)))
    trace = IrradianceTrace(t=np.array([0.0, 600.0]), g=np.zeros(2))
    app = preset("TMP1")
    res = simulate(trace, None, ess, app,
                   SimConfig(dt_quiescent=0.2, end_policy="hard_stop"))
    led = res.ledger
    load = led.sss_total - led.sss_by_activity["off"]
    assert res.boots == 1 and load > 0.1
    assert led.converter_loss == pytest.approx(0.25 * load, rel=1e-9)


def test_converter_hysteresis_walk_stays_on():
    conv = ConverterModel()
    on = False
    for v in (2.1, 0.75, 2.1):
        on = converter_next_state(conv, on, v)
        assert on
    on = converter_next_state(conv, on, 0.69)
    assert not on


def test_residual_energy_values():
    assert residual_energy(StorageModel(capacitance=1.0), 0.0) == 0.0
    assert residual_energy(StorageModel(capacitance=2.2), 0.7) == pytest.approx(0.539)
    assert residual_energy(StorageModel(capacitance=0.54), 2.0) == pytest.approx(1.08)


def test_ideal_config_factory():
    ess = EssConfig.ideal(capacitance=1.0)
    assert ess.storage.esr == 0.0
    assert math.isinf(ess.storage.leak_resistance)
    assert ess.mppt.tracking_efficiency == 1.0
    assert ess.converter.efficiency.at(1.0) == 1.0


def test_model_validation():
    with pytest.raises(EssError):
        StorageModel(capacitance=0.0)
    with pytest.raises(EssError):
        MpptModel(bypass_engage_v=1.8, bypass_release_v=1.6)
    with pytest.raises(EssError):
        ConverterModel(v_on=0.5, v_off=0.7)
    with pytest.raises(EssError):
        EssConfig(storage=StorageModel(v_init=3.5))


def _nan_case(cls, **kwargs):
    field = next(k for k, v in kwargs.items() if np.isnan(v).any())
    return pytest.param(cls, kwargs, id=f"{cls.__name__}.{field}")


@pytest.mark.parametrize("cls,kwargs", [
    _nan_case(EfficiencyCurve, power_w=(1.0,), eta=(math.nan,)),
    _nan_case(EfficiencyCurve, power_w=(math.nan,), eta=(0.9,)),
    _nan_case(EfficiencyCurve, power_w=(1e-3, math.nan), eta=(0.6, 0.9)),
    _nan_case(HarvesterModel, k_mpp=math.nan),
    *[_nan_case(MpptModel, **{name: math.nan}) for name in (
        "bypass_engage_v", "bypass_release_v", "cold_start_below_v",
        "storage_v_max", "tracking_efficiency", "cold_start_efficiency",
        "bypass_efficiency")],
    *[_nan_case(StorageModel, **{name: math.nan}) for name in (
        "capacitance", "esr", "leak_resistance", "v_init",
        "buffer_capacitance")],
    *[_nan_case(ConverterModel, **{name: math.nan})
      for name in ("v_on", "v_off")],
])
def test_nan_model_parameters_are_rejected(cls, kwargs):
    with pytest.raises(EssError):
        cls(**kwargs)


def test_infinite_leak_resistance_stays_valid():
    assert StorageModel(leak_resistance=math.inf).leak_resistance == math.inf
