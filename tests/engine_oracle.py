"""Test oracle: the engine's step loop before closed-form quiescent spans.

``_run_full`` and ``_skip_span`` are the functions ``ehsim.engine`` used
when every off and idle step was integrated one step at a time and only
dark, powered-off spans (under ``skip_nights``) were advanced in closed
form; ``find_dark_segments`` is the ``ehsim.traces`` helper that found
those spans. They are kept verbatim so the differential tests can hold the
production engine to them: the same events, bytes and boots, and ledgers
within the multirate tolerances.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from ehsim.app import (
    PHASES, PHASE_INDEX, PHASE_OFF, PHASE_IDLE, PHASE_SAMPLING,
    AppSpec, AppState, app_step, time_to_transition,
)
from ehsim.engine import (
    _PHASE_TO_ACTIVITY, _V_DEAD, ConfigError, EnergyLedger, SimConfig,
    SimResult, _Bins, _package, _resolution_guard, finalize_stack,
)
from ehsim.ess import (
    ConverterModel, EfficiencyCurve, EssConfig, EssState, MODE_SATURATED,
    converter_next_state, harvester_mpp_power, harvester_power,
    mppt_next_mode, mppt_step, solve_load_current, storage_step,
)
from ehsim.traces import EventTrace, IrradianceTrace, TraceError


def find_dark_segments(trace: IrradianceTrace,
                       threshold: float = 0.0) -> list[tuple[float, float]]:
    """Maximal intervals where irradiance is at or below ``threshold``.

    Under zero-order hold, sample i covers [t_i, t_{i+1}); a dark final
    sample closes its segment at the trace end.
    """
    if threshold < 0:
        raise TraceError("threshold must be >= 0")
    dark = trace.g <= threshold
    segments: list[tuple[float, float]] = []
    start: float | None = None
    n = len(trace.t)
    for i in range(n):
        if dark[i] and start is None:
            start = float(trace.t[i])
        elif not dark[i] and start is not None:
            segments.append((start, float(trace.t[i])))
            start = None
    if start is not None and start < float(trace.t[-1]):
        segments.append((start, float(trace.t[-1])))
    return segments


def simulate(trace: IrradianceTrace, events: EventTrace | None,
             ess: EssConfig | None, app: AppSpec, cfg: SimConfig) -> SimResult:
    """``ehsim.engine.simulate`` with the oracle step loop."""
    _resolution_guard(app, cfg)
    if events is not None and len(events.t) and (
            events.t[0] < trace.t[0] - 1e-9 or events.t[-1] > trace.t[-1] + 1e-9):
        raise ConfigError("event times must lie within the trace span")
    t_wall0 = time.perf_counter()
    result = _run_full(trace, events, ess, app, cfg)
    return replace(result, wall_time_s=time.perf_counter() - t_wall0)


def _run_full(trace: IrradianceTrace, events: EventTrace | None,
              ess: EssConfig | None, app: AppSpec, cfg: SimConfig) -> SimResult:
    # Profiling: an ideal source pins the bus at the supply voltage and
    # feeds the load through a lossless converter that never switches off.
    ideal = cfg.supply_override is not None
    if ideal:
        v_supply = float(cfg.supply_override)
        ess = replace(ess or EssConfig(), converter=ConverterModel(
            v_on=v_supply, v_off=0.0, efficiency=EfficiencyCurve.flat(1.0)))
    harv, mppt, sto, conv = ess.harvester, ess.mppt, ess.storage, ess.converter
    agg = cfg.aggregation_step
    dt_fine = cfg.dt_active
    dt_coarse = cfg.dt_quiescent
    t0 = float(trace.t[0])
    t_end = float(trace.t[-1])
    duration = t_end - t0
    bins = _Bins(int(math.ceil(duration / agg - 1e-9)))

    linear_harvester = harv.model_kind == "linear_mpp"
    k_mpp = harv.k_mpp if linear_harvester else 0.0
    conv_eff = conv.efficiency
    C = sto.capacitance
    Cb = sto.buffer_capacitance
    R = sto.esr
    v_max = mppt.storage_v_max
    p_off = app.p_off_residual
    sensor_frac = app.sensor_fraction_sampling
    # Fine stepping resolves the load-transient window at every phase entry
    # (boots, burst onsets); slow threshold crossings are resolved at the
    # coarse step, which stays well under the aggregation cadence.
    fine_window = max(8.0 * dt_fine, 6.0 * R * Cb)
    quadratic_bus = Cb == 0.0 and R > 0.0
    stop_at_end = cfg.end_policy == "hard_stop"

    state = EssState.initial(ess)
    v_cap = state.v_cap
    v_bus = state.v_bus
    conv_on = state.converter_on
    tr_t = trace.t
    tr_g = trace.g
    tr_idx = 0
    n_tr = len(tr_t)
    if ideal:
        # Nothing is stored behind the source: no transients to resolve
        # finely, no threshold crossings to clip onto, nothing to strand.
        # The trace only sets the run's span, so its samples clip no step.
        v_cap = v_bus = v_supply
        conv_on = True
        C = Cb = R = 0.0
        fine_window = 0.0
        n_tr = 1
        stop_at_end = True
    app_state = AppState()
    ledger = EnergyLedger()
    ledger.initial_storage = 0.5 * C * v_cap * v_cap + 0.5 * Cb * v_bus * v_bus
    sss = ledger.sss_by_activity
    e_harvest = e_mppt = e_leak_tot = e_esr_tot = e_conv_tot = 0.0

    dark_segments = (find_dark_segments(trace)
                     if cfg.skip_nights else [])
    dark_idx = 0

    ev_t = events.t if events is not None else np.empty(0)
    n_events = len(ev_t)
    ev_idx = 0
    pending = False
    pending_count = 0
    observed_total = 0
    detected_at_event = 0
    event_log: list[tuple[float, int]] = []

    t = t0
    bin_idx = 0
    bin_label_s = [0.0] * len(PHASES)
    on_time = 0.0
    total_bytes = 0
    phase_entry_t = t0
    last_phase = app_state.phase
    extension_deadline = t_end + cfg.max_extension_s
    prev_de_rate = 0.0  # last step's net storage power, for crossing clips
    prev_i_out = 0.0
    v_on_sq = conv.v_on * conv.v_on
    v_off_sq = conv.v_off * conv.v_off
    v_off = conv.v_off
    ckpt_v = app.checkpoint_v

    b_harvest = bins.harvest
    b_mppt = bins.mppt
    b_conv = bins.conv
    b_soc = bins.soc
    b_sensor = bins.sensor
    b_sdelta = bins.sdelta
    b_on = bins.on_s
    b_labels = bins.labels
    b_vv = bins.volt_v

    while True:
        draining = t >= t_end - 1e-9
        if draining and (stop_at_end or not conv_on
                         or t >= extension_deadline):
            break

        # Deliver events due now (at-event detection uses the live state).
        while ev_idx < n_events and ev_t[ev_idx] <= t + 1e-9:
            pending = True
            pending_count += 1
            app_state.events_offered += 1
            event_log.append((float(ev_t[ev_idx]), 1 if conv_on else 0))
            if conv_on:
                detected_at_event += 1
            ev_idx += 1

        # Fast-forward dark spans while the whole system is off.
        if (dark_segments and not conv_on and app_state.phase == PHASE_OFF
                and abs((t - t0) / agg - round((t - t0) / agg)) < 1e-9):
            while (dark_idx < len(dark_segments)
                   and dark_segments[dark_idx][1] <= t + 1e-9):
                dark_idx += 1
            if dark_idx < len(dark_segments):
                seg_lo, seg_hi = dark_segments[dark_idx]
                if seg_lo <= t + 1e-9:
                    nxt = ev_t[ev_idx] if ev_idx < n_events else math.inf
                    stop = min(seg_hi, nxt, t_end)
                    stop_b = t0 + math.floor((stop - t0) / agg + 1e-9) * agg
                    if stop_b > t + agg - 1e-9:
                        # A skip ends by the trace end, so its rows fit in
                        # the bins allocated up front.
                        ledger.storage_loss_leak = e_leak_tot
                        v_cap, v_bus, t, bin_idx = _skip_span(
                            t, stop_b, v_cap, v_bus, sto, app, ledger, sss,
                            bins, bin_idx, t0, agg)
                        e_leak_tot = ledger.storage_loss_leak
                        state.mppt_mode = mppt_next_mode(mppt, state.mppt_mode,
                                                         v_cap)
                        phase_entry_t = t
                        while tr_idx + 1 < n_tr and tr_t[tr_idx + 1] <= t + 1e-9:
                            tr_idx += 1
                        continue

        # Step size: fine while resolving burst transients or an imminent
        # bus collapse (the demanded current would drag the bus below the
        # converter's hold voltage).
        phase = app_state.phase
        burst = phase != PHASE_OFF and phase != PHASE_IDLE
        fine = (burst and (t - phase_entry_t) < fine_window) or (
            conv_on and R > 0.0 and v_cap - R * prev_i_out < v_off)
        dt_base = dt_fine if fine else dt_coarse

        t_next = t0 + (bin_idx + 1) * agg
        if tr_idx + 1 < n_tr and tr_t[tr_idx + 1] < t_next:
            t_next = tr_t[tr_idx + 1]
        if ev_idx < n_events and ev_t[ev_idx] < t_next:
            t_next = ev_t[ev_idx]
        if not draining and t_end < t_next:
            t_next = t_end

        conv_on = converter_next_state(conv, conv_on, v_bus)
        ttt = time_to_transition(app, app_state, conv_on)
        dt = t_next - t
        if dt_base < dt:
            dt = dt_base
        if ttt < dt:
            dt = ttt
        # Clip onto predicted threshold crossings so hysteresis events
        # resolve at fine granularity even under coarse stepping.
        if not fine:
            if not conv_on and prev_de_rate > 1e-15 and v_cap < conv.v_on:
                t_cross = 0.5 * C * (v_on_sq - v_cap * v_cap) / prev_de_rate
                if t_cross < dt:
                    dt = t_cross if t_cross > dt_fine else dt_fine
            elif conv_on and prev_de_rate < -1e-15:
                thr_sq = ckpt_v * ckpt_v if v_cap > ckpt_v else v_off_sq
                if v_cap * v_cap > thr_sq:
                    t_cross = 0.5 * C * (v_cap * v_cap - thr_sq) / -prev_de_rate
                    if t_cross < dt:
                        dt = t_cross if t_cross > dt_fine else dt_fine
        if dt < 1e-9:
            dt = 1e-9

        # Application under the converter's power-good signal.
        app_state, p_load, label, bytes_out = app_step(
            app, app_state, conv_on, v_cap, pending, dt)
        total_bytes += bytes_out
        if app_state.event_observed:
            observed_total += pending_count
            pending = False
            pending_count = 0
        if label != last_phase:
            last_phase = label
            phase_entry_t = t

        # Load draw from the bus.
        if conv_on:
            p_drawn = p_load / conv_eff.at(p_load)
        else:
            p_load = p_off if v_bus > _V_DEAD else 0.0
            p_drawn = p_load

        if ideal:
            # The source delivers exactly the draw and holds the bus.
            p_mpp = p_sto = p_drawn
            p_mloss = e_leak = e_esr = i_out = 0.0
            v_cap_new = v_cap
            v_bus_new = v_bus
        else:
            # Harvest through the MPPT.
            g = 0.0 if draining else tr_g[tr_idx]
            state.v_cap = v_cap
            if g > 0.0:
                if linear_harvester:
                    p_mpp = k_mpp * g
                else:
                    nm = mppt_next_mode(mppt, state.mppt_mode, v_cap)
                    if nm == "bypass":
                        p_mpp = harvester_power(harv, g, v_cap)
                    else:
                        p_mpp = harvester_mpp_power(harv, g)
                p_sto, p_mloss, mode = mppt_step(mppt, state.mppt_mode,
                                                 state.v_cap, p_mpp)
                state.mppt_mode = mode
            else:
                p_mpp = p_sto = p_mloss = 0.0
                state.mppt_mode = mppt_next_mode(mppt, state.mppt_mode, v_cap)

            bus_collapse = False
            if quadratic_bus:
                i_out = solve_load_current(v_cap, R, p_drawn)
                if p_drawn * dt - (v_cap - R * i_out) * i_out * dt > 1e-15:
                    # Demand exceeds the maximum power the ESR lets through:
                    # no stable operating point, the bus loses regulation.
                    bus_collapse = True
            else:
                i_out = p_drawn / v_bus if v_bus > 1e-9 else 0.0

            v_cap_new, e_leak, e_esr, v_bus_new = storage_step(
                sto, v_cap, p_sto, i_out, dt, v_bus_prev=v_bus)
            if bus_collapse:
                v_bus_new = 0.0

            # Saturation: curtail whatever would push the storage past v_max.
            if v_cap_new > v_max:
                excess = 0.5 * C * (v_cap_new * v_cap_new - v_max * v_max)
                v_cap_new = v_max
                p_mloss += excess / dt
                p_sto -= excess / dt
                state.mppt_mode = MODE_SATURATED

        # Energy bookings. What the storage node actually supplied closes
        # the balance exactly; any gap versus the nominal draw (bus sag,
        # collapse) comes out of the converter-then-load share.
        e_h = p_mpp * dt
        e_ml = p_mloss * dt
        e_supplied = p_sto * dt - e_leak - e_esr - (
            0.5 * C * (v_cap_new * v_cap_new - v_cap * v_cap)
            + 0.5 * Cb * (v_bus_new * v_bus_new - v_bus * v_bus))
        if e_supplied < 0.0:
            e_supplied = 0.0
        if conv_on:
            e_load = p_load * dt
            e_conv = e_supplied - e_load
            if e_conv < 0.0:
                e_load += e_conv
                e_conv = 0.0
                if e_load < 0.0:
                    e_load = 0.0
        else:
            e_load = e_supplied  # off-residual draw, no converter in the path
            e_conv = 0.0
        e_harvest += e_h
        e_mppt += e_ml
        e_leak_tot += e_leak
        e_esr_tot += e_esr
        e_conv_tot += e_conv
        sss[_PHASE_TO_ACTIVITY[label]] += e_load

        b_harvest[bin_idx] += e_h
        b_mppt[bin_idx] += e_ml
        b_conv[bin_idx] += e_conv
        if label == PHASE_SAMPLING:
            e_sens = e_load * sensor_frac
            b_sensor[bin_idx] += e_sens
            b_soc[bin_idx] += e_load - e_sens
        else:
            b_soc[bin_idx] += e_load
        b_sdelta[bin_idx] += e_h - e_ml - e_conv - e_load
        bin_label_s[PHASE_INDEX[label]] += dt
        if label != PHASE_OFF:
            b_on[bin_idx] += dt
            on_time += dt

        prev_de_rate = 0.5 * C * (v_cap_new * v_cap_new - v_cap * v_cap) / dt
        prev_i_out = i_out
        v_cap = v_cap_new
        v_bus = v_bus_new
        t += dt

        while tr_idx + 1 < n_tr and tr_t[tr_idx + 1] <= t + 1e-9:
            tr_idx += 1
        if t >= t0 + (bin_idx + 1) * agg - 1e-9:
            mx = max(bin_label_s)
            b_labels[bin_idx] = bin_label_s.index(mx) if mx > 0.0 else 0
            b_vv[bin_idx] = v_cap
            for k in range(len(bin_label_s)):
                bin_label_s[k] = 0.0
            bin_idx += 1
            bins.n = bin_idx
            if bins.ensure(bin_idx + 1):
                b_harvest, b_mppt, b_conv = bins.harvest, bins.mppt, bins.conv
                b_soc, b_sensor, b_sdelta = bins.soc, bins.sensor, bins.sdelta
                b_on, b_labels = bins.on_s, bins.labels
                b_vv = bins.volt_v

    if max(bin_label_s) > 0.0:  # partial final bin (hard stop mid-bin)
        mx = max(bin_label_s)
        b_labels[bin_idx] = bin_label_s.index(mx)
        b_vv[bin_idx] = v_cap
        bins.n = bin_idx + 1

    ledger.harvest_input = e_harvest
    ledger.mppt_loss = e_mppt
    ledger.storage_loss_leak = e_leak_tot
    ledger.storage_loss_esr = e_esr_tot
    ledger.converter_loss = e_conv_tot

    # An ideal source stores nothing, so it strands nothing.
    v_left, v_bus_left = (0.0, 0.0) if ideal else (v_cap, v_bus)
    finalize_stack(ledger, v_left, sto, v_bus_final=v_bus_left)
    return _package(ledger, bins, app_state, total_bytes, observed_total,
                    detected_at_event, on_time, t - t0, v_cap, conv_on,
                    event_log, agg)


def _skip_span(t: float, stop: float, v_cap: float, v_bus: float,
               sto, app: AppSpec, ledger: EnergyLedger, sss: dict,
               bins: _Bins, bin_idx: int, t0: float, agg: float
               ) -> tuple[float, float, float, int]:
    """Advance a dark, powered-off span analytically.

    Leakage follows the closed-form RC decay of the combined (main +
    buffer) capacitance; the off-residual draw is folded in as a constant
    sink, which keeps the whole span in closed form. Per-bin profile rows
    are still emitted so the reported timeline stays on the unskipped axis.
    """
    span = stop - t
    c_eff = sto.capacitance + sto.buffer_capacitance
    e0 = 0.5 * sto.capacitance * v_cap * v_cap \
        + 0.5 * sto.buffer_capacitance * v_bus * v_bus
    a = (2.0 / (sto.leak_resistance * c_eff)
         if math.isfinite(sto.leak_resistance) else 0.0)
    b = app.p_off_residual if math.sqrt(2.0 * e0 / c_eff) > _V_DEAD else 0.0
    e_cut = 0.5 * c_eff * _V_DEAD * _V_DEAD

    # time at which the node goes dead and the residual draw stops
    if b > 0.0 and e0 > e_cut:
        if a == 0.0:
            s_cut = (e0 - e_cut) / b
        else:
            s_cut = math.log((e0 + b / a) / (e_cut + b / a)) / a
        s_cut = min(s_cut, span)
    else:
        s_cut = 0.0
        b = 0.0

    n_span = int(round(span / agg))
    edges = np.arange(n_span + 1) * agg
    drawn = np.minimum(edges, s_cut)
    if a == 0.0:
        e_edges = e0 - b * drawn
    else:
        e_edges = (e0 + b / a) * np.exp(-a * drawn) - b / a
        decay_only = edges > s_cut
        if np.any(decay_only):
            e_at_cut = (e0 + b / a) * math.exp(-a * s_cut) - b / a
            e_edges[decay_only] = e_at_cut * np.exp(-a * (edges[decay_only] - s_cut))
    e_edges = np.maximum(e_edges, 0.0)

    res_draw = b * np.diff(drawn)
    e_end = float(e_edges[-1])
    leak_total = e0 - e_end - float(res_draw.sum())

    sl = slice(bin_idx, bin_idx + n_span)
    bins.soc[sl] += res_draw
    bins.sdelta[sl] -= res_draw
    bins.labels[sl] = PHASE_INDEX[PHASE_OFF]
    bins.volt_v[sl] = np.sqrt(2.0 * e_edges[1:] / c_eff)
    bins.n = max(bins.n, bin_idx + n_span)

    ledger.storage_loss_leak += leak_total
    sss["off"] += float(res_draw.sum())

    v_end = math.sqrt(2.0 * e_end / c_eff)
    return v_end, v_end, stop, bin_idx + n_span
