"""Discrete-time simulation coupling trace -> supply chain -> application.

One step reads the irradiance, extracts harvest through the MPPT, runs the
application state machine against the converter's power-good signal, draws
the load from the storage, and integrates the capacitor by energy. Every
joule extracted from the environment is booked to exactly one ledger
category, so the run-level energy stack closes to numerical precision.

Time stepping is multi-rate: a fine step resolves burst transients (ESR
dips, boot edges) and a coarse step covers the rest of the active phases
(boot, sampling, communicating, backup), with every step clipped to the
next application transition, trace sample, event, or aggregation boundary.
Quiescent spans, with the app off or idle, the converter state holding, a
constant irradiance sample, no event due and no fine window open, are
advanced in closed form over whole aggregation bins (see :func:`_advance_span`).
A plain run takes every lit span with the node off and every idle span;
compared with stepping those spans, this changes the energy figures of
non-ideal runs in their last digits, by design. Dark bins (irradiance
exactly 0) with the node off are stepped, as a platform replaying the trace
in real time spends them, but by their own evaluator (see
:func:`_step_dark_span`), which repeats only what the general step does
there, bit for bit; ``SimConfig.skip_nights`` (the ``st_sp_sn`` plan sets
it) swaps in the closed form for them. Runs are deterministic: identical
inputs produce identical results.

Profiling runs (``SimConfig.supply_override``) take the same step loop with
an ideal source as the supply model: the source pins the bus at the given
voltage and delivers exactly what the load draws, through a lossless
converter that never switches off. Harvester, MPPT and storage are skipped,
so there are no fine or crossing-clipped steps, and the run stops at the
trace end. The source's energy is booked as the run's input
(``harvest_input``), so a profiling ledger closes like any other. These
runs take no closed-form spans, so the recorded profiles stay bit for bit;
neither does an IV-surface harvester while its tracker is in bypass,
because its power then depends on the storage voltage.
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .app import (
    PHASES, PHASE_INDEX, PHASE_OFF, PHASE_IDLE, PHASE_SAMPLING,
    AppSpec, AppState, ActivityProfile, app_step, time_to_transition,
)
from .ess import (
    ConverterModel, EfficiencyCurve, EssConfig, EssState, MODE_BYPASS,
    MODE_COLD_START, MODE_SATURATED, MODE_TRACKING, converter_next_state,
    harvester_mpp_power, harvester_power, mppt_next_mode, mppt_step,
    residual_energy, solve_load_current, storage_step,
)
from .traces import EventTrace, IrradianceTrace

__all__ = [
    "SimConfig",
    "EnergyLedger",
    "EnergyStackProfile",
    "SimResult",
    "RunStats",
    "ConfigError",
    "ClosureError",
    "LEDGER_ACTIVITIES",
    "simulate",
    "finalize_stack",
]

# Ledger activity categories, keyed by app phase.
LEDGER_ACTIVITIES = ("off", "boot", "sampling_processing", "communicating",
                     "backup_restore", "idle")
_PHASE_TO_ACTIVITY = {
    "off": "off",
    "booting": "boot",
    "sampling": "sampling_processing",
    "communicating": "communicating",
    "backup": "backup_restore",
    "idle": "idle",
}

# Bus voltage below which a dead node stops drawing its off-residual power.
_V_DEAD = 0.05


class ConfigError(ValueError):
    """Invalid simulation configuration."""


class ClosureError(RuntimeError):
    """Energy ledger failed to close within tolerance; never silently absorbed."""


@dataclass(frozen=True)
class SimConfig:
    """Integration and bookkeeping parameters of one run."""

    dt_active: float = 1e-3
    dt_quiescent: float = 1e-1
    aggregation_step: float = 0.2
    end_policy: str = "drain_until_converter_off"
    skip_nights: bool = False
    supply_override: float | None = None
    max_extension_s: float = 14 * 86400.0

    def __post_init__(self):
        # Every range check is written so that a NaN fails it.
        for name in ("dt_active", "dt_quiescent", "aggregation_step"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be a finite time > 0")
        if not self.max_extension_s >= 0:
            raise ConfigError("max_extension_s must be >= 0")
        if self.dt_active > self.dt_quiescent:
            raise ConfigError("dt_active must not exceed dt_quiescent")
        ratio = self.aggregation_step / self.dt_quiescent
        if abs(ratio - round(ratio)) > 1e-9 or ratio < 1 - 1e-9:
            raise ConfigError("aggregation_step must be an integer multiple "
                              "of dt_quiescent")
        if self.end_policy not in ("hard_stop", "drain_until_converter_off"):
            raise ConfigError(f"unknown end_policy {self.end_policy!r}")
        if self.supply_override is not None and not (
                math.isfinite(self.supply_override) and self.supply_override > 0):
            raise ConfigError("supply_override must be a finite voltage > 0")


@dataclass
class EnergyLedger:
    """Cumulative per-category energy bookkeeping in joules: the whole-run
    energy stack."""

    harvest_input: float = 0.0
    mppt_loss: float = 0.0
    storage_loss_leak: float = 0.0
    storage_loss_esr: float = 0.0
    storage_residual: float = 0.0
    converter_loss: float = 0.0
    initial_storage: float = 0.0
    sss_by_activity: dict[str, float] = field(
        default_factory=lambda: {k: 0.0 for k in LEDGER_ACTIVITIES})

    @property
    def storage_loss(self) -> float:
        return self.storage_loss_leak + self.storage_loss_esr

    @property
    def sss_total(self) -> float:
        return sum(self.sss_by_activity.values())

    def total_input(self) -> float:
        """Energy supplied to the system: harvest plus pre-charged storage."""
        return self.harvest_input + self.initial_storage

    def closure_error(self) -> float:
        """Input minus all booked sinks; ~0 when the ledger closes."""
        return (self.total_input()
                - self.mppt_loss - self.storage_loss - self.storage_residual
                - self.converter_loss - self.sss_total)

    def as_dict(self) -> dict:
        return {
            "harvest_input_j": self.harvest_input,
            "initial_storage_j": self.initial_storage,
            "mppt_loss_j": self.mppt_loss,
            "storage_loss_j": self.storage_loss,
            "storage_loss_leak_j": self.storage_loss_leak,
            "storage_loss_esr_j": self.storage_loss_esr,
            "storage_residual_j": self.storage_residual,
            "converter_loss_j": self.converter_loss,
            "sss_by_activity_j": dict(self.sss_by_activity),
            "closure_error_j": self.closure_error(),
        }


@dataclass(frozen=True)
class EnergyStackProfile:
    """Per-aggregation-step signed energy stacks.

    Consumption categories are non-negative; ``storage_delta`` is signed,
    positive when the energy flowing into the storage node (stored plus
    storage-internal losses) exceeded what was drawn out. Within each step
    ``harvest == mppt_loss + converter_loss + soc + sensor + storage_delta``
    exactly.
    """

    step_len: float
    t_start: np.ndarray
    harvest: np.ndarray
    mppt_loss: np.ndarray
    converter_loss: np.ndarray
    soc_energy: np.ndarray
    sensor_energy: np.ndarray
    storage_delta: np.ndarray

    def __len__(self) -> int:
        return len(self.t_start)


@dataclass(frozen=True)
class RunStats:
    """How the step loop covered one run; kept out of ``result.json``.

    Every aggregation bin is either covered by a closed-form span or
    closed by one or more integrated steps.
    """

    steps: int = 0      # integrated steps
    spans: int = 0      # closed-form quiescent spans
    span_bins: int = 0  # aggregation bins those spans covered
    dark_steps: int = 0  # the steps the dark evaluator took, among ``steps``


@dataclass(frozen=True)
class SimResult:
    """Everything one run produces.

    ``ledger`` is the whole-run energy stack; ``duration_s`` is the run's
    simulated span, drain included. Provenance, such as the config hash, is
    the result file's business (:func:`ehsim.config.save_result`).
    """

    ledger: EnergyLedger
    profile: EnergyStackProfile
    activity: ActivityProfile
    throughput_bytes: int
    boots: int
    events_offered: int
    events_detected: int
    events_detected_at_event: int
    events_observed: int
    on_time_s: float
    duration_s: float
    wall_time_s: float
    v_cap_final: float
    converter_on_final: bool
    voltage_t: np.ndarray
    voltage_v: np.ndarray
    event_log: np.ndarray  # columns: t, powered_at_event (0/1)
    stats: RunStats


def finalize_stack(ledger: EnergyLedger, v_cap_final: float, storage, *,
                   v_bus_final: float | None = None,
                   tolerance: float = 1e-3) -> None:
    """Book the stranded storage energy and re-validate ledger closure.

    The residual is the main capacitor's half-C-V-squared at the final
    instant, plus the buffer's share when its final voltage is supplied.
    Raises :class:`ClosureError` if the ledger misses closure by more than
    ``tolerance`` of the total input.
    """
    res = residual_energy(storage, v_cap_final)
    if v_bus_final is not None and storage.buffer_capacitance > 0:
        res += 0.5 * storage.buffer_capacitance * v_bus_final * v_bus_final
    ledger.storage_residual = res
    err = ledger.closure_error()
    scale = max(ledger.total_input(), 1e-12)
    # Written so that NaN fails it, and an infinite input, against which any
    # error would fit, fails too.
    if not (abs(err) <= tolerance * scale + 1e-9 and math.isfinite(scale)):
        raise ClosureError(
            f"energy ledger closure error {err:.3e} J exceeds "
            f"{tolerance:.1e} of input {scale:.3e} J")


class _Bins:
    """Growable per-aggregation-step columns, zeroed at allocation.

    The voltage timeline is not stored: :func:`_package` derives it from
    the bin count. ``spans`` queues closed-form spans as packed doubles
    for :func:`_write_span_rows`; ``span_rows`` counts their bins.
    """

    _COLUMNS = ("harvest", "mppt", "conv", "soc", "sensor", "sdelta", "on_s",
                "volt_v", "labels")
    __slots__ = _COLUMNS + ("n", "cap", "spans", "span_rows")

    def __init__(self, n_nominal: int):
        self.n = 0
        self.cap = max(n_nominal + 8, 16)
        self.spans = bytearray()
        self.span_rows = 0
        for name in self._COLUMNS:
            dtype = np.int8 if name == "labels" else np.float64
            setattr(self, name, np.zeros(self.cap, dtype=dtype))

    def ensure(self, need: int) -> bool:
        """Grow to hold ``need`` rows; True if arrays were reallocated."""
        if need <= self.cap:
            return False
        self.cap = max(need, self.cap * 2)
        for name in self._COLUMNS:
            arr = getattr(self, name)
            out = np.zeros(self.cap, dtype=arr.dtype)
            out[:self.n] = arr[:self.n]
            setattr(self, name, out)
        return True


def _resolution_guard(app: AppSpec, cfg: SimConfig) -> None:
    limit = min(app.t_sample, app.t_comm, app.t_boot) / 2.0
    if cfg.dt_active > limit + 1e-12:
        raise ConfigError(
            f"dt_active={cfg.dt_active:g} exceeds the app resolution guard "
            f"min(t_sample, t_comm, t_boot)/2 = {limit:g}")


def simulate(trace: IrradianceTrace, events: EventTrace | None,
             ess: EssConfig | None, app: AppSpec, cfg: SimConfig) -> SimResult:
    """Run one deterministic simulation over the trace.

    With ``cfg.supply_override`` set, an ideal source at that voltage
    replaces the supply chain (profiling mode; ``ess`` may then be None):
    the application runs powered from the trace start to the trace end, the
    source delivers exactly the load's draw, and the ledger books that
    energy as ``harvest_input`` and closes on the application's consumption.
    Otherwise, with ``end_policy == 'drain_until_converter_off'`` the run
    extends past the trace end, on zero input, until the converter switches
    off; the stored remainder is then booked as storage residual.
    """
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
    # Without ESR the buffer is plain parallel capacitance on the one node,
    # so saturation curtails what would lift both past v_max.
    c_sat = C + Cb if R == 0.0 else C
    stop_at_end = cfg.end_policy == "hard_stop"

    state = EssState.initial(ess)
    v_cap = state.v_cap
    v_bus = state.v_bus
    conv_on = state.converter_on
    mppt_mode = state.mppt_mode
    # Plain lists: the loop reads them element by element, and a numpy
    # scalar would turn every sum it enters into slower numpy arithmetic.
    tr_t = trace.t.tolist()
    tr_g = trace.g.tolist()
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

    # Quiescent spans advance in closed form; dark ones with the node off
    # only under skip_nights. Profiling runs keep the per-step path.
    skip_dark = cfg.skip_nights
    g_until = _constant_until(trace)

    ev_t = events.t.tolist() if events is not None else []
    n_events = len(ev_t)
    ev_idx = 0
    pending = False
    pending_count = 0
    observed_total = 0
    detected_at_event = 0
    event_log: list[tuple[float, int]] = []

    t = t0
    bin_idx = 0
    bin_open_t = t0  # when the current bin opened; t equals it while it is empty
    t_edge = t0 + agg  # when the current bin closes
    # The open bin's sums; written to the arrays once, as it closes.
    a_harvest = a_mppt = a_conv = a_soc = a_sensor = a_sdelta = a_on = 0.0
    bin_label_s = [0.0] * len(PHASES)
    n_steps = n_spans = n_span_bins = n_dark_steps = 0
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

    b_harvest, b_mppt, b_conv = bins.harvest, bins.mppt, bins.conv
    b_soc, b_sensor, b_sdelta = bins.soc, bins.sensor, bins.sdelta
    b_on, b_labels, b_vv = bins.on_s, bins.labels, bins.volt_v

    while True:
        draining = t >= t_end - 1e-9

        # Deliver events due now (at-event detection uses the live state),
        # also those stamped at the trace end.
        while ev_idx < n_events and ev_t[ev_idx] <= t + 1e-9:
            pending = True
            pending_count += 1
            app_state.events_offered += 1
            event_log.append((ev_t[ev_idx], 1 if conv_on else 0))
            if conv_on:
                detected_at_event += 1
            ev_idx += 1

        if draining and (stop_at_end or not conv_on
                         or t >= extension_deadline):
            break

        phase = app_state.phase
        # Closed-form span over whole bins while only the storage moves: the
        # app off or idle, no fine window open, harvest and draw constant.
        if not ideal and t == bin_open_t and (
                phase == PHASE_IDLE
                and app_state.t_until_sample > _SPAN_MIN_BINS * agg
                and not (R > 0.0 and v_cap - R * prev_i_out < v_off)
                if conv_on else phase == PHASE_OFF):
            g = 0.0 if draining else tr_g[tr_idx]
            if conv_on or skip_dark or g > 0.0:
                if draining:
                    stop = extension_deadline
                else:
                    stop = g_until[tr_idx]
                    if t_end < stop:
                        stop = t_end
                if ev_idx < n_events and ev_t[ev_idx] < stop:
                    stop = ev_t[ev_idx]
                span = _advance_span(ess, app, ledger, bins, t0, agg, bin_idx,
                                     t, stop, v_cap, v_bus, g, mppt_mode,
                                     app_state)
                if span is not None:
                    (n, v_cap, v_bus, mppt_mode, prev_de_rate,
                     prev_i_out) = span
                    if phase != last_phase:
                        last_phase = phase
                        phase_entry_t = t
                    n_spans += 1
                    n_span_bins += n
                    bin_idx += n
                    bins.n = bin_idx
                    # The span wrote the bin; nothing carries into the next.
                    a_harvest = a_mppt = a_conv = a_soc = a_sensor = 0.0
                    a_sdelta = a_on = 0.0
                    b_harvest, b_mppt, b_conv = bins.harvest, bins.mppt, bins.conv
                    b_soc, b_sensor, b_sdelta = bins.soc, bins.sensor, bins.sdelta
                    b_on, b_labels, b_vv = bins.on_s, bins.labels, bins.volt_v
                    t_edge = t0 + (bin_idx + 1) * agg
                    t_span_end = t0 + bin_idx * agg
                    if conv_on:
                        on_time += t_span_end - t
                    t = bin_open_t = t_span_end
                    while tr_idx + 1 < n_tr and tr_t[tr_idx + 1] <= t + 1e-9:
                        tr_idx += 1
                    continue
            else:
                # Dark with the node off in a plain run (a drained one has
                # stopped): whole bins of plain steps.
                stop = t_end
                if ev_idx < n_events and ev_t[ev_idx] < stop:
                    stop = ev_t[ev_idx]
                (n, k, t, v_cap, v_bus, mppt_mode, prev_de_rate,
                 prev_i_out, tr_idx, e_leak_tot, e_esr_tot,
                 sss["off"]) = _step_dark_span(
                    ess, app, dt_coarse, t0, agg, bins, bin_idx, t, stop,
                    tr_t, tr_g, tr_idx, v_cap, v_bus, mppt_mode,
                    prev_de_rate, prev_i_out, e_leak_tot, e_esr_tot,
                    sss["off"])
                if n:
                    app_state.event_observed = False
                    n_steps += k
                    n_dark_steps += k
                    bin_idx += n
                    bins.n = bin_idx
                    bin_open_t = t
                    t_edge = t0 + (bin_idx + 1) * agg
                    continue

        # Step size: fine while resolving burst transients or an imminent
        # bus collapse (the demanded current would drag the bus below the
        # converter's hold voltage).
        burst = phase != PHASE_OFF and phase != PHASE_IDLE
        fine = (burst and (t - phase_entry_t) < fine_window) or (
            conv_on and R > 0.0 and v_cap - R * prev_i_out < v_off)
        dt_base = dt_fine if fine else dt_coarse

        t_next = t_edge
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
            if g > 0.0:
                if linear_harvester:
                    p_mpp = k_mpp * g
                else:
                    nm = mppt_next_mode(mppt, mppt_mode, v_cap)
                    if nm == "bypass":
                        p_mpp = harvester_power(harv, g, v_cap)
                    else:
                        p_mpp = harvester_mpp_power(harv, g)
                p_sto, p_mloss, mppt_mode = mppt_step(mppt, mppt_mode, v_cap,
                                                      p_mpp)
            else:
                p_mpp = p_sto = p_mloss = 0.0
                mppt_mode = mppt_next_mode(mppt, mppt_mode, v_cap)

            bus_collapse = False
            if quadratic_bus:
                i_out = solve_load_current(v_cap, R, p_drawn)
                bus_collapse = _bus_collapses(v_cap, R, p_drawn)
            else:
                i_out = p_drawn / v_bus if v_bus > 1e-9 else 0.0

            v_cap_new, e_leak, e_esr, v_bus_new = storage_step(
                sto, v_cap, p_sto, i_out, dt, v_bus_prev=v_bus)
            if bus_collapse:
                v_bus_new = 0.0

            # Saturation: curtail whatever would push the storage past v_max.
            if v_cap_new > v_max:
                excess = 0.5 * c_sat * (v_cap_new * v_cap_new - v_max * v_max)
                v_cap_new = v_max
                if R == 0.0:
                    v_bus_new = v_max
                p_mloss += excess / dt
                p_sto -= excess / dt
                mppt_mode = MODE_SATURATED

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

        a_harvest += e_h
        a_mppt += e_ml
        a_conv += e_conv
        if label == PHASE_SAMPLING:
            e_sens = e_load * sensor_frac
            a_sensor += e_sens
            a_soc += e_load - e_sens
        else:
            a_soc += e_load
        a_sdelta += e_h - e_ml - e_conv - e_load
        bin_label_s[PHASE_INDEX[label]] += dt
        if label != PHASE_OFF:
            a_on += dt
            on_time += dt
        n_steps += 1

        prev_de_rate = 0.5 * C * (v_cap_new * v_cap_new - v_cap * v_cap) / dt
        prev_i_out = i_out
        v_cap = v_cap_new
        v_bus = v_bus_new
        t += dt

        while tr_idx + 1 < n_tr and tr_t[tr_idx + 1] <= t + 1e-9:
            tr_idx += 1
        if t >= t_edge - 1e-9:
            # The arrays start zeroed: a zero sum stays unwritten, so a
            # column's pages stay untouched while nothing enters it.
            if a_harvest:
                b_harvest[bin_idx] = a_harvest
            if a_mppt:
                b_mppt[bin_idx] = a_mppt
            if a_conv:
                b_conv[bin_idx] = a_conv
            if a_soc:
                b_soc[bin_idx] = a_soc
            if a_sensor:
                b_sensor[bin_idx] = a_sensor
            if a_sdelta:
                b_sdelta[bin_idx] = a_sdelta
            if a_on:
                b_on[bin_idx] = a_on
            a_harvest = a_mppt = a_conv = a_soc = a_sensor = a_sdelta = 0.0
            a_on = 0.0
            label_idx = bin_label_s.index(max(bin_label_s))
            if label_idx:
                b_labels[bin_idx] = label_idx
            b_vv[bin_idx] = v_cap
            bin_label_s = [0.0] * len(PHASES)
            bin_idx += 1
            bin_open_t = t
            t_edge = t0 + (bin_idx + 1) * agg
            bins.n = bin_idx
            if bin_idx >= bins.cap:
                bins.ensure(bin_idx + 1)
                b_harvest, b_mppt, b_conv = bins.harvest, bins.mppt, bins.conv
                b_soc, b_sensor, b_sdelta = bins.soc, bins.sensor, bins.sdelta
                b_on, b_labels, b_vv = bins.on_s, bins.labels, bins.volt_v

    if max(bin_label_s) > 0.0:  # partial final bin (hard stop mid-bin)
        b_harvest[bin_idx] = a_harvest
        b_mppt[bin_idx] = a_mppt
        b_conv[bin_idx] = a_conv
        b_soc[bin_idx] = a_soc
        b_sensor[bin_idx] = a_sensor
        b_sdelta[bin_idx] = a_sdelta
        b_on[bin_idx] = a_on
        b_labels[bin_idx] = bin_label_s.index(max(bin_label_s))
        b_vv[bin_idx] = v_cap
        bins.n = bin_idx + 1

    _write_span_rows(bins, agg)
    # added to what the closed-form spans booked
    ledger.harvest_input += e_harvest
    ledger.mppt_loss += e_mppt
    ledger.storage_loss_leak += e_leak_tot
    ledger.storage_loss_esr += e_esr_tot
    ledger.converter_loss += e_conv_tot

    # An ideal source stores nothing, so it strands nothing.
    v_left, v_bus_left = (0.0, 0.0) if ideal else (v_cap, v_bus)
    finalize_stack(ledger, v_left, sto, v_bus_final=v_bus_left)
    return _package(ledger, bins, app_state, total_bytes, observed_total,
                    detected_at_event, on_time, t - t0, v_cap, conv_on,
                    event_log, agg,
                    stats=RunStats(n_steps, n_spans, n_span_bins,
                                   n_dark_steps))


# Shortest and longest closed-form span, in bins. A span costs about as
# much as one or two steps; the longest bounds the rows that wait for
# _write_span_rows, and those the dark evaluator holds between writes.
_SPAN_MIN_BINS = 4
_SPAN_MAX_BINS = 4096
# A queued span's record for _write_span_rows: 16 doubles.
_pack_span = struct.Struct("16d").pack
# A span's ESR loss is frozen at its start voltage, and i^2 R goes as
# 1 / v^2: the span also ends where the voltage has moved by this share,
# which keeps the frozen loss within 0.5% of the stepped one.
_SPAN_ESR_DRIFT = 0.0025


def _constant_until(trace: IrradianceTrace) -> list[float]:
    """Per sample, when the irradiance next changes (the trace end if never)."""
    g = trace.g
    change = np.flatnonzero(g[1:] != g[:-1]) + 1
    ends = np.append(trace.t[change], trace.t[-1])
    return ends[np.searchsorted(change, np.arange(len(g)), side="right")].tolist()


def _advance_span(ess: EssConfig, app: AppSpec, ledger: EnergyLedger,
                  bins: _Bins, t0: float, agg: float, bin_idx: int, t: float,
                  stop: float, v_cap: float, v_bus: float, g: float, mode: str,
                  app_state: AppState) -> tuple | None:
    """Advance the storage in closed form from the empty bin ``bin_idx``,
    opened at ``t``, over whole quiescent bins to at most ``stop``.

    While the app is off or idle and the converter state holds, a constant
    irradiance sample makes the storage input ``p_in``, the draw and its ESR
    loss (frozen at the span's start voltage) constant. The stored energy
    ``E = (C + Cb) v^2 / 2`` then follows ``dE/dt = p_in - p_out - a E``
    with the leak rate ``a = 2 / (R_leak (C + Cb))``; at ``storage_v_max``
    with a surplus, the storage holds and the tracker curtails the surplus.
    A span ends at the last bin edge before the storage voltage reaches a
    level at which the tracker mode, saturation, converter, checkpoint or
    off-residual draw would change, or moves by ``_SPAN_ESR_DRIFT`` while
    an ESR loss is frozen, and before the given stop time or the next
    sampling launch. The leak is booked from the exact solution; the
    last bin's draw takes up what the storage actually supplied, as the
    per-step loop books it, so the ledger closes.

    Queues the span's rows on ``bins``, adds its energies to ``ledger``
    and counts its time off ``app_state.t_until_sample`` while idle.
    Returns ``(n_bins, v_cap, v_bus, mode, de_rate, i_out)``, or None when
    fewer than ``_SPAN_MIN_BINS`` whole bins qualify.
    """
    t_bin = t0 + bin_idx * agg
    on = app_state.phase == PHASE_IDLE
    room = (stop - t_bin) / agg + 1e-9
    n = _SPAN_MAX_BINS if room >= _SPAN_MAX_BINS else math.floor(room)
    if on:  # end before the next sampling launch
        n = min(n, math.ceil((t + app_state.t_until_sample - t_bin) / agg
                             - 1e-9) - 1)
    if n < _SPAN_MIN_BINS:
        return None
    harv, mppt, sto, conv = ess.harvester, ess.mppt, ess.storage, ess.converter

    mode = mppt_next_mode(mppt, mode, v_cap)
    p_mpp = p_in = 0.0
    if g > 0.0:
        if harv.model_kind == "linear_mpp":
            p_mpp = harv.k_mpp * g
        elif mode == MODE_BYPASS:
            return None  # the IV surface's power depends on v_cap
        else:
            p_mpp = harvester_mpp_power(harv, g)
        p_in, _, mode = mppt_step(mppt, mode, v_cap, p_mpp)

    levels = [mppt.bypass_engage_v, mppt.bypass_release_v,
              mppt.cold_start_below_v, mppt.storage_v_max]
    if on:
        if not (v_bus >= conv.v_off and (app_state.checkpointed
                                         or v_cap >= app.checkpoint_v)):
            return None
        p_load = app.p_idle
        p_drawn = p_load / conv.efficiency.at(p_load)
        bus_levels = (conv.v_off,)
        if not app_state.checkpointed:
            levels.append(app.checkpoint_v)
    else:
        if v_bus >= conv.v_on:
            return None
        p_load = p_drawn = app.p_off_residual if v_bus > _V_DEAD else 0.0
        bus_levels = (conv.v_on, _V_DEAD)
    R = sto.esr
    if R > 0.0 and v_cap * v_cap <= 4.0 * R * p_drawn:
        return None  # the bus cannot carry the draw
    # The bus sits at x when v_cap = x + R * p_drawn / x. A bus that
    # still lags v_cap across such a level is about to switch something.
    for x in bus_levels:
        if x > 0.0:
            level = x + R * p_drawn / x
            if (v_bus >= x) != (v_cap >= level):
                return None
            levels.append(level)
    i_out = solve_load_current(v_cap, R, p_drawn)
    p_esr = i_out * i_out * R
    if p_esr > 0.0:
        levels += (v_cap * (1.0 - _SPAN_ESR_DRIFT),
                   v_cap * (1.0 + _SPAN_ESR_DRIFT))

    C, Cb = sto.capacitance, sto.buffer_capacitance
    c_eff = C + Cb
    a = 2.0 / (sto.leak_resistance * c_eff)
    e0 = 0.5 * c_eff * v_cap * v_cap
    slope = p_in - p_drawn - p_esr - a * e0  # dE/dt at the start
    if slope > 0.0 and v_cap >= mppt.storage_v_max:
        # Saturated: the storage holds, the tracker curtails the surplus.
        p_in -= slope
        slope = 0.0
        mode = MODE_SATURATED
    # E moves monotonically, so the nearest level ahead is reached first.
    if slope > 0.0:
        ahead = [x for x in levels if x >= v_cap]
        level = min(ahead) if ahead else None
    elif slope < 0.0:
        ahead = [x for x in levels if x <= v_cap]
        level = max(ahead) if ahead else None
    else:
        level = None
    if level is not None:
        # Reached within the n bins when |gap| < |slope| * phi(n agg).
        gap = 0.5 * c_eff * level * level - e0
        horizon = n * agg
        if abs(gap) < abs(slope) * (
                horizon if a == 0.0 else -math.expm1(-a * horizon) / a):
            q = gap / slope
            s_level = q if a == 0.0 else -math.log1p(-a * q) / a
            n = min(n, math.floor((t + s_level - t_bin) / agg))
            if n < _SPAN_MIN_BINS:
                return None

    # E(s) = e0 + slope * phi(s), phi(s) = (1 - exp(-a s)) / a, at the
    # bin ends; the first bin may have opened a hair after its edge. The end
    # state takes the last two as _write_span_rows does (np.expm1 on a scalar
    # rounds as on an array; math.expm1 does not).
    d0 = t_bin + agg - t
    span = d0 + (n - 1) * agg
    s_prev = (n - 2) * agg + d0
    if a == 0.0:
        phi_prev, phi_end, leak = s_prev, span, 0.0
    else:
        phi_prev = float(-np.expm1(-a * s_prev) / a)
        phi_end = float(-np.expm1(-a * span) / a)
        leak = a * e0 * span + slope * (span - phi_end)
    two_over_c = 2.0 / c_eff
    if slope == 0.0:
        v_prev = v_end = v_cap
    else:
        v_prev = math.sqrt(max((e0 + slope * phi_prev) * two_over_c, 0.0))
        v_end = math.sqrt(max((e0 + slope * phi_end) * two_over_c, 0.0))
    # Leave the bus as a step over the last bin would: the load current
    # set at its start voltage, and a buffered bus one step behind.
    i_end = solve_load_current(v_prev, R, p_drawn)
    v_bus_end = v_end if R == 0.0 else (
        (v_prev if Cb > 0.0 else v_end) - R * i_end)
    stored = (0.5 * C * (v_end * v_end - v_cap * v_cap)
              + 0.5 * Cb * (v_bus_end * v_bus_end - v_bus * v_bus))
    esr = p_esr * span

    # The last bin's draw takes up what the storage actually supplied; a
    # shortfall below zero, which a settling buffer bus can leave when
    # nothing is drawn, stays in the storage.
    p_ml = p_mpp - p_in
    p_conv = p_drawn - p_load
    supplied = p_drawn * agg + (
        p_in * span - leak - esr - stored - p_drawn * span)
    if supplied < 0.0:
        leak += supplied
        supplied = 0.0
    load_last = p_load * agg if on else supplied
    conv_last = supplied - load_last
    if conv_last < 0.0:
        load_last = supplied
        conv_last = 0.0
    bins.ensure(bin_idx + n + 1)
    if bins.span_rows + n > _SPAN_MAX_BINS:  # bounds the writer's temporaries
        _write_span_rows(bins, agg)
    bins.spans += _pack_span(bin_idx, n, d0, e0, slope, v_cap, a, two_over_c,
                             p_mpp, p_ml, p_conv, p_load, conv_last,
                             load_last, on, PHASE_INDEX[app_state.phase])
    bins.span_rows += n
    de_rate = 0.5 * C * (v_end * v_end - v_prev * v_prev) / agg
    ledger.harvest_input += p_mpp * span
    ledger.mppt_loss += p_ml * span
    ledger.storage_loss_leak += leak
    ledger.storage_loss_esr += esr
    ledger.converter_loss += p_conv * (span - agg) + conv_last
    ledger.sss_by_activity[_PHASE_TO_ACTIVITY[app_state.phase]] += (
        p_load * (span - agg) + load_last)
    if on:
        app_state.t_until_sample -= span
    return n, v_end, v_bus_end, mode, de_rate, i_end


def _write_span_rows(bins: _Bins, agg: float) -> None:
    """Write every queued span's rows in one numpy pass: rate x bin length
    (``d0`` for the first bin) but the last bin's queued draw, and voltages
    by the float operations of :func:`_advance_span`'s end state."""
    if not bins.spans:
        return
    (lo, n, d0, e0, slope, v0, a, two_over_c, p_mpp, p_ml, p_conv, p_load,
     conv_last, load_last, on, label) = np.frombuffer(
         bins.spans).reshape(-1, 16).T
    bins.spans, bins.span_rows = bytearray(), 0
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
    rows = lo.astype(np.intp)[span_of] + k
    bins.volt_v[rows] = np.where(slope[span_of] == 0.0, v0[span_of], v)
    bins.labels[rows] = label[span_of]
    h, m, c, ld = p_mpp * agg, p_ml * agg, p_conv * agg, p_load * agg
    h0, m0, c0, ld0 = p_mpp * d0, p_ml * d0, p_conv * d0, p_load * d0
    for col, mid, head, tail in (
            (bins.harvest, h, h0, h), (bins.mppt, m, m0, m),
            (bins.conv, c, c0, conv_last), (bins.soc, ld, ld0, load_last),
            (bins.sdelta, h - m - c - ld, h0 - m0 - c0 - ld0,
             h - m - conv_last - load_last),
            (bins.on_s, on * agg, on * d0, on * agg)):
        x = mid[span_of]
        x[first], x[last] = head, tail
        col[rows] = x


def _bus_collapses(v_cap: float, R: float, p_drawn: float) -> bool:
    """Whether the bus behind an ESR with no buffer loses regulation.

    It does when no operating point delivers ``p_drawn``: ``4 R p_drawn``
    exceeds ``v_cap^2``, the branch in which :func:`solve_load_current`
    returns the maximum-power current instead of a root.
    """
    return 4.0 * R * p_drawn > v_cap * v_cap


def _step_dark_span(ess: EssConfig, app: AppSpec, dt_step: float,
                    t0: float, agg: float, bins: _Bins, bin_idx: int,
                    t: float, stop: float, tr_t: list, tr_g: list,
                    tr_idx: int, v_cap: float, v_bus: float, mode: str,
                    de_rate: float, i_out: float, e_leak_tot: float,
                    e_esr_tot: float, e_off: float) -> tuple:
    """Step whole dark bins with the node off, from the empty bin
    ``bin_idx`` opened at ``t``, exactly as the general step would.

    In the dark, with the converter off, a step only moves the storage:
    its leak, and the off-residual draw while the bus is above
    ``_V_DEAD``. Each step is ``min(dt_step, t_edge - t)`` long. It
    computes the tracker's latch (:func:`mppt_next_mode`) inline, and on a
    buffered chain (ESR and buffer both non-zero) also the bus current and
    :func:`storage_step`'s two-branch update, the decay factor again only
    when the step length changes. The inlined arithmetic
    mirrors ``storage_step``'s expressions in its order of operations, with
    no charger input (its ``e_in`` of 0.0 adds nothing); a change to
    ``storage_step`` must be made here too, and the dark differential test
    fails until it is. A store that the step exhausts, a demand beyond the
    short-circuit current, and the chains without ESR or without a buffer
    call :func:`storage_step` (and, behind an ESR with no buffer,
    :func:`solve_load_current` and :func:`_bus_collapses`) as the general
    step does. Every running total (the leak and ESR losses, the off draw
    ``e_off``, the bin's load) adds the step's terms in the step's order,
    so the results are bit for bit those of the general step. A bin is
    stepped only whole; it is left to the general step where that step
    would do anything else: irradiance not exactly zero, a trace sample
    inside the bin, the bin reaching past ``stop`` (the next event or the
    trace end), the bus at ``v_on``, a rising store (the crossing clip), or
    a store past ``storage_v_max``.

    Writes the stepped bins' rows, in chunks of at most
    ``_SPAN_MAX_BINS``. Returns ``(n_bins, n_steps, t, v_cap, v_bus, mode,
    de_rate, i_out, tr_idx, e_leak_tot, e_esr_tot, e_off)``; ``n_bins`` is
    0, with the state as given, when no bin qualifies.
    """
    mppt, sto = ess.mppt, ess.storage
    C, Cb, R = sto.capacitance, sto.buffer_capacitance, sto.esr
    r_leak = sto.leak_resistance
    half_c, half_cb = 0.5 * C, 0.5 * Cb
    buffered = R > 0.0 and Cb > 0.0
    quadratic_bus = Cb == 0.0 and R > 0.0
    tau = R * Cb
    half_tau = tau / 2.0
    dt_a = 0.0  # the step length the decay factors were computed for
    engage_v, release_v = mppt.bypass_engage_v, mppt.bypass_release_v
    cold_v = mppt.cold_start_below_v
    v_max = mppt.storage_v_max
    v_on = ess.converter.v_on
    p_off = app.p_off_residual
    v_dead = _V_DEAD
    n_tr = len(tr_t)
    last_bin = bins.cap - 1  # the caller grows the arrays, not this loop
    bin0 = row0 = bin_idx
    n_steps = 0
    socs: list[float] = []  # the bins' load sums and closing voltages,
    volts: list[float] = []  # written once per chunk
    nxt = tr_t[tr_idx + 1]
    edge_stop = stop if stop < nxt else nxt
    t_edge = t0 + (bin_idx + 1) * agg
    ok = (tr_g[tr_idx] == 0.0 and v_bus < v_on and de_rate <= 1e-15
          and v_cap <= v_max and t_edge <= edge_stop and bin_idx < last_bin)
    a_soc = 0.0
    saved = None  # the open bin's opening state, once a step leaves it open
    while ok:
        dt = t_edge - t
        if dt_step < dt:
            dt = dt_step
        if dt < 1e-9:
            dt = 1e-9
        p_drawn = p_off if v_bus > v_dead else 0.0
        if v_cap < (release_v if mode == MODE_BYPASS else engage_v):
            m = MODE_BYPASS
        elif v_cap < cold_v and (mode == MODE_BYPASS
                                 or mode == MODE_COLD_START):
            m = MODE_COLD_START
        else:
            m = MODE_TRACKING
        vv = v_cap * v_cap
        if buffered:
            io = p_drawn / v_bus if v_bus > 1e-9 else 0.0
            e_cap = half_c * v_cap * v_cap
            e_leak = vv / r_leak * dt
            if e_leak > e_cap:
                e_leak = e_cap
            v_inf = v_cap - R * io
            if dt != dt_a:
                dt_a = dt
                a = math.exp(-dt / tau)
                one_a = 1.0 - a
                one_aa = 1.0 - a * a
            di = (v_cap - v_bus) / R - io
            e_out = v_cap * (io * dt + di * tau * one_a)
        if buffered and not ((v_inf < 0.0 and io > 0.0)
                             or e_out > e_cap - e_leak):
            e_esr = R * (io * io * dt + 2.0 * io * di * tau * one_a
                         + di * di * half_tau * one_aa)
            vb = v_inf + (v_bus - v_inf) * a
            if vb < 0.0:
                vb = 0.0
            x = vv + 2.0 * (0.0 - e_leak - e_out) / C
            vc = math.sqrt(0.0 if x < 0.0 else x)
        else:  # storage_step's rare branches; the chains it is not inlined for
            if quadratic_bus:
                io = solve_load_current(v_cap, R, p_drawn)
            else:
                io = p_drawn / v_bus if v_bus > 1e-9 else 0.0
            vc, e_leak, e_esr, vb = storage_step(sto, v_cap, 0.0, io, dt,
                                                 v_bus_prev=v_bus)
            if quadratic_bus and _bus_collapses(v_cap, R, p_drawn):
                vb = 0.0
        if vc > v_max:
            break  # saturation: the general step curtails
        de = half_c * (vc * vc - vv)
        e_load = 0.0 - e_leak - e_esr - (
            de + half_cb * (vb * vb - v_bus * v_bus))
        if e_load < 0.0:
            e_load = 0.0
        t_new = t + dt
        closes = t_new >= t_edge - 1e-9
        if not closes and saved is None:
            saved = (t, v_cap, v_bus, mode, de_rate, i_out, e_leak_tot,
                     e_esr_tot, e_off, n_steps)
        e_leak_tot += e_leak
        e_esr_tot += e_esr
        e_off += e_load
        a_soc += e_load
        de_rate = de / dt
        i_out = io
        v_cap = vc
        v_bus = vb
        mode = m
        t = t_new
        n_steps += 1
        # whether the next step would switch the converter on or clip
        ok = v_bus < v_on and de_rate <= 1e-15
        if not closes:
            continue
        socs.append(a_soc)
        volts.append(v_cap)
        a_soc = 0.0
        saved = None
        bin_idx += 1
        if len(volts) == _SPAN_MAX_BINS:
            _write_dark_rows(bins, row0, socs, volts)
            row0 = bin_idx
            socs, volts = [], []
        if nxt <= t + 1e-9:
            while tr_idx + 1 < n_tr and tr_t[tr_idx + 1] <= t + 1e-9:
                tr_idx += 1
            if tr_idx + 1 == n_tr:
                break
            nxt = tr_t[tr_idx + 1]
            edge_stop = stop if stop < nxt else nxt
            ok = ok and tr_g[tr_idx] == 0.0
        t_edge = t0 + (bin_idx + 1) * agg
        if t_edge > edge_stop or bin_idx >= last_bin:
            break
    if saved is not None:
        # The open bin did not close: the general step takes it whole.
        (t, v_cap, v_bus, mode, de_rate, i_out, e_leak_tot, e_esr_tot,
         e_off, n_steps) = saved
    if volts:
        _write_dark_rows(bins, row0, socs, volts)
    return (bin_idx - bin0, n_steps, t, v_cap, v_bus, mode, de_rate, i_out,
            tr_idx, e_leak_tot, e_esr_tot, e_off)


def _write_dark_rows(bins: _Bins, lo: int, socs: list, volts: list) -> None:
    """Write stepped dark bins from row ``lo``: their closing voltages, and
    their load sums where non-zero, as the step's bin close writes them.

    A dark bin's storage column sums ``-e_load`` per step, which is the
    negated load sum exactly.
    """
    bins.volt_v[lo:lo + len(volts)] = volts
    soc = np.array(socs)
    nz = np.flatnonzero(soc)
    soc = soc[nz]
    nz += lo
    bins.soc[nz] = soc
    bins.sdelta[nz] = -soc


def _package(ledger: EnergyLedger, bins: _Bins, app_state: AppState,
             total_bytes: int, observed_total: int, detected_at_event: int,
             on_time: float, duration: float, v_cap: float, conv_on: bool,
             event_log: list, agg: float,
             stats: RunStats = RunStats()) -> SimResult:
    # The step-loop oracle of the differential tests passes no stats.
    # The bin columns are handed out as views: nothing else holds them.
    n = bins.n
    # Bin k starts at k agg and its voltage is sampled at (k + 1) agg;
    # built in place, with no integer temporary.
    t_start = np.arange(n, dtype=np.float64)
    t_start *= agg
    volt_t = np.arange(1, n + 1, dtype=np.float64)
    volt_t *= agg
    profile = EnergyStackProfile(
        step_len=agg,
        t_start=t_start,
        harvest=bins.harvest[:n],
        mppt_loss=bins.mppt[:n],
        converter_loss=bins.conv[:n],
        soc_energy=bins.soc[:n],
        sensor_energy=bins.sensor[:n],
        storage_delta=bins.sdelta[:n],
    )
    activity = ActivityProfile(step_len=agg,
                               on_off=bins.on_s[:n] >= 0.5 * agg,
                               labels=bins.labels[:n])
    log = np.asarray(event_log, dtype=float).reshape(-1, 2)
    return SimResult(
        ledger=ledger,
        profile=profile,
        activity=activity,
        throughput_bytes=total_bytes,
        boots=app_state.boots,
        events_offered=app_state.events_offered,
        events_detected=app_state.events_detected,
        events_detected_at_event=detected_at_event,
        events_observed=observed_total,
        on_time_s=on_time,
        duration_s=duration,
        wall_time_s=0.0,
        v_cap_final=v_cap,
        converter_on_final=conv_on,
        voltage_t=volt_t,
        voltage_v=bins.volt_v[:n],
        event_log=log,
        stats=stats,
    )
