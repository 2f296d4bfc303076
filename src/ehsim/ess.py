"""Energy Supply Subsystem models: harvester, MPPT, storage, output converter.

The chain is harvester -> MPPT (with dynamic bypass and cold start) ->
supercapacitor bank (with ESR, leakage, and an optional low-ESR buffer
capacitor) -> output DC/DC converter with turn-on/turn-off hysteresis.
All models are immutable configuration; :class:`EssState` is a run's
starting electrical state. Their range checks are written as
``not x > 0`` rather than ``x <= 0`` so that a NaN parameter fails them.

Power accounting is exact by construction: every step partitions extracted
harvest into delivered power plus explicitly booked losses, and the storage
update integrates energy (not voltage), so a downstream ledger can close to
numerical precision.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "EfficiencyCurve",
    "HarvesterModel",
    "MpptModel",
    "StorageModel",
    "ConverterModel",
    "EssConfig",
    "EssState",
    "EssError",
    "IvGridWarning",
    "harvester_power",
    "harvester_mpp_power",
    "mppt_next_mode",
    "mppt_step",
    "storage_step",
    "converter_next_state",
    "solve_load_current",
    "residual_energy",
    "MODE_COLD_START",
    "MODE_BYPASS",
    "MODE_TRACKING",
    "MODE_SATURATED",
]

MODE_COLD_START = "cold_start"
MODE_BYPASS = "bypass"
MODE_TRACKING = "tracking"
MODE_SATURATED = "saturated"


class EssError(ValueError):
    """Invalid electrical configuration."""


class IvGridWarning(UserWarning):
    """Operating point clamped to the IV-surface grid."""


@dataclass(frozen=True)
class EfficiencyCurve:
    """Piecewise-linear efficiency lookup keyed on power.

    A single point behaves as a flat efficiency. Queries outside the table
    clamp to the end points.
    """

    power_w: tuple[float, ...] = (1.0,)
    eta: tuple[float, ...] = (0.85,)

    def __post_init__(self):
        if len(self.power_w) != len(self.eta) or not self.power_w:
            raise EssError("efficiency table needs matching, non-empty columns")
        if not all(0 < e <= 1 for e in self.eta):
            raise EssError("efficiencies must be in (0, 1]")
        if not all(math.isfinite(p) for p in self.power_w):
            raise EssError("power breakpoints must be finite")
        if not all(b > a for a, b in zip(self.power_w, self.power_w[1:])):
            raise EssError("power breakpoints must be strictly increasing")

    @classmethod
    def flat(cls, eta: float) -> "EfficiencyCurve":
        return cls(power_w=(1.0,), eta=(eta,))

    def at(self, power: float) -> float:
        if len(self.eta) == 1:
            return self.eta[0]
        return float(np.interp(power, self.power_w, self.eta))


@dataclass(frozen=True)
class HarvesterModel:
    """Solar harvester, either a linear MPP abstraction or an IV surface.

    ``linear_mpp`` returns ``k_mpp * g`` at the maximum power point,
    independent of operating voltage; ``k_mpp`` absorbs cell area and
    efficiency. ``iv_surface`` interpolates current over an
    (irradiance, voltage) grid, capturing operating-point dependence.
    """

    model_kind: str = "linear_mpp"
    k_mpp: float = 1e-4
    iv_irradiance: np.ndarray | None = None   # shape (ni,)
    iv_voltage: np.ndarray | None = None      # shape (nv,)
    iv_current: np.ndarray | None = None      # shape (ni, nv)

    def __post_init__(self):
        if self.model_kind not in ("linear_mpp", "iv_surface"):
            raise EssError(f"unknown harvester kind {self.model_kind!r}")
        if self.model_kind == "linear_mpp":
            if not self.k_mpp > 0:
                raise EssError("k_mpp must be > 0")
        else:
            if self.iv_irradiance is None or self.iv_voltage is None or self.iv_current is None:
                raise EssError("iv_surface needs irradiance, voltage and current grids")
            gi = np.asarray(self.iv_irradiance, dtype=float)
            vi = np.asarray(self.iv_voltage, dtype=float)
            ci = np.asarray(self.iv_current, dtype=float)
            if ci.shape != (len(gi), len(vi)):
                raise EssError("iv_current must be shaped (n_irradiance, n_voltage)")
            if np.any(ci < 0):
                raise EssError("iv currents must be >= 0")
            if np.any(np.diff(ci, axis=1) > 1e-12):
                raise EssError("iv current must be non-increasing in voltage")
            object.__setattr__(self, "iv_irradiance", gi)
            object.__setattr__(self, "iv_voltage", vi)
            object.__setattr__(self, "iv_current", ci)


def _iv_row(model: HarvesterModel, g: float) -> np.ndarray:
    """Current over the voltage grid at irradiance ``g`` (linear in g)."""
    gi, ci = model.iv_irradiance, model.iv_current
    if g <= gi[0]:
        return ci[0]
    if g >= gi[-1]:
        return ci[-1]
    k = int(np.searchsorted(gi, g, side="right")) - 1
    w = (g - gi[k]) / (gi[k + 1] - gi[k])
    return ci[k] * (1.0 - w) + ci[k + 1] * w


def _clamp_grid_voltage(model: HarvesterModel, v: float) -> float:
    vi = model.iv_voltage
    if v < vi[0] or v > vi[-1]:
        warnings.warn(f"operating voltage {v:.3f} V outside IV grid, clamping",
                      IvGridWarning, stacklevel=3)
        return min(max(v, float(vi[0])), float(vi[-1]))
    return v


def harvester_power(model: HarvesterModel, g: float, v_operating: float = 0.0) -> float:
    """Extracted power at the given irradiance and operating voltage."""
    if g < 0:
        raise EssError("irradiance must be >= 0")
    if g == 0.0:
        return 0.0
    if model.model_kind == "linear_mpp":
        return model.k_mpp * g
    v = _clamp_grid_voltage(model, v_operating)
    return float(np.interp(v, model.iv_voltage, _iv_row(model, g))) * v


def harvester_mpp_power(model: HarvesterModel, g: float) -> float:
    """Maximum power point output at irradiance ``g``.

    For an IV surface the operating point is tracked over the recorded
    voltage grid (the tracker cannot do better than the recorded curve).
    """
    if g <= 0.0:
        return 0.0
    if model.model_kind == "linear_mpp":
        return model.k_mpp * g
    return float(np.max(_iv_row(model, g) * model.iv_voltage))


@dataclass(frozen=True)
class MpptModel:
    """Maximum power point tracker with dynamic bypass and cold start.

    Below ``bypass_engage_v`` the harvester is connected directly to the
    storage until it has charged to ``bypass_release_v`` (hysteresis).
    Outside bypass, the tracker runs in cold-start mode (poor efficiency)
    below ``cold_start_below_v`` and in tracking mode above it. The boost
    stage charges the storage to at most ``storage_v_max``; surplus harvest
    at that point is curtailed and booked as MPPT loss.
    """

    bypass_engage_v: float = 1.6
    bypass_release_v: float = 1.8
    cold_start_below_v: float = 1.77
    storage_v_max: float = 2.9
    tracking_efficiency: float = 0.80
    cold_start_efficiency: float = 0.10
    bypass_efficiency: float = 1.0
    converter_efficiency: EfficiencyCurve = field(
        default_factory=lambda: EfficiencyCurve.flat(1.0))

    def __post_init__(self):
        for name in ("tracking_efficiency", "cold_start_efficiency", "bypass_efficiency"):
            e = getattr(self, name)
            if not 0 < e <= 1:
                raise EssError(f"{name} must be in (0, 1]")
        if not self.bypass_engage_v < self.bypass_release_v:
            raise EssError("bypass_engage_v must be below bypass_release_v")
        if not self.cold_start_below_v >= 0:
            raise EssError("cold_start_below_v must be >= 0")
        if not self.storage_v_max > self.bypass_release_v:
            raise EssError("storage_v_max must exceed bypass_release_v")


@dataclass(frozen=True)
class StorageModel:
    """Supercapacitor bank with ESR, leakage, and a low-ESR buffer.

    The buffer capacitor sits on the load side of the ESR and supplies the
    first share of load-current transients; without it the full load current
    develops an immediate ESR drop on the bus.
    """

    capacitance: float = 2.2
    esr: float = 0.5
    leak_resistance: float = 30e3
    v_init: float = 0.75
    buffer_capacitance: float = 400e-6

    def __post_init__(self):
        if not self.capacitance > 0:
            raise EssError("capacitance must be > 0")
        if not self.esr >= 0:
            raise EssError("esr must be >= 0")
        if not self.leak_resistance > 0:
            raise EssError("leak_resistance must be > 0")
        if not self.v_init >= 0:
            raise EssError("v_init must be >= 0")
        if not self.buffer_capacitance >= 0:
            raise EssError("buffer_capacitance must be >= 0")


@dataclass(frozen=True)
class ConverterModel:
    """Output DC/DC converter with turn-on/turn-off hysteresis.

    Turns on once the bus has charged to ``v_on`` and stays on until it
    drops below ``v_off``; while on it draws ``p_load / efficiency`` from
    the bus.
    """

    v_on: float = 2.0
    v_off: float = 0.7
    efficiency: EfficiencyCurve = field(default_factory=lambda: EfficiencyCurve.flat(0.85))

    def __post_init__(self):
        if not self.v_off < self.v_on:
            raise EssError("v_off must be below v_on")


@dataclass(frozen=True)
class EssConfig:
    """Complete electrical configuration of the supply chain."""

    harvester: HarvesterModel = field(default_factory=HarvesterModel)
    mppt: MpptModel = field(default_factory=MpptModel)
    storage: StorageModel = field(default_factory=StorageModel)
    converter: ConverterModel = field(default_factory=ConverterModel)

    def __post_init__(self):
        if self.storage.v_init > self.mppt.storage_v_max:
            raise EssError("v_init must not exceed storage_v_max")

    @classmethod
    def ideal(cls, *, capacitance: float = 2.2, v_init: float = 0.75,
              k_mpp: float = 1e-4) -> "EssConfig":
        """Lossless chain: unit efficiencies, no ESR, no leakage, no buffer."""
        return cls(
            harvester=HarvesterModel(k_mpp=k_mpp),
            mppt=MpptModel(tracking_efficiency=1.0, bypass_efficiency=1.0,
                           cold_start_efficiency=1.0,
                           converter_efficiency=EfficiencyCurve.flat(1.0)),
            storage=StorageModel(capacitance=capacitance, esr=0.0,
                                 leak_resistance=math.inf, v_init=v_init,
                                 buffer_capacitance=0.0),
            converter=ConverterModel(efficiency=EfficiencyCurve.flat(1.0)),
        )


@dataclass
class EssState:
    """Electrical state of the chain: storage and bus voltages, tracker
    mode and converter state; :meth:`initial` gives a run's start."""

    v_cap: float
    v_bus: float
    mppt_mode: str = MODE_BYPASS
    converter_on: bool = False

    @classmethod
    def initial(cls, cfg: EssConfig) -> "EssState":
        v0 = cfg.storage.v_init
        mode = (MODE_BYPASS if v0 < cfg.mppt.bypass_release_v
                else _plain_mode(cfg.mppt, v0))
        return cls(v_cap=v0, v_bus=v0, mppt_mode=mode,
                   converter_on=v0 >= cfg.converter.v_on)


def _plain_mode(mppt: MpptModel, v_cap: float) -> str:
    return MODE_COLD_START if v_cap < mppt.cold_start_below_v else MODE_TRACKING


def mppt_next_mode(mppt: MpptModel, mode: str, v_cap: float) -> str:
    """Hysteresis update of the bypass/tracking latch, plus cold-start overlay.

    The latch engages below ``bypass_engage_v`` and releases at
    ``bypass_release_v``; a saturated report counts as released (saturation
    only occurs far above both thresholds). Cold start is only entered from
    below (charging up out of bypass); once tracking, the tracker stays in
    its main mode until bypass re-engages.
    """
    engaged = mode == MODE_BYPASS
    if engaged:
        engaged = v_cap < mppt.bypass_release_v
    else:
        engaged = v_cap < mppt.bypass_engage_v
    if engaged:
        return MODE_BYPASS
    if (v_cap < mppt.cold_start_below_v
            and mode in (MODE_BYPASS, MODE_COLD_START)):
        return MODE_COLD_START
    return MODE_TRACKING


def mppt_step(mppt: MpptModel, mode: str, v_cap: float,
              p_harvest_mpp: float) -> tuple[float, float, str]:
    """Split extracted harvest into storage input and loss at ``v_cap``.

    Returns ``(p_into_storage, p_loss, mode)`` with the tracker's mode
    updated from ``mode`` by :func:`mppt_next_mode`. The identity
    ``p_into_storage + p_loss == p_harvest_mpp`` always holds; the engine
    curtails a saturated store's surplus itself.
    """
    mode = mppt_next_mode(mppt, mode, v_cap)
    if p_harvest_mpp <= 0.0:
        return 0.0, 0.0, mode
    if mode == MODE_BYPASS:
        eff = mppt.bypass_efficiency
    elif mode == MODE_COLD_START:
        eff = mppt.cold_start_efficiency
    else:
        eff = mppt.tracking_efficiency * mppt.converter_efficiency.at(
            p_harvest_mpp)
    p_into = p_harvest_mpp * eff
    return p_into, p_harvest_mpp - p_into, mode


def storage_step(storage: StorageModel, v_cap: float, p_in: float, i_out: float,
                 dt: float, v_bus_prev: float | None = None
                 ) -> tuple[float, float, float, float]:
    """Advance the storage by ``dt``: returns (v_cap', e_leak, e_esr, v_bus').

    Energy integration on the main capacitor: charger power ``p_in`` is
    credited directly, self-discharge drains ``v^2/R_leak``, and the load
    branch removes charge through the ESR. With a buffer capacitor the bus
    node follows the one-pole divider between (ESR + main cap) and the
    buffer, so short current spikes are served by the buffer first; with no
    buffer the full ``i_out`` develops an immediate ``i_out * esr`` drop.
    The returned energies satisfy exact balance:
    ``p_in*dt == dE_cap + dE_buffer + e_leak + e_esr + v_bus-side delivery``.
    """
    if dt <= 0:
        raise EssError("dt must be > 0")
    if v_cap < 0:
        raise EssError("v_cap must be >= 0")
    C = storage.capacitance
    Cb = storage.buffer_capacitance
    R = storage.esr
    e_cap = 0.5 * C * v_cap * v_cap
    e_in = p_in * dt
    e_leak = (v_cap * v_cap / storage.leak_resistance) * dt
    if e_leak > e_cap + e_in:
        e_leak = e_cap + e_in

    if R == 0.0:
        # ESR-free: bus is the capacitor node; buffer is plain parallel C.
        c_eff = C + Cb
        e_tot = 0.5 * c_eff * v_cap * v_cap + e_in - e_leak
        e_out = v_cap * i_out * dt
        if e_out > e_tot:
            e_out = e_tot
        e_tot -= e_out
        v_new = math.sqrt(max(2.0 * e_tot / c_eff, 0.0))
        return v_new, e_leak, 0.0, v_new

    if Cb == 0.0:
        # All load current crosses the ESR immediately.
        q_r = i_out * dt
        e_esr = i_out * i_out * R * dt
        e_out = v_cap * q_r
        budget = e_cap + e_in - e_leak
        if e_out > budget:
            # cap exhausted within the step: whatever was withdrawn beyond
            # the bus-side delivery burns in the ESR, nothing else leaves
            e_out = budget
            e_esr = e_out
            v_new = math.sqrt(max(2.0 * (e_cap + e_in - e_leak - e_out) / C, 0.0))
            return v_new, e_leak, e_esr, 0.0
        v_new = math.sqrt(max(v_cap * v_cap + 2.0 * (e_in - e_leak - e_out) / C, 0.0))
        return v_new, e_leak, e_esr, max(v_new - R * i_out, 0.0)

    # Two-branch transient: bus voltage relaxes toward (v_cap - R*i_out)
    # with time constant tau = esr * buffer_capacitance. The exponential
    # update is unconditionally stable for any step size.
    if v_bus_prev is None:
        v_bus_prev = v_cap
    tau = R * Cb
    budget = e_cap + e_in - e_leak
    v_inf = v_cap - R * i_out

    if v_inf < 0.0 and i_out > 0.0:
        # Demand beyond the short-circuit capability: the bus pins at zero
        # within tau, nothing reaches the load, the withdrawn energy (plus
        # the buffer's charge) burns in the series resistance.
        e_out = min((v_cap * v_cap / R) * dt, budget)
        e_esr = e_out + 0.5 * Cb * v_bus_prev * v_bus_prev
        v_new = math.sqrt(max(2.0 * (e_cap + e_in - e_leak - e_out) / C, 0.0))
        return v_new, e_leak, e_esr, 0.0

    a = math.exp(-dt / tau)
    i_0 = (v_cap - v_bus_prev) / R
    di = i_0 - i_out
    q_r = i_out * dt + di * tau * (1.0 - a)
    int_i2 = (i_out * i_out * dt
              + 2.0 * i_out * di * tau * (1.0 - a)
              + di * di * (tau / 2.0) * (1.0 - a * a))
    e_esr = R * int_i2
    e_out = v_cap * q_r
    if e_out > budget:
        # cap exhausted within the step: full collapse, see above
        e_out = budget
        e_esr = e_out + 0.5 * Cb * v_bus_prev * v_bus_prev
        v_new = math.sqrt(max(2.0 * (e_cap + e_in - e_leak - e_out) / C, 0.0))
        return v_new, e_leak, e_esr, 0.0
    v_bus_new = v_inf + (v_bus_prev - v_inf) * a
    if v_bus_new < 0.0:
        v_bus_new = 0.0
    v_new = math.sqrt(max(v_cap * v_cap + 2.0 * (e_in - e_leak - e_out) / C, 0.0))
    return v_new, e_leak, e_esr, v_bus_new


def converter_next_state(conv: ConverterModel, converter_on: bool, v_bus: float) -> bool:
    """Hysteresis: off->on exactly at v_on, on->off exactly below v_off."""
    if converter_on:
        return v_bus >= conv.v_off
    return v_bus >= conv.v_on


def solve_load_current(v_cap: float, esr: float, p_drawn: float) -> float:
    """Current that delivers ``p_drawn`` through ``esr`` from an ideal source.

    Solves ``(v_cap - esr*i) * i == p_drawn`` for the smaller (stable) root.
    If the source cannot supply ``p_drawn`` at any current, returns the
    maximum-power current ``v_cap / (2 esr)``; the caller sees the shortfall
    as a collapsed bus voltage.
    """
    if p_drawn <= 0.0:
        return 0.0
    if esr == 0.0:
        return p_drawn / v_cap if v_cap > 0 else 0.0
    disc = v_cap * v_cap - 4.0 * esr * p_drawn
    if disc < 0.0:
        return v_cap / (2.0 * esr)
    return (v_cap - math.sqrt(disc)) / (2.0 * esr)


def residual_energy(storage: StorageModel, v_cap: float) -> float:
    """Energy stranded in the main capacitor at voltage ``v_cap``: C v^2 / 2."""
    if v_cap < 0:
        raise EssError("v_cap must be >= 0")
    return 0.5 * storage.capacitance * v_cap * v_cap
