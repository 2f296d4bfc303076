"""Scaled-time evaluation planning: profile, solve, configure, map back.

Accelerated evaluation replays the energy trace at ``s_tp`` times real
speed. Keeping the energy balance of the real-time run requires scaling
input power by the same factor and raising the application's average power
consumption to match, which is done by raising its sampling frequency by a
factor ``s_f``. Because idle power shrinks as active tasks crowd the
schedule, ``s_f`` is not simply ``s_tp``; it solves

    s_f * Pa + (T - ta*s_f)/(T - ta) * Pi == s_tp * (Pa + Pi)

for measured averages ``Pa`` (active), ``Pi`` (idle), period ``T`` and
active time ``ta``. The scaled-time/unscaled-power scheme (``st_up``) keeps
power untouched and instead multiplies measured throughput by ``s_tp``.

The workflow: profile the app at a constant supply, plan the run with
:func:`plan_run` (``s_f`` stays within the bound ``AppSpec.max_sf``), turn
the plan into the scaled trace, events, app and engine settings with one
call (:func:`build_experiment`), run it, then map its activity profile
back to the real-time axis (:func:`rescale_activity`) and predict
real-time throughput (:func:`predict_throughput`). Only the activity is
mapped back: every per-bin table of a result shares the bin grid as its
time axis, and the whole-run figures need no re-timing.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from .app import (AppSpec, ActivityProfile, _run_starts,
                  apply_frequency_scaling)
from .engine import ResultSummary, SimConfig, simulate
from .traces import EventTrace, IrradianceTrace

__all__ = [
    "PowerProfile",
    "ScalingPlan",
    "PlanError",
    "MODES",
    "profile_application",
    "compute_sf",
    "scaled_average_power",
    "max_speedup",
    "plan_run",
    "build_experiment",
    "predict_throughput",
    "rescale_activity",
]

MODES = ("realtime", "st_sp", "st_sp_sn", "st_up")


class PlanError(ValueError):
    """Infeasible or degenerate scaling request."""


# Every range check below is written so that a NaN fails it.
def _check_s_tp(s_tp: float) -> None:
    if not 1.0 <= s_tp < math.inf:
        raise PlanError(f"s_tp must be a finite number >= 1; got {s_tp}")


def _get(d: dict, key: str, what: str):
    if key not in d:
        raise PlanError(f"{what} has no {key!r}")
    return d[key]


# PowerProfile field -> its key in profile.json (and plan.json's "profile")
_PROFILE_KEYS = {"p_active_avg": "p_active_avg_w", "p_idle_avg": "p_idle_avg_w",
                 "t_active": "t_active_s", "t_app_period": "t_app_period_s",
                 "theta_profiling": "theta_profiling_bytes",
                 "t_profiling": "t_profiling_s"}


@dataclass(frozen=True)
class PowerProfile:
    """Constant-supply application profile.

    ``p_active_avg`` is the energy of sampling+processing and communication
    tasks divided by total profiling time; ``p_idle_avg`` likewise for the
    sleep share. ``theta_profiling`` bytes, a whole number kept as
    ``int``, were produced over ``t_profiling`` seconds.
    """

    p_active_avg: float
    p_idle_avg: float
    t_active: float
    t_app_period: float
    theta_profiling: int
    t_profiling: float

    def __post_init__(self):
        if not 0 < self.p_active_avg < math.inf:
            raise PlanError("p_active_avg must be finite and > 0: purely "
                            "event-driven apps cannot be time-scaled")
        if not 0 <= self.p_idle_avg < math.inf:
            raise PlanError("p_idle_avg must be finite and >= 0")
        if not 0 <= self.t_active < self.t_app_period < math.inf:
            raise PlanError("t_active must be >= 0 and below the application "
                            "period t_app_period, which must be finite")
        if not 0 < self.t_profiling < math.inf:
            raise PlanError("t_profiling must be a finite time > 0")
        theta = self.theta_profiling
        if (isinstance(theta, bool) or not isinstance(theta, numbers.Real)
                or not (0 <= theta < math.inf and theta == math.floor(theta))):
            raise PlanError(f"theta_profiling must be a whole number of "
                            f"bytes >= 0; got {theta!r}")
        object.__setattr__(self, "theta_profiling", int(theta))

    def as_dict(self) -> dict:
        return {key: getattr(self, f) for f, key in _PROFILE_KEYS.items()}

    @classmethod
    def from_dict(cls, d: dict) -> PowerProfile:
        """Read :meth:`as_dict`'s form; a missing key is a PlanError."""
        return cls(**{f: _get(d, key, "profile")
                      for f, key in _PROFILE_KEYS.items()})


@dataclass(frozen=True)
class ScalingPlan:
    """A validated evaluation-acceleration configuration.

    ``s_i`` scales trace amplitude to emulate panel sizing and applies in
    every mode; ``s_tp`` compresses time (and, except under ``st_up``,
    scales power with it); ``s_f`` is the sampling-frequency factor the
    application runs with under scaled power.
    """

    mode: str = "realtime"
    s_tp: float = 1.0
    s_f: float = 1.0
    s_i: float = 1.0
    binding: str = ""

    def __post_init__(self):
        if self.mode not in MODES:
            raise PlanError(f"unknown mode {self.mode!r}")
        _check_s_tp(self.s_tp)
        if not 1.0 <= self.s_f < math.inf:
            raise PlanError(f"s_f must be a finite number >= 1; got {self.s_f}")
        if not 0 < self.s_i < math.inf:
            raise PlanError(f"s_i must be finite and > 0; got {self.s_i}")
        if self.mode == "realtime" and (self.s_tp != 1.0 or self.s_f != 1.0):
            raise PlanError("realtime mode runs unscaled")
        if self.mode == "st_up" and self.s_f != 1.0:
            raise PlanError("st_up leaves the application unscaled (s_f == 1)")

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> ScalingPlan:
        """Read :meth:`as_dict`'s form; only ``binding`` may be missing."""
        return cls(*(_get(d, k, "plan") for k in ("mode", "s_tp", "s_f", "s_i")),
                   binding=d.get("binding", ""))


def profile_application(app: AppSpec, duration: float = 3600.0, *,
                        supply_v: float = 3.3) -> PowerProfile:
    """Profile the application at a constant supply voltage.

    Runs the engine on an ideal source at ``supply_v`` in place of the
    supply chain, over ``duration`` seconds in 0.2 s bins (an ideal-source
    run stops at the trace end), and extracts the average active and idle
    power, the timing parameters, and the produced throughput. ``duration``
    must cover at least one application period.
    """
    if duration < app.t_app_period:
        raise PlanError(
            f"profiling duration {duration:g} s is below one application "
            f"period ({app.t_app_period:g} s)")
    trace = IrradianceTrace(t=np.array([0.0, duration]), g=np.array([0.0, 0.0]))
    cfg = SimConfig(supply_override=supply_v, dt_quiescent=0.2)
    result = simulate(trace, None, None, app, cfg)
    sss = result.ledger.sss_by_activity
    e_active = sss["sampling_processing"] + sss["communicating"]
    return PowerProfile(
        p_active_avg=e_active / duration,
        p_idle_avg=sss["idle"] / duration,
        t_active=app.t_active,
        t_app_period=app.t_app_period,
        theta_profiling=result.throughput_bytes,
        t_profiling=duration,
    )


def compute_sf(profile: PowerProfile, s_tp: float) -> float:
    """Sampling-frequency factor that scales average power by ``s_tp``.

    Round trip: plugging the result into :func:`scaled_average_power`
    recovers ``s_tp * (p_active_avg + p_idle_avg)``.
    """
    _check_s_tp(s_tp)
    pa, pi = profile.p_active_avg, profile.p_idle_avg
    T, ta = profile.t_app_period, profile.t_active
    den = (T - ta) * pa - ta * pi
    if den <= 0:
        raise PlanError("degenerate profile: idle power dominates the "
                        "schedule, no frequency scaling can reach the target")
    if s_tp == 1.0:
        return 1.0   # both sides of the power-matching equation coincide
    if pi == 0.0:
        return s_tp  # without idle power the factors collapse
    return (s_tp * (pa + pi) * (T - ta) - T * pi) / den


def scaled_average_power(profile: PowerProfile, s_f: float) -> float:
    """Average power of the application once sampling is scaled by ``s_f``."""
    pa, pi = profile.p_active_avg, profile.p_idle_avg
    T, ta = profile.t_app_period, profile.t_active
    return s_f * pa + (T - ta * s_f) / (T - ta) * pi


# max_speedup tries the whole factors below this one.
_S_TP_LIMIT = 1_000_000


def max_speedup(profile: PowerProfile, spec: AppSpec,
                env_power_cap: float | None = None, *,
                peak_input: float | None = None) -> tuple[float, float, str]:
    """Largest feasible whole time-and-power factor and its frequency factor.

    The schedulability bound ``spec.max_sf`` always applies; when
    ``env_power_cap`` is given (the highest input power the emulated
    environment can produce, in the same unit as ``peak_input``, the
    unscaled experiment's peak input), the scaled peak must stay under it.
    Returns (s_tp, s_f, binding constraint name); (1, 1) when no speed-up
    is admissible, and binding ``"s_tp_limit"`` when every factor below
    1e6 is feasible.

    When the checks pass at 1, they pass up to some factor and fail from
    the next one on (:func:`compute_sf` and the scaled peak rise with
    ``s_tp``), so that factor is found by bisection: about 20 checks, the
    ones a search factor by factor would make at the two factors found.
    """
    if env_power_cap is not None and peak_input is None:
        raise PlanError("env_power_cap needs peak_input to compare against")

    def check(s_tp: float) -> tuple[float | None, str | None]:
        """``(s_f, None)`` if ``s_tp`` is feasible, else ``(None, binding)``."""
        try:
            s_f = compute_sf(profile, s_tp)
        except PlanError:
            return None, "degenerate_profile"
        if s_f > spec.max_sf:
            return None, "schedulability"
        if (env_power_cap is not None
                and peak_input * s_tp > env_power_cap * (1 + 1e-12)):
            return None, "env_power_cap"
        return s_f, None

    s_f, binding = check(1.0)
    if binding is not None:
        return 1.0, 1.0, binding
    lo, hi, binding = 1, _S_TP_LIMIT, "s_tp_limit"
    while hi - lo > 1:  # lo is feasible; hi fails by binding
        mid = (lo + hi) // 2
        mid_s_f, mid_binding = check(float(mid))
        if mid_binding is None:
            lo, s_f = mid, mid_s_f
        else:
            hi, binding = mid, mid_binding
    return float(lo), s_f, binding


def plan_run(mode: str, app: AppSpec, profile: Callable[[], PowerProfile], *,
             s_i: float = 1.0, s_tp: float | str = "max"
             ) -> tuple[ScalingPlan, PowerProfile | None]:
    """Plan a run of ``mode`` towards ``s_tp``, a number or ``"max"``.

    ``realtime`` and an explicit ``st_up`` target need no profile; every
    other plan calls ``profile()`` once. ``"max"`` takes :func:`max_speedup`'s
    factors; an explicit target binds as "requested" and its ``s_f`` must
    stay within ``app.max_sf``. ``st_up`` runs at ``s_f = 1``. Returns the
    plan and the profile it used, or None."""
    if mode == "realtime":
        return ScalingPlan(mode="realtime", s_i=s_i), None
    if mode == "st_up" and s_tp != "max":
        return ScalingPlan(mode="st_up", s_tp=float(s_tp), s_i=s_i,
                           binding="requested"), None
    prof = profile()
    if s_tp == "max":
        s_tp, s_f, binding = max_speedup(prof, app)
    else:
        s_tp, binding = float(s_tp), "requested"
        s_f = compute_sf(prof, s_tp)
        if s_f > app.max_sf:
            raise PlanError(
                f"s_tp={s_tp:g} needs s_f={s_f:.4g} which exceeds the "
                f"schedulability bound {app.max_sf:.4g}")
    return (ScalingPlan(mode=mode, s_tp=s_tp,
                        s_f=1.0 if mode == "st_up" else s_f, s_i=s_i,
                        binding=binding), prof)


def build_experiment(plan: ScalingPlan, trace: IrradianceTrace,
                     events: EventTrace | None, app: AppSpec, cfg: SimConfig
                     ) -> tuple[IrradianceTrace, EventTrace | None, AppSpec,
                                SimConfig]:
    """Turn a validated plan into the experiment it runs.

    Returns the scaled ``(trace, events, app, cfg)``. Trace and event times
    are divided by ``s_tp``. Irradiance is multiplied by ``s_i``, and by
    ``s_tp`` too in the scaled-power modes, where the application samples
    ``s_f`` times faster; ``st_up`` leaves power and application unscaled.
    ``st_sp_sn`` turns skip-nights on; every other mode returns ``cfg``
    itself.
    """
    scaled_power = plan.mode in ("st_sp", "st_sp_sn")
    amplitude = plan.s_i * plan.s_tp if scaled_power else plan.s_i
    trace = IrradianceTrace(t=trace.t / plan.s_tp, g=trace.g * amplitude)
    if events is not None:
        events = EventTrace(t=events.t / plan.s_tp)
    if scaled_power:
        app = apply_frequency_scaling(app, plan.s_f)
    if plan.mode == "st_sp_sn":
        cfg = replace(cfg, skip_nights=True)
    return trace, events, app, cfg


def predict_throughput(plan: ScalingPlan, result: ResultSummary,
                       profile: PowerProfile | None = None) -> float:
    """Real-time throughput predicted from a (scaled) run.

    Only ``result.throughput_bytes`` and ``result.on_time_s`` are read: a
    :class:`~ehsim.engine.SimResult` or the light record
    :func:`ehsim.config.load_summary` returns.

    Under scaled power the application was modified, so bytes measured in
    the experiment do not directly estimate the original application's
    output; instead the powered time ``t_exp`` of the scaled run is mapped
    back through the profiling rate:
    ``theta = s_tp * t_exp / t_profiling * theta_profiling``. Under
    ``st_up`` the measured bytes are simply multiplied by ``s_tp``.
    """
    if plan.mode == "realtime":
        return float(result.throughput_bytes)
    if plan.mode == "st_up":
        return plan.s_tp * result.throughput_bytes
    if profile is None:
        raise PlanError("scaled-power prediction needs the power profile")
    return (plan.s_tp * result.on_time_s / profile.t_profiling
            * profile.theta_profiling)


def _stretch_runs(x: np.ndarray, s_tp: float, n_out: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``x``'s runs stretched by ``s_tp`` onto ``n_out`` bins, the bins
    within two of ``floor(k * s_tp)`` for a run edge or the end k, and the
    run starts. Every other bin lies inside the run it takes its value from.
    """
    starts = _run_starts(x)
    ends = (np.append(starts[1:], len(x)) * s_tp).astype(np.int64)
    out = np.repeat(x[starts], np.diff(ends[:-1], prepend=0, append=n_out))
    near = np.unique(np.clip((ends[:, None] + np.arange(-2, 3)).ravel(),
                             0, n_out - 1))
    return out, near, starts


def rescale_activity(activity: ActivityProfile, s_tp: float
                     ) -> ActivityProfile:
    """Map a scaled run's activity profile back to the real-time axis.

    Every step is stretched by ``s_tp`` and re-binned onto the standard
    grid: a bin is on where the stretched on-time covers at least half of
    it, and takes the label of the scaled bin under its centre. At
    ``s_tp == 1`` the profile itself is returned.

    Only the bins near a stretched run edge are computed one by one, so
    the cost grows with the number of runs, not of bins.
    """
    _check_s_tp(s_tp)
    if s_tp == 1.0 or not len(activity):
        return activity
    x, n_in = activity.on_off, len(activity)
    n_out = int(round(n_in * s_tp))
    on, near, starts = _stretch_runs(x, s_tp, n_out)
    # Bin j covers [j, j + 1) / s_tp. Near an edge its on fraction comes
    # from the on-count interpolated between the input bin edges around
    # its own, as the bin-level rescale computed it.
    edges = np.clip(np.concatenate((near, near + 1)) / s_tp, 0.0, n_in)
    knots = np.unique(np.floor(edges)[:, None] + (0.0, 1.0))
    run = np.searchsorted(starts, knots, side="right") - 1
    vals, stops = x[starts], np.append(starts[1:], n_in)
    count = ((np.cumsum((stops - starts) * vals) - stops * vals)[run]
             + knots * vals[run])
    cum_at = np.interp(edges, knots, count)
    m = len(near)
    width = edges[m:] - edges[:m]
    on_frac = np.divide(cum_at[m:] - cum_at[:m], width, out=np.zeros(m),
                        where=width > 0)
    on[near] = on_frac >= 0.5

    labels, near, _ = _stretch_runs(activity.labels, s_tp, n_out)
    centers = (near + 0.5) / s_tp
    labels[near] = activity.labels[np.minimum(centers.astype(int), n_in - 1)]
    return ActivityProfile(step_len=activity.step_len, on_off=on,
                           labels=labels)
