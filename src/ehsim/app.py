"""SoC and sensor subsystem: a periodic/reactive app as a timed power-state machine.

The application samples every ``t_sample_period`` seconds while powered,
communicates a payload after ``n_per_comm`` samples (or, for reactive apps,
right after a sampling burst that observes a pending event), and sleeps in
between. A just-in-time checkpoint writes state to non-volatile memory once
per powered period when the storage voltage falls below ``checkpoint_v``.

``app_step`` is pure (state in, state out) so runs are replayable. The
caller must not step across an internal transition: clip ``dt`` to
``time_to_transition`` first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "AppSpec",
    "AppState",
    "ActivityProfile",
    "AppError",
    "PHASES",
    "PHASE_OFF",
    "PHASE_BOOT",
    "PHASE_IDLE",
    "PHASE_SAMPLING",
    "PHASE_COMM",
    "PHASE_BACKUP",
    "app_step",
    "time_to_transition",
    "apply_frequency_scaling",
    "PRESETS",
    "preset",
]

PHASE_OFF = "off"
PHASE_BOOT = "booting"
PHASE_IDLE = "idle"
PHASE_SAMPLING = "sampling"
PHASE_COMM = "communicating"
PHASE_BACKUP = "backup"

# Index order doubles as the integer coding used in activity profiles.
PHASES = (PHASE_OFF, PHASE_BOOT, PHASE_IDLE, PHASE_SAMPLING, PHASE_COMM, PHASE_BACKUP)
PHASE_INDEX = {name: i for i, name in enumerate(PHASES)}


class AppError(ValueError):
    """Invalid application specification or scaling request."""


@dataclass(frozen=True)
class AppSpec:
    """Application definition: task timing, payloads, and power states.

    ``t_sample_period`` is the sampling period, ``t_sample`` the duration of
    one sampling+processing burst, ``t_comm`` one communication burst, and
    ``n_per_comm`` the number of samples gathered before a periodic
    transmission of ``bytes_per_comm`` bytes. Reactive apps additionally
    transmit ``event_bytes`` when a sampling burst observes a pending event.
    Power values are synthetic per-state wattages (config-exposed, not
    measured); ``sensor_fraction_sampling`` attributes that share of the
    sampling power to the sensor rather than the SoC in stack profiles.
    """

    t_sample_period: float
    t_sample: float
    t_comm: float
    n_per_comm: int | None = 1   # None: reactive app, no periodic reports
    bytes_per_comm: int = 12
    p_sample: float = 8e-3
    p_comm: float = 15e-3
    p_idle: float = 50e-6
    p_off_residual: float = 1e-6
    t_boot: float = 0.05
    p_boot: float = 8e-3
    t_backup: float = 0.01
    e_backup: float = 1.5e-4
    checkpoint_v: float = 1.7
    reactive: bool = False
    event_bytes: int = 12
    sensor_fraction_sampling: float = 0.5
    name: str = ""

    def __post_init__(self):
        # Every check is written so that a NaN fails it.
        if not self.t_sample + self.t_comm <= self.t_sample_period:
            raise AppError("t_sample + t_comm must fit in t_sample_period")
        if self.n_per_comm is None:
            if not self.reactive:
                raise AppError("periodic apps need n_per_comm >= 1")
        elif not self.n_per_comm >= 1:
            raise AppError("n_per_comm must be >= 1")
        for name in ("p_sample", "p_comm", "p_idle", "p_off_residual", "p_boot",
                     "e_backup", "checkpoint_v", "bytes_per_comm",
                     "event_bytes"):
            if not getattr(self, name) >= 0:
                raise AppError(f"{name} must be >= 0")
        for name in ("t_sample", "t_comm", "t_boot", "t_backup"):
            if not getattr(self, name) > 0:
                raise AppError(f"{name} must be > 0")
        if not 0.0 <= self.sensor_fraction_sampling <= 1.0:
            raise AppError("sensor_fraction_sampling must be in [0, 1]")

    @property
    def t_active(self) -> float:
        """Total active time per application period: the samples plus one comm.

        Purely reactive reporting (no periodic communication) leaves the
        sampling burst as the only periodic active task.
        """
        if self.n_per_comm is None:
            return self.t_sample
        return self.n_per_comm * self.t_sample + self.t_comm

    @property
    def t_app_period(self) -> float:
        """Application period: one periodic communication cycle (or one
        sampling period when there is no periodic communication)."""
        if self.n_per_comm is None:
            return self.t_sample_period
        return self.n_per_comm * self.t_sample_period

    @property
    def p_backup(self) -> float:
        return self.e_backup / self.t_backup

    @property
    def max_sf(self) -> float:
        """Schedulability bound on ``s_f``, with 1e-12 relative slack:
        scaled bursts must not overlap back-to-back."""
        return self.t_sample_period / (self.t_sample + self.t_comm) * (1 + 1e-12)

    def phase_power(self, phase: str) -> float:
        return _PHASE_POWER[phase](self)


_PHASE_POWER = {
    PHASE_OFF: lambda s: s.p_off_residual,
    PHASE_BOOT: lambda s: s.p_boot,
    PHASE_IDLE: lambda s: s.p_idle,
    PHASE_SAMPLING: lambda s: s.p_sample,
    PHASE_COMM: lambda s: s.p_comm,
    PHASE_BACKUP: lambda s: s.p_backup,
}


@dataclass
class AppState:
    """Mutable runtime state of the power-state machine."""

    phase: str = PHASE_OFF
    phase_t_remaining: float = 0.0
    t_until_sample: float = math.inf
    samples_since_comm: int = 0
    boots: int = 0
    events_detected: int = 0
    events_offered: int = 0
    checkpointed: bool = False
    event_observed: bool = False        # set for one step at observation
    comm_is_event: bool = False


def time_to_transition(spec: AppSpec, state: AppState,
                       power_good: bool = True) -> float:
    """Seconds until the machine changes phase on its own.

    Infinite while off and unpowered; ``t_boot`` when off with power about
    to be good (the next step boots).
    """
    if state.phase == PHASE_OFF:
        return spec.t_boot if power_good else math.inf
    if state.phase == PHASE_IDLE:
        return state.t_until_sample
    return state.phase_t_remaining


def _enter(state: AppState, phase: str, duration: float) -> None:
    state.phase = phase
    state.phase_t_remaining = duration


def app_step(spec: AppSpec, state: AppState, power_good: bool, v_storage: float,
             event_pending: bool, dt: float) -> tuple[AppState, float, str, int]:
    """Advance the machine by ``dt``; returns (state, p_demand, label, bytes).

    ``dt`` must not exceed :func:`time_to_transition`. Power loss forces the
    off phase immediately; a rising ``power_good`` edge boots for ``t_boot``
    and then anchors the sampling timer at boot completion (first burst
    fires immediately). The returned label names the phase that consumed
    this interval; ``bytes`` is nonzero only on the step that completes a
    communication burst.
    """
    state.event_observed = False

    if not power_good:
        if state.phase != PHASE_OFF:
            # State is lost unless it was checkpointed beforehand.
            if not state.checkpointed:
                state.samples_since_comm = 0
            _enter(state, PHASE_OFF, 0.0)
            state.t_until_sample = math.inf
        return state, spec.p_off_residual, PHASE_OFF, 0

    if state.phase == PHASE_OFF:
        _enter(state, PHASE_BOOT, spec.t_boot)
        state.boots += 1
        state.checkpointed = False

    phase = state.phase
    label = phase
    p_demand = spec.phase_power(phase)
    bytes_out = 0

    # The sampling schedule is wall-clock anchored: the countdown runs
    # through every powered phase, not just idle.
    if state.t_until_sample != math.inf:
        state.t_until_sample -= dt

    if phase == PHASE_IDLE:
        if state.t_until_sample <= 1e-12:
            _enter(state, PHASE_SAMPLING, spec.t_sample)
            # countdown continues from the residual: launches stay anchored
            state.t_until_sample += spec.t_sample_period
        elif not state.checkpointed and v_storage < spec.checkpoint_v:
            # just-in-time checkpoint, once per powered period
            _enter(state, PHASE_BACKUP, spec.t_backup)
            state.checkpointed = True
        return state, p_demand, label, 0

    state.phase_t_remaining -= dt
    if state.phase_t_remaining > 1e-12:
        return state, p_demand, label, 0

    # Phase completed within this step.
    if phase == PHASE_BOOT:
        # Sampling is anchored at boot completion; first burst fires now.
        _enter(state, PHASE_SAMPLING, spec.t_sample)
        state.t_until_sample = spec.t_sample_period
    elif phase == PHASE_SAMPLING:
        state.samples_since_comm += 1
        fire_event = False
        if spec.reactive and event_pending:
            state.event_observed = True
            fire_event = True
        if fire_event:
            _enter(state, PHASE_COMM, spec.t_comm)
            state.comm_is_event = True
        elif (spec.n_per_comm is not None
              and state.samples_since_comm >= spec.n_per_comm):
            _enter(state, PHASE_COMM, spec.t_comm)
            state.comm_is_event = False
        else:
            _enter(state, PHASE_IDLE, 0.0)
    elif phase == PHASE_COMM:
        if state.comm_is_event:
            bytes_out = spec.event_bytes
            state.events_detected += 1
        else:
            bytes_out = spec.bytes_per_comm
            state.samples_since_comm = 0
        state.comm_is_event = False
        _enter(state, PHASE_IDLE, 0.0)
    elif phase == PHASE_BACKUP:
        _enter(state, PHASE_IDLE, 0.0)

    return state, p_demand, label, bytes_out


def apply_frequency_scaling(spec: AppSpec, s_f: float) -> AppSpec:
    """Raise the sampling frequency by ``s_f``, leaving the program unmodified.

    Only the sampling period changes, within :attr:`AppSpec.max_sf`.
    """
    if s_f < 1.0:
        raise AppError("s_f must be >= 1")
    if s_f > spec.max_sf:
        raise AppError(
            f"s_f={s_f:.4g} exceeds schedulability bound "
            f"T_S/(t_S+t_C)={spec.max_sf:.4g}")
    return replace(spec, t_sample_period=spec.t_sample_period / s_f)


@dataclass(frozen=True)
class ActivityProfile:
    """On/off (and phase label) activity binned at a fixed step length.

    A bin is "on" when the subsystem was powered for at least half of it.
    ``labels`` holds phase indices into :data:`PHASES`.
    """

    step_len: float
    on_off: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        on = np.asarray(self.on_off, dtype=bool)
        lab = np.asarray(self.labels, dtype=np.int8)
        object.__setattr__(self, "on_off", on)
        object.__setattr__(self, "labels", lab)
        if not 0 < self.step_len < math.inf:  # NaN fails it too
            raise AppError("step_len must be a finite time > 0")
        if len(on) != len(lab):
            raise AppError("on_off and labels must have equal length")

    def __len__(self) -> int:
        return len(self.on_off)

    @property
    def duration(self) -> float:
        return len(self.on_off) * self.step_len


def _run_starts(x: np.ndarray) -> np.ndarray:
    """Indices where the runs of equal values of a non-empty ``x`` start."""
    return np.concatenate(([0], np.flatnonzero(x[1:] != x[:-1]) + 1))


def _preset_specs() -> dict[str, tuple[AppSpec, float, int]]:
    """Benchmark presets: (spec, irradiance scaler, tabulated time scale).

    Timing and power values are synthetic, tuned so that the scaled-time
    planner reproduces the tabulated (S_TP, S_f) pairs and so that relative
    energy shares are plausible for each workload class. The irradiance
    scaler expresses panel sizing as a fraction of the shared trace.
    """
    specs = {
        "TMP1": (AppSpec(name="TMP1", t_sample_period=20.0, t_sample=4.0,
                         t_comm=1.0, n_per_comm=1, bytes_per_comm=12,
                         p_sample=8e-3, p_comm=15e-3, p_idle=4.476e-4),
                 0.020, 3),
        "TMP2": (AppSpec(name="TMP2", t_sample_period=20.0, t_sample=4.0,
                         t_comm=3.0, n_per_comm=30, bytes_per_comm=12,
                         p_sample=8e-3, p_comm=15e-3, p_idle=8.949e-4),
                 0.015, 2),
        "IMU": (AppSpec(name="IMU", t_sample_period=60.0, t_sample=4.2,
                        t_comm=1.0, n_per_comm=5, bytes_per_comm=180,
                        p_sample=12e-3, p_comm=18e-3, p_idle=5.5838e-4),
                0.015, 7),
        "PMS": (AppSpec(name="PMS", t_sample_period=60.0, t_sample=4.7,
                        t_comm=0.5, n_per_comm=1, bytes_per_comm=12,
                        p_sample=6e-3, p_comm=15e-3, p_idle=5.3746e-4),
                0.015, 6),
        # High-current sampling spikes: these two stress the storage ESR.
        "TOF": (AppSpec(name="TOF", t_sample_period=120.0, t_sample=0.004,
                        t_comm=0.08, n_per_comm=1, bytes_per_comm=12,
                        p_sample=0.32, p_comm=15e-3, p_idle=5.2803e-6,
                        sensor_fraction_sampling=0.9),
                0.020, 10),
        "BIO": (AppSpec(name="BIO", t_sample_period=120.0, t_sample=0.12,
                        t_comm=0.08, n_per_comm=1, bytes_per_comm=192,
                        p_sample=0.25, p_comm=18e-3, p_idle=1.74653e-5,
                        sensor_fraction_sampling=0.8),
                0.030, 10),
        "PARKING": (AppSpec(name="PARKING", t_sample_period=120.0,
                            t_sample=0.004, t_comm=0.08, n_per_comm=None,
                            bytes_per_comm=12, p_sample=0.32, p_comm=15e-3,
                            p_idle=5.2803e-6, reactive=True, event_bytes=12,
                            sensor_fraction_sampling=0.9),
                    0.06, 10),
    }
    return specs


PRESETS: dict[str, tuple[AppSpec, float, int]] = _preset_specs()


def preset(name: str) -> AppSpec:
    """Look up a benchmark preset by name (TMP1, TMP2, IMU, PMS, TOF, BIO, PARKING)."""
    try:
        return PRESETS[name.upper()][0]
    except KeyError:
        raise AppError(f"unknown preset {name!r}; have {sorted(PRESETS)}") from None


def preset_irradiance_scale(name: str) -> float:
    return PRESETS[name.upper()][1]
