"""Irradiance and event traces: parsing, writing and synthesis.

Traces define the emulated environment of a run. An irradiance trace is a
time series of (seconds, W/m^2) samples replayed with zero-order hold; an
event trace is a list of timestamps at which the environment signals the
node (e.g. a car arriving at a parking space). Both are immutable after
construction and safe to share between concurrent simulations. Scaled-time
experiments build their compressed copies in
:func:`ehsim.scaling.build_experiment`.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "IrradianceTrace",
    "EventTrace",
    "TraceError",
    "TraceParseError",
    "parse_irradiance",
    "write_irradiance",
    "parse_events",
    "generate_parking_events",
    "synthetic_solar_trace",
]


class TraceError(ValueError):
    """Invalid trace content (non-monotonic time, negative irradiance, ...)."""


class TraceParseError(TraceError):
    """Malformed trace file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class IrradianceTrace:
    """Zero-order-hold irradiance time series.

    ``t`` holds seconds since trace start (strictly increasing), ``g`` the
    irradiance in W/m^2 (non-negative).
    """

    t: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.float64)
        g = np.asarray(self.g, dtype=np.float64)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "g", g)
        if t.ndim != 1 or g.ndim != 1 or len(t) != len(g):
            raise TraceError("t and g must be 1-D arrays of equal length")
        if len(t) < 2:
            raise TraceError("trace needs at least two samples (duration > 0)")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(g))):
            raise TraceError("timestamps and irradiance must be finite")
        if not np.all(np.diff(t) > 0):
            raise TraceError("timestamps must be strictly increasing")
        if np.any(g < 0):
            raise TraceError("irradiance must be non-negative")
        t.setflags(write=False)
        g.setflags(write=False)

    def __len__(self) -> int:
        return len(self.t)

    @property
    def duration(self) -> float:
        """Trace span in seconds, last timestamp minus first."""
        return float(self.t[-1] - self.t[0])

    def integral(self) -> float:
        """Trapezoidal integral of g over t (W*s/m^2 equivalent)."""
        return float(np.trapezoid(self.g, self.t))


@dataclass(frozen=True)
class EventTrace:
    """Ordered environment-event timestamps in seconds since trace start."""

    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.float64)
        object.__setattr__(self, "t", t)
        if t.ndim != 1:
            raise TraceError("event times must be a 1-D array")
        if not np.all(np.isfinite(t)):
            raise TraceError("event times must be finite")
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise TraceError("event timestamps must be strictly increasing")
        t.setflags(write=False)

    def __len__(self) -> int:
        return len(self.t)


def _time_scale(time_unit: str) -> float:
    """Seconds per unit of a trace or events file's time column."""
    if time_unit not in ("s", "min"):
        raise TraceError(f"unsupported time_unit {time_unit!r}")
    return 60.0 if time_unit == "min" else 1.0


def _data_lines(source):
    """Numbered data lines of text, bytes or a stream: not blank, not '#'."""
    if isinstance(source, (str, bytes)):
        source = io.StringIO(source.decode() if isinstance(source, bytes) else source)
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_irradiance(source, *, delimiter: str | None = None,
                     time_unit: str = "s") -> IrradianceTrace:
    """Parse a two-column (timestamp, irradiance) text stream.

    Lines starting with '#' and blank lines are skipped; header rows must be
    commented out. ``delimiter=None`` accepts comma or whitespace separation.
    ``time_unit="min"`` converts minute-indexed inputs to seconds.

    Raises :class:`TraceParseError` with the line number for malformed rows
    and :class:`TraceError` for an empty or invalid trace.
    """
    scale = _time_scale(time_unit)
    ts: list[float] = []
    gs: list[float] = []
    for lineno, line in _data_lines(source):
        parts = line.split(delimiter) if delimiter else line.replace(",", " ").split()
        if len(parts) != 2:
            raise TraceParseError(f"expected 2 columns, got {len(parts)}", lineno)
        try:
            t_val = float(parts[0])
            g_val = float(parts[1])
        except ValueError:
            raise TraceParseError(f"non-numeric value in {line!r}", lineno) from None
        if not (math.isfinite(t_val) and math.isfinite(g_val)):
            raise TraceParseError(f"non-finite value in {line!r}", lineno)
        if g_val < 0:
            raise TraceParseError(f"negative irradiance {g_val}", lineno)
        if ts and t_val <= ts[-1]:
            raise TraceParseError(f"timestamp {t_val} not increasing", lineno)
        ts.append(t_val)
        gs.append(g_val)
    if not ts:
        raise TraceError("empty trace")
    return IrradianceTrace(t=np.asarray(ts) * scale, g=np.asarray(gs))


def write_irradiance(trace: IrradianceTrace, stream) -> None:
    """Write the two-column CSV form (seconds, W/m^2), LF line endings."""
    stream.write("# t_s,g_wm2\n")
    for t_val, g_val in zip(trace.t, trace.g):
        stream.write(f"{t_val:.6f},{g_val:.6f}\n")


def parse_events(source, *, time_unit: str = "s") -> EventTrace:
    """Parse a one-column event CSV (one event time per line).

    ``time_unit="min"`` converts minute-indexed inputs to seconds; any unit
    but ``"s"`` and ``"min"`` is a :class:`TraceError`. Raises
    :class:`TraceParseError` with the line number for a line of more than
    one field and for a non-numeric, non-finite or non-increasing event
    time.
    """
    scale = _time_scale(time_unit)
    ts: list[float] = []
    for lineno, line in _data_lines(source):
        parts = line.split(",")
        if len(parts) != 1:
            raise TraceParseError(f"expected 1 column, got {len(parts)}", lineno)
        try:
            t_val = float(line)
        except ValueError:
            raise TraceParseError(f"non-numeric event time {line!r}", lineno) from None
        if not math.isfinite(t_val):
            raise TraceParseError(f"non-finite event time {line!r}", lineno)
        if ts and t_val <= ts[-1]:
            raise TraceParseError(f"event time {t_val} not increasing", lineno)
        ts.append(t_val)
    return EventTrace(t=np.asarray(ts, dtype=np.float64) * scale)


def generate_parking_events(opening: tuple[float, float], peak_h: float,
                            n_events_per_day: int, days: int,
                            seed: int) -> EventTrace:
    """Synthesize a reproducible daily event trace with a single busy hour.

    Event times within each day follow a Gaussian centred on ``peak_h``,
    truncated to the opening window, with sigma chosen so +-3 sigma spans
    the window. Deterministic for a fixed seed.
    """
    start_h, end_h = opening
    if not (0 <= start_h < peak_h < end_h <= 24):
        raise TraceError("need start_h < peak_h < end_h within one day")
    if n_events_per_day < 1:
        raise TraceError("n_events_per_day must be >= 1")
    if days < 1:
        raise TraceError("days must be >= 1")
    rng = np.random.default_rng(seed)
    sigma = (end_h - start_h) / 6.0
    all_times: list[np.ndarray] = []
    for day in range(days):
        hours = np.empty(n_events_per_day)
        filled = 0
        while filled < n_events_per_day:
            draw = rng.normal(peak_h, sigma, size=2 * (n_events_per_day - filled))
            keep = draw[(draw >= start_h) & (draw <= end_h)]
            take = min(len(keep), n_events_per_day - filled)
            hours[filled:filled + take] = keep[:take]
            filled += take
        times = np.sort(hours) * 3600.0 + day * 86400.0
        # strict monotonicity even in the (measure-zero) tie case
        for k in range(1, len(times)):
            if times[k] <= times[k - 1]:
                times[k] = np.nextafter(times[k - 1], np.inf)
        all_times.append(times)
    return EventTrace(t=np.concatenate(all_times))


def synthetic_solar_trace(days: int = 2, *, peak: float = 800.0,
                          sunrise_h: float = 6.0, sunset_h: float = 18.0,
                          cadence_s: float = 60.0, shape: str = "halfsine",
                          day_jitter: Sequence[float] | None = None
                          ) -> IrradianceTrace:
    """Build a clear-sky-like day/night trace for tests and demos.

    ``shape`` is "halfsine" (smooth diurnal arc) or "square" (flat daylight
    block). ``day_jitter`` optionally scales each day's peak, e.g. to mimic
    cloudy days.
    """
    if shape not in ("halfsine", "square"):
        raise TraceError(f"unknown shape {shape!r}")
    n = int(round(days * 86400.0 / cadence_s)) + 1
    t = np.arange(n) * cadence_s
    tod = t % 86400.0
    rise, set_ = sunrise_h * 3600.0, sunset_h * 3600.0
    day_len = set_ - rise
    if shape == "halfsine":
        g = np.where((tod >= rise) & (tod <= set_),
                     np.sin(np.clip((tod - rise) / day_len, 0, 1) * math.pi), 0.0)
    else:
        g = np.where((tod >= rise) & (tod < set_), 1.0, 0.0)
    g = g * peak
    if day_jitter is not None:
        day_idx = np.minimum((t // 86400.0).astype(int), len(day_jitter) - 1)
        g = g * np.asarray(day_jitter, dtype=float)[day_idx]
    return IrradianceTrace(t=t, g=g)
