"""Harness configuration: JSON config files, model builders, result files.

A config file describes one experiment: trace sources, the electrical
chain, the application (by preset name or full parameter block), simulation
settings, an optional scaling plan, and an optional sweep grid. Configs
hash canonically so every output can state exactly what produced it, and
they round-trip through serialization losslessly.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import math
import os
import time
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field

import numpy as np

from .app import AppSpec, PRESETS, preset, preset_irradiance_scale
from .engine import (EnergyLedger, EnergyStackProfile, RunStats, SimConfig,
                     SimResult, ConfigError, LEDGER_ACTIVITIES)
from .app import ActivityProfile, PHASES
from .ess import (ConverterModel, EfficiencyCurve, EssConfig, HarvesterModel,
                  MpptModel, StorageModel)
from .traces import (EventTrace, IrradianceTrace, generate_parking_events,
                     parse_events, parse_irradiance)

__all__ = [
    "HarnessConfig",
    "config_hash",
    "load_config",
    "build_ess",
    "build_app",
    "build_sim",
    "load_trace",
    "load_events",
    "save_result",
    "load_result",
]


def config_hash(raw: dict) -> str:
    """Canonical sha256 (first 16 hex digits) of a config dict."""
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class HarnessConfig:
    """A loaded config file plus its provenance."""

    raw: dict
    base_dir: str = "."

    @property
    def hash(self) -> str:
        return config_hash(self.raw)

    def path(self, rel: str) -> str:
        return rel if os.path.isabs(rel) else os.path.join(self.base_dir, rel)


# The top-level blocks a config may hold.
_BLOCKS = ("trace", "events", "ess", "app", "sim", "plan", "profile", "sweep")


def load_config(path: str) -> HarnessConfig:
    """Read a JSON config; an unknown top-level block is a ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for key in raw:
        if key not in _BLOCKS:
            near = difflib.get_close_matches(key, _BLOCKS, n=1)
            raise ConfigError(f"{key}: unknown config block"
                              + (f" ({near[0]}?)" if near else ""))
    return HarnessConfig(raw=raw, base_dir=os.path.dirname(os.path.abspath(path)))


def _efficiency(value) -> EfficiencyCurve:
    if value is None:
        return EfficiencyCurve.flat(0.85)
    if isinstance(value, (int, float)):
        return EfficiencyCurve.flat(float(value))
    pts = sorted((float(p), float(e)) for p, e in value)
    return EfficiencyCurve(power_w=tuple(p for p, _ in pts),
                           eta=tuple(e for _, e in pts))


def _load_iv_surface(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three-column (irradiance, voltage, current) grid file."""
    rows = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if rows.shape[1] != 3:
        raise ConfigError("iv surface file needs 3 columns (g, v, i)")
    gs = np.unique(rows[:, 0])
    vs = np.unique(rows[:, 1])
    grid = np.full((len(gs), len(vs)), np.nan)
    for g, v, i in rows:
        grid[np.searchsorted(gs, g), np.searchsorted(vs, v)] = i
    if np.isnan(grid).any():
        raise ConfigError("iv surface file does not cover the full grid")
    return gs, vs, grid


def build_ess(cfg: HarnessConfig, overrides: dict | None = None) -> EssConfig:
    block = dict(cfg.raw.get("ess", {}))
    if overrides:
        for key, sub in overrides.items():
            merged = dict(block.get(key, {}))
            merged.update(sub)
            block[key] = merged
    h = dict(block.get("harvester", {}))
    kind = h.pop("kind", "linear_mpp")
    if kind == "iv_surface":
        gs, vs, grid = _load_iv_surface(cfg.path(h.pop("path")))
        harvester = HarvesterModel(model_kind="iv_surface", iv_irradiance=gs,
                                   iv_voltage=vs, iv_current=grid)
    else:
        harvester = HarvesterModel(model_kind="linear_mpp",
                                   k_mpp=float(h.pop("k_mpp", 1e-4)))
    m = dict(block.get("mppt", {}))
    if "converter_efficiency" in m:
        m["converter_efficiency"] = _efficiency(m["converter_efficiency"])
    mppt = MpptModel(**m)
    s = dict(block.get("storage", {}))
    if "leak_resistance" in s and s["leak_resistance"] in ("inf", None):
        s["leak_resistance"] = math.inf
    storage = StorageModel(**s)
    c = dict(block.get("converter", {}))
    if "efficiency" in c:
        c["efficiency"] = _efficiency(c["efficiency"])
    converter = ConverterModel(**c)
    return EssConfig(harvester=harvester, mppt=mppt, storage=storage,
                     converter=converter)


def build_app(cfg: HarnessConfig) -> tuple[AppSpec, float]:
    """App spec plus its default irradiance scaler (preset-aware)."""
    block = dict(cfg.raw.get("app", {}))
    s_i = 1.0
    if "preset" in block:
        name = block.pop("preset")
        spec = preset(name)
        s_i = preset_irradiance_scale(name)
        if block:  # field overrides on top of a preset
            spec = AppSpec(**{**asdict(spec), **block})
    else:
        spec = AppSpec(**block)
    plan_block = cfg.raw.get("plan", {})
    s_i = float(plan_block.get("s_i", s_i))
    return spec, s_i


def build_sim(cfg: HarnessConfig, overrides: dict | None = None) -> SimConfig:
    block = dict(cfg.raw.get("sim", {}))
    if overrides:
        block.update(overrides)
    return SimConfig(**block)


def load_trace(cfg: HarnessConfig) -> IrradianceTrace:
    block = cfg.raw.get("trace")
    if not block or "path" not in block:
        raise ConfigError("config needs a trace block with a path")
    path = cfg.path(block["path"])
    with open(path, "r", encoding="utf-8") as fh:
        return parse_irradiance(fh, time_unit=block.get("time_unit", "s"))


def load_events(cfg: HarnessConfig, seed_override: int | None = None
                ) -> EventTrace | None:
    block = cfg.raw.get("events")
    if not block:
        return None
    if "path" in block:
        with open(cfg.path(block["path"]), "r", encoding="utf-8") as fh:
            return parse_events(fh, time_unit=block.get("time_unit", "s"))
    if "parking" in block:
        p = block["parking"]
        seed = seed_override if seed_override is not None else int(p.get("seed", 0))
        return generate_parking_events(
            opening=tuple(p.get("opening", (9.0, 20.0))),
            peak_h=float(p.get("peak_h", 14.0)),
            n_events_per_day=int(p.get("n_events_per_day", 200)),
            days=int(p.get("days", 5)),
            seed=seed)
    raise ConfigError("events block needs a path or a parking generator")


# Rows per formatted block: large enough that the per-block cost vanishes,
# small enough that a block's Python objects (about 1.7 MB for the seven
# profile columns) stay far below the result arrays' own memory.
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class _Grid:
    """A CSV time column that may be the bin grid ``(k + shift) * step``.

    In each block where the bits of ``values`` equal the grid's, the
    column takes the grid's strings; elsewhere it is formatted like any
    other column. ``values=None`` is the grid itself.
    """

    values: np.ndarray | None
    shift: int = 0


def _strings(seg: np.ndarray, names=None) -> list[str]:
    """The CSV fields of ``seg``, each run of equal bits formatted once.

    Floats are written ``%.10g`` (the bytes of ``f"{x:.10g}"``), integers
    and booleans ``%d``, and codes with ``names`` as ``names[code]``. Runs
    are found on the raw bits, not by value: ``0.0`` and ``-0.0`` print
    differently, and NaN never equals itself.
    """
    bits = seg.view(f"u{seg.itemsize}")
    starts = np.empty(len(seg), dtype=bool)
    starts[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    vals = seg[starts].tolist()
    if names is not None:
        strs = [names[v] for v in vals]
    else:
        fmt = "%.10g" if seg.dtype.kind == "f" else "%d"
        strs = [fmt % v for v in vals]
    if len(strs) == len(seg):
        return strs
    return np.array(strs, dtype=object)[np.cumsum(starts) - 1].tolist()


def _column(col) -> tuple:
    """``(values, names, grid shift)`` of one column passed to the writer."""
    if isinstance(col, _Grid):
        return col.values, None, col.shift
    if isinstance(col, tuple):
        return np.asarray(col[0]), col[1], None
    return np.asarray(col), None, None


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def _write_csvs(tables, step: float = 0.0) -> None:
    """Write result CSVs in lock step, one block of rows at a time.

    Each table is ``(path, header, columns)``: the header line, then one
    row per index of the columns. A column is an array, a
    ``(codes, names)`` pair, or a :class:`_Grid` time column on the bin
    grid ``k * step``. Each block formats its stretch of the grid at most
    once, for every table, and only one block of strings is alive at a
    time.
    """
    tables = [(path, header, [_column(c) for c in columns])
              for path, header, columns in tables]
    rows = [max(len(v) for v, _, _ in cols if v is not None)
            for _, _, cols in tables]
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", encoding="utf-8"))
                 for path, _, _ in tables]
        for fh, (_, header, _) in zip(files, tables):
            fh.write(",".join(header) + "\n")
        n_max = max(rows, default=0)
        for lo in range(0, n_max, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, n_max)
            grid = np.arange(lo, hi + 1) * step
            grid_strs = None
            for fh, (_, _, cols), n in zip(files, tables, rows):
                m = min(hi, n) - lo
                if m <= 0:
                    continue
                block = []
                for values, names, shift in cols:
                    seg = None if values is None else values[lo:lo + m]
                    if shift is not None and (
                            seg is None or _same_bits(seg, grid[shift:shift + m])):
                        if grid_strs is None:
                            grid_strs = _strings(grid)
                        block.append(grid_strs[shift:shift + m])
                    else:
                        block.append(_strings(seg, names))
                fh.write("\n".join(map(",".join, zip(*block))) + "\n")


# Exact binary twins of the result tables: file stem -> (dtype, columns).
_TABLES = {"profile": (np.dtype("<f8"), 7), "voltage": (np.dtype("<f8"), 2),
           "activity": (np.dtype("i1"), 2), "events": (np.dtype("<f8"), 2)}


def _write_npy(out_dir: str, name: str, columns) -> None:
    """Write equal-length columns as one Fortran-order ``<name>.npy`` table.

    A version 1.0 ``.npy`` header, then each column's raw bytes in turn:
    the table is never stacked in memory, the file is deterministic, and
    ``np.load`` returns the columns bit for bit.
    """
    dtype, width = _TABLES[name]
    cols = [np.ascontiguousarray(c, dtype=dtype) for c in columns]
    header = {"descr": np.lib.format.dtype_to_descr(dtype),
              "fortran_order": True, "shape": (len(cols[0]), width)}
    with open(os.path.join(out_dir, name + ".npy"), "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for col in cols:
            fh.write(col.data)


def save_result(result: SimResult, out_dir: str, config_hash: str = "") -> None:
    """Write the result files: JSON scalars/stack, ``.npy`` tables, CSV views.

    ``config_hash`` is the provenance ``result.json`` records: the hash of
    the config that produced the run (:attr:`HarnessConfig.hash`).
    ``result.json`` is byte-stable for identical runs; wall-clock metadata
    (the run's and ``save_s``, the time spent writing these files) and the
    step loop's :class:`~ehsim.engine.RunStats` go to ``run_meta.json``,
    written last, so hashes and diffs stay meaningful. The
    ``.npy`` tables are what :func:`load_result` reads back exactly; the
    CSVs hold the same tables at 10 significant digits for people.
    """
    t0 = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "config_hash": config_hash,
        "duration_s": result.duration_s,
        "step_len": result.activity.step_len,
        "throughput_bytes": result.throughput_bytes,
        "on_time_s": result.on_time_s,
        "boots": result.boots,
        "events": {
            "offered": result.events_offered,
            "detected": result.events_detected,
            "detected_at_event": result.events_detected_at_event,
            "detected_at_next_sample": result.events_observed,
        },
        "final": {"v_cap": result.v_cap_final,
                  "converter_on": result.converter_on_final},
        "stack": result.ledger.as_dict(),
    }
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    prof = result.profile
    prof_cols = (prof.t_start, prof.harvest, prof.mppt_loss,
                 prof.converter_loss, prof.soc_energy, prof.sensor_energy,
                 prof.storage_delta)
    _write_npy(out_dir, "profile", prof_cols)
    act = result.activity
    _write_npy(out_dir, "activity", (act.on_off, act.labels))
    _write_npy(out_dir, "voltage", (result.voltage_t, result.voltage_v))
    ev = np.asarray(result.event_log, dtype=float).reshape(-1, 2)
    _write_npy(out_dir, "events", (ev[:, 0], ev[:, 1]))
    _write_csvs([
        (os.path.join(out_dir, "profile.csv"),
         ("t_start_s", "harvest_j", "mppt_loss_j", "converter_loss_j",
          "soc_j", "sensor_j", "storage_delta_j"),
         (_Grid(prof.t_start),) + prof_cols[1:]),
        (os.path.join(out_dir, "activity.csv"), ("t_start_s", "on", "label"),
         (_Grid(None), act.on_off, (act.labels, PHASES))),
        (os.path.join(out_dir, "voltage.csv"), ("t_s", "v_cap"),
         (_Grid(result.voltage_t, shift=1), result.voltage_v)),
        (os.path.join(out_dir, "events.csv"), ("t_s", "powered_at_event"),
         (ev[:, 0], ev[:, 1].astype(np.int64))),
    ], step=act.step_len)
    with open(os.path.join(out_dir, "run_meta.json"), "w", encoding="utf-8") as fh:
        json.dump({"wall_time_s": result.wall_time_s,
                   "save_s": time.perf_counter() - t0,
                   "stats": asdict(result.stats)}, fh, indent=2)
        fh.write("\n")


def _load_npy(out_dir: str, name: str) -> np.ndarray:
    """One result table, checked against the dtype and width it was saved with."""
    dtype, width = _TABLES[name]
    path = os.path.join(out_dir, name + ".npy")
    try:
        with open(path, "rb") as fh:
            arr = np.load(fh)
    except (OSError, ValueError, EOFError) as exc:
        raise ConfigError(f"{path}: unreadable result table ({exc}); "
                          f"re-run simulate") from None
    if not (isinstance(arr, np.ndarray) and arr.dtype == dtype
            and arr.ndim == 2 and arr.shape[1] == width):
        found = (f"{arr.shape} {arr.dtype}" if isinstance(arr, np.ndarray)
                 else type(arr).__name__)
        raise ConfigError(f"{path}: expected an n x {width} {dtype} table, "
                          f"found {found}; re-run simulate")
    return arr


def load_result(out_dir: str) -> SimResult:
    """Reconstruct a result exactly from ``result.json`` and its ``.npy`` tables.

    The run's stats come from ``run_meta.json`` when it holds them; the
    wall time and the config hash are not read back, nor is the ``run_id``
    key of older files. Raises :class:`ConfigError`, naming the
    file, for a missing or malformed table.
    """
    json_path = os.path.join(out_dir, "result.json")
    with open(json_path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    step = payload.get("step_len")
    if not (isinstance(step, (int, float)) and 0.0 < step < math.inf):
        raise ConfigError(f"{json_path}: step_len is {step!r}, not a positive "
                          f"number; re-run simulate")
    step = float(step)
    stack_d = payload["stack"]
    ledger = EnergyLedger(
        harvest_input=stack_d["harvest_input_j"],
        mppt_loss=stack_d["mppt_loss_j"],
        storage_loss_leak=stack_d["storage_loss_leak_j"],
        storage_loss_esr=stack_d["storage_loss_esr_j"],
        storage_residual=stack_d["storage_residual_j"],
        converter_loss=stack_d["converter_loss_j"],
        initial_storage=stack_d["initial_storage_j"],
        sss_by_activity={k: stack_d["sss_by_activity_j"].get(k, 0.0)
                         for k in LEDGER_ACTIVITIES},
    )
    prof = _load_npy(out_dir, "profile")
    act = _load_npy(out_dir, "activity")
    volt = _load_npy(out_dir, "voltage")
    ev = _load_npy(out_dir, "events")
    if len(act) != len(prof):
        raise ConfigError(f"{out_dir}: activity.npy has {len(act)} rows, "
                          f"profile.npy {len(prof)}; re-run simulate")
    on, labels = act[:, 0], act[:, 1]
    if len(act) and (on.min() < 0 or on.max() > 1 or labels.min() < 0
                     or labels.max() >= len(PHASES)):
        raise ConfigError(f"{out_dir}: activity.npy holds an on flag or "
                          f"phase index out of range; re-run simulate")
    profile = EnergyStackProfile(
        step_len=step, t_start=prof[:, 0], harvest=prof[:, 1],
        mppt_loss=prof[:, 2], converter_loss=prof[:, 3],
        soc_energy=prof[:, 4], sensor_energy=prof[:, 5],
        storage_delta=prof[:, 6])
    activity = ActivityProfile(step_len=step, on_off=on, labels=labels)

    return SimResult(
        ledger=ledger, profile=profile, activity=activity,
        throughput_bytes=int(payload["throughput_bytes"]),
        boots=int(payload["boots"]),
        events_offered=int(payload["events"]["offered"]),
        events_detected=int(payload["events"]["detected"]),
        events_detected_at_event=int(payload["events"]["detected_at_event"]),
        events_observed=int(payload["events"]["detected_at_next_sample"]),
        on_time_s=float(payload["on_time_s"]),
        duration_s=float(payload["duration_s"]),
        wall_time_s=0.0,
        v_cap_final=float(payload["final"]["v_cap"]),
        converter_on_final=bool(payload["final"]["converter_on"]),
        voltage_t=volt[:, 0], voltage_v=volt[:, 1],
        event_log=ev,
        stats=_load_stats(out_dir),
    )


def _load_stats(out_dir: str) -> RunStats:
    path = os.path.join(out_dir, "run_meta.json")
    if not os.path.exists(path):
        return RunStats()
    with open(path, "r", encoding="utf-8") as fh:
        return RunStats(**json.load(fh).get("stats", {}))
