"""Harness configuration: JSON config files, model builders, result files.

A config file describes one experiment: trace sources, the electrical
chain, the application (by preset name or full parameter block), simulation
settings, an optional scaling plan, and an optional sweep grid. Configs
hash canonically so every output can state exactly what produced it, and
they round-trip through serialization losslessly.
"""

from __future__ import annotations

import difflib
import functools
import hashlib
import json
import math
import os
import time
from contextlib import ExitStack
from dataclasses import asdict, dataclass, fields

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
    "ResultSummary",
    "load_summary",
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


def build_ess(cfg: HarnessConfig) -> EssConfig:
    block = dict(cfg.raw.get("ess", {}))
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


def build_sim(cfg: HarnessConfig) -> SimConfig:
    return SimConfig(**cfg.raw.get("sim", {}))


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
# small enough that a block's byte matrices (a peak of about 1.7 MB for
# the seven profile columns) stay far below the result arrays' own memory.
# Each column of a block is its own _g10 call, whose int64 slot matrix
# holds n x width x 8 bytes (about 0.5 MB for 4096 values 16 wide): one
# call over a block's columns together cut simulate's wall time by 2.7%
# but raised its peak RSS by about 6 MB.
_BLOCK_ROWS = 4096

# The encoder's slot bytes for one value, as six little-endian words:
# "-0.e", then "00" d0 ... d9 (the ten digits of the mantissa, in three
# words), then the exponent's sign and three digits, then four NULs. A
# field is a row of these slots taken in the order its shape lists.
_SLOT_BYTES = 24
_NUL_SLOT = 20
_EXP_BIAS = 330  # exponent-indexed tables cover -330 ... 330
_POW_BIAS = 300  # the power table covers 1e-300 ... 1e300
_TIE_MARGIN = 1e-4


@functools.cache
def _g10_tables():
    """The encoder's lookup tables, built on first use (about 0.6 ms, 0.2 MB).

    ``pow10``: correctly rounded powers ``float("1e<k>")``. ``quad``: the
    four ASCII digits of 0 ... 9999 as one word each; ``sig``: how many of
    those digits are significant (trailing zeros dropped). ``expw``: the
    exponent word of each exponent; ``form``: each exponent's shape row
    (fixed with that exponent, or exponent form with two or three digits)
    times 11. ``layouts[code]``: the slots of the shape ``code = form + nd
    (+ 176 if negative)``, padded with NUL; ``lengths``: its length.
    """
    pow10 = np.array([float(f"1e{k}")
                      for k in range(-_POW_BIAS, _POW_BIAS + 1)])
    i = np.arange(10000, dtype="<u4")
    quad = (0x30303030 + i // 1000 + (i // 100 % 10 << 8)
            + (i // 10 % 10 << 16) + (i % 10 << 24))
    sig = 4 - sum(i % 10 ** k == 0 for k in range(1, 5))
    e = np.arange(-_EXP_BIAS, _EXP_BIAS + 1)
    expw = (quad[np.abs(e)] & 0xFFFFFF00) | np.where(e < 0, 45, 43).astype("<u4")
    form = 11 * np.where((e >= -4) & (e < 10), e + 4,
                         np.where(np.abs(e) < 100, 14, 15))
    layouts = []
    for f in range(16):
        for nd in range(11):
            digits = list(range(6, 6 + nd))
            if f < 4:        # 0.000ddd: fixed, exponent -4 ... -1
                slots = [1, 2] + [1] * (3 - f) + digits
            elif f < 14:     # ddd.ddd: fixed, exponent 0 ... 9
                slots = list(range(6, f + 3))
                if nd > f - 3:
                    slots += [2] + digits[f - 3:]
            else:            # d.ddde+XX or e+XXX
                slots = digits[:1] + [2] * (nd > 1) + digits[1:] + [3, 16]
                slots += [17, 18, 19] if f == 15 else [18, 19]
            layouts.append(slots + [_NUL_SLOT] * (17 - len(slots)))
    layouts = np.array(layouts)
    # Negative values: the same shapes after a "-" (slot 0).
    layouts = np.concatenate(
        (layouts, np.column_stack((np.zeros(len(layouts), int),
                                   layouts[:, :-1]))))
    lengths = (layouts != _NUL_SLOT).sum(axis=1)
    return pow10, quad, sig, expw, form, layouts, lengths


def _g10_fallback(x: float) -> bytes:
    """``%.10g`` of one value the vectorised encoder declines."""
    return b"%.10g" % x


_HEAD_WORD = np.frombuffer(b"-0.e", "<u4")[0]


def _g10(x: np.ndarray) -> np.ndarray:
    """``b"%.10g" % v`` of each float64 ``v``, as NUL-padded rows of bytes.

    Returns an ``(n, width)`` uint8 matrix. A finite ``v`` with
    ``1e-290 <= |v| <= 1e290``, or a zero, is encoded here: its exponent
    ``e`` comes from ``log10`` and one correction, so that ``s = |v| *
    1e(9-e)`` lies in ``[1e9, 1e10)``, and its ten digits are ``rint(s)``.
    The two roundings in ``s`` (the table's power and the product) leave it
    within about 2.3e-6 of the exact scaled value, so ``rint`` picks the
    correctly rounded mantissa unless ``s`` lies within ``_TIE_MARGIN`` of a
    half-integer. Such values, and every value outside the range above
    (non-finite, tiny, huge), go to :func:`_g10_fallback`.
    """
    pow10, quad, sig, expw, form, layouts, lengths = _g10_tables()
    n = len(x)
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= 1e-290) & (a <= 1e290)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    s = a * pow10[_POW_BIAS + 9 - e]
    e += s >= 1e10
    e -= s < 1e9
    s = a * pow10[_POW_BIAS + 9 - e]
    # Near a power of ten, s may still sit a rounding outside [1e9, 1e10)
    # after the correction. Within 0.01 of either edge, rint(s) is still
    # the right mantissa: 1e9, or 1e10, which carries below.
    ok = (fast & (s >= 1e9 - 0.01) & (s <= 1e10 + 0.01)
          & (np.abs(s - np.floor(s) - 0.5) > _TIE_MARGIN))
    m = np.rint(s)
    carry = m == 1e10
    m[carry] = 1e9
    e += carry
    m[~ok] = 0.0
    e[~ok] = 0
    # m < 1e10 is an exact float: split it into 2 + 4 + 4 digits.
    q = np.floor(m / 1e4)
    top = np.floor(q / 1e4)
    lo = (m - q * 1e4).astype(np.intp)
    mid = (q - top * 1e4).astype(np.intp)
    top = top.astype(np.intp)
    words = np.empty((n, 6), "<u4")
    words[:, 0] = _HEAD_WORD
    words[:, 1] = quad.take(top)
    words[:, 2] = quad.take(mid)
    words[:, 3] = quad.take(lo)
    words[:, 4] = expw.take(e + _EXP_BIAS)
    words[:, 5] = 0
    nd = np.where(lo, 6 + sig.take(lo),
                  np.where(mid, 2 + sig.take(mid), sig.take(top) - 2))
    nd[~ok] = 1
    code = form.take(e + _EXP_BIAS) + nd
    code += 176 * np.signbit(x)
    declined = np.flatnonzero(~ok & ~zero)
    slow = [_g10_fallback(v) for v in x[declined].tolist()]
    width = max([int(lengths.take(code).max(initial=1))]
                + [len(field) for field in slow])
    slots = layouts[:, :width].take(code, axis=0)
    slots += np.arange(0, _SLOT_BYTES * n, _SLOT_BYTES)[:, None]
    out = words.view(np.uint8).ravel().take(slots)
    for i, field in zip(declined.tolist(), slow):
        out[i] = 0
        out[i, :len(field)] = np.frombuffer(field, np.uint8)
    return out


@dataclass(frozen=True)
class _Grid:
    """A CSV time column that may be the bin grid ``(k + shift) * step``.

    In each block where the bits of ``values`` equal the grid's, the
    column takes the grid's fields; elsewhere it is formatted like any
    other column. ``values=None`` is the grid itself.
    """

    values: np.ndarray | None
    shift: int = 0


def _fields(seg: np.ndarray, names=None) -> np.ndarray:
    """The CSV fields of ``seg`` as NUL-padded rows of a uint8 matrix.

    Floats are written ``%.10g`` (by :func:`_g10`), integers and booleans
    ``%d``, and codes with ``names`` as ``names[code]``. Each run of equal
    bits is formatted once: runs are found on the raw bits, not by value,
    as ``0.0`` and ``-0.0`` print differently and NaN never equals itself.
    """
    if names is not None:
        table = np.array([name.encode() for name in names])
        return table.take(seg).view(np.uint8).reshape(len(seg), -1)
    bits = seg.view(f"u{seg.itemsize}")
    starts = np.empty(len(seg), dtype=bool)
    starts[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    vals = seg[starts]
    if seg.dtype.kind == "f":
        fields = _g10(vals)
    else:
        fields = np.array([b"%d" % v for v in vals.tolist()])
        fields = fields.view(np.uint8).reshape(len(vals), -1)
    if len(vals) == len(seg):
        return fields
    return fields.take(np.cumsum(starts) - 1, axis=0)


def _rows(fields) -> bytes:
    """CSV rows of equal-length field matrices: ``,`` between, NULs dropped."""
    widths = [f.shape[1] + 1 for f in fields]
    out = np.empty((len(fields[0]), sum(widths)), np.uint8)
    end = 0
    for f, width in zip(fields, widths):
        out[:, end:end + width - 1] = f
        end += width
        out[:, end - 1] = ord(",")
    out[:, -1] = ord("\n")
    flat = out.ravel()
    return flat[flat != 0].tobytes()


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
    once, for every table, lays each table's rows out as one byte matrix
    and writes it; only one block's bytes are alive at a time.
    """
    tables = [(path, header, [_column(c) for c in columns])
              for path, header, columns in tables]
    rows = [max(len(v) for v, _, _ in cols if v is not None)
            for _, _, cols in tables]
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "wb"))
                 for path, _, _ in tables]
        for fh, (_, header, _) in zip(files, tables):
            fh.write((",".join(header) + "\n").encode())
        n_max = max(rows, default=0)
        for lo in range(0, n_max, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, n_max)
            grid = np.arange(lo, hi + 1) * step
            grid_fields = None
            for fh, (_, _, cols), n in zip(files, tables, rows):
                m = min(hi, n) - lo
                if m <= 0:
                    continue
                block = []
                for values, names, shift in cols:
                    seg = None if values is None else values[lo:lo + m]
                    if shift is not None and (
                            seg is None or _same_bits(seg, grid[shift:shift + m])):
                        if grid_fields is None:
                            grid_fields = _fields(grid)
                        block.append(grid_fields[shift:shift + m])
                    else:
                        block.append(_fields(seg, names))
                fh.write(_rows(block))


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


@dataclass(frozen=True)
class ResultSummary:
    """A saved run without its bulk tables: ``result.json`` and the activity.

    The fields are :class:`~ehsim.engine.SimResult`'s of the same names;
    :func:`load_summary` reads them, and :func:`load_result` adds the rest.
    """

    ledger: EnergyLedger
    activity: ActivityProfile
    throughput_bytes: int
    boots: int
    events_offered: int
    events_detected: int
    events_detected_at_event: int
    events_observed: int
    on_time_s: float
    duration_s: float
    v_cap_final: float
    converter_on_final: bool


def load_summary(out_dir: str) -> ResultSummary:
    """Read a result's scalars, ledger and activity exactly.

    Reads ``result.json`` and ``activity.npy`` only; the config hash and
    the ``run_id`` key of older files are not read back. Raises
    :class:`ConfigError`, naming the file, for a bad ``step_len`` or a
    missing or malformed activity table.
    """
    json_path = os.path.join(out_dir, "result.json")
    with open(json_path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    step = payload.get("step_len")
    if not (isinstance(step, (int, float)) and 0.0 < step < math.inf):
        raise ConfigError(f"{json_path}: step_len is {step!r}, not a positive "
                          f"number; re-run simulate")
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
    act = _load_npy(out_dir, "activity")
    on, labels = act[:, 0], act[:, 1]
    if len(act) and (on.min() < 0 or on.max() > 1 or labels.min() < 0
                     or labels.max() >= len(PHASES)):
        raise ConfigError(f"{out_dir}: activity.npy holds an on flag or "
                          f"phase index out of range; re-run simulate")
    events = payload["events"]
    return ResultSummary(
        ledger=ledger,
        activity=ActivityProfile(step_len=float(step), on_off=on,
                                 labels=labels),
        throughput_bytes=int(payload["throughput_bytes"]),
        boots=int(payload["boots"]),
        events_offered=int(events["offered"]),
        events_detected=int(events["detected"]),
        events_detected_at_event=int(events["detected_at_event"]),
        events_observed=int(events["detected_at_next_sample"]),
        on_time_s=float(payload["on_time_s"]),
        duration_s=float(payload["duration_s"]),
        v_cap_final=float(payload["final"]["v_cap"]),
        converter_on_final=bool(payload["final"]["converter_on"]),
    )


def load_result(out_dir: str) -> SimResult:
    """Reconstruct a result exactly: :func:`load_summary` plus the tables.

    Adds the profile, voltage and event tables, and the run's stats from
    ``run_meta.json`` when it holds them; the wall time is not read back.
    Raises :class:`ConfigError`, naming the file, for a missing or
    malformed table.
    """
    summary = load_summary(out_dir)
    prof = _load_npy(out_dir, "profile")
    volt = _load_npy(out_dir, "voltage")
    ev = _load_npy(out_dir, "events")
    if len(summary.activity) != len(prof):
        raise ConfigError(f"{out_dir}: activity.npy has "
                          f"{len(summary.activity)} rows, profile.npy "
                          f"{len(prof)}; re-run simulate")
    profile = EnergyStackProfile(
        step_len=summary.activity.step_len, t_start=prof[:, 0],
        harvest=prof[:, 1], mppt_loss=prof[:, 2], converter_loss=prof[:, 3],
        soc_energy=prof[:, 4], sensor_energy=prof[:, 5],
        storage_delta=prof[:, 6])
    return SimResult(
        **{f.name: getattr(summary, f.name) for f in fields(summary)},
        profile=profile, wall_time_s=0.0,
        voltage_t=volt[:, 0], voltage_v=volt[:, 1], event_log=ev,
        stats=_load_stats(out_dir),
    )


def _load_stats(out_dir: str) -> RunStats:
    path = os.path.join(out_dir, "run_meta.json")
    if not os.path.exists(path):
        return RunStats()
    with open(path, "r", encoding="utf-8") as fh:
        return RunStats(**json.load(fh).get("stats", {}))
