"""Test oracle: the per-row result writers.

``save_result`` is the writer that ``ehsim.config`` used before its block
writer, and ``write_mismatch_spans`` is the loop ``ehsim compare`` used for
``mismatch_spans.csv``. Both are kept verbatim so the differential tests can
require byte-identical files from the production writer, except that every
time column is computed per row from the bin grid, ``k * step`` or ``(k +
1) * step``, as the activity loop always did: results no longer store
their times.
"""

from __future__ import annotations

import json
import os

from ehsim.app import PHASES
from ehsim.engine import SimResult


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def save_result(result: SimResult, out_dir: str, config_hash: str = "") -> None:
    """Write the result files: JSON scalars/stack plus CSV companions.

    ``result.json`` is byte-stable for identical runs; wall-clock metadata
    goes to ``run_meta.json`` so hashes and diffs stay meaningful.
    """
    os.makedirs(out_dir, exist_ok=True)
    led = result.ledger
    payload = {
        "config_hash": config_hash,
        "duration_s": result.duration_s,
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
    with open(os.path.join(out_dir, "run_meta.json"), "w", encoding="utf-8") as fh:
        json.dump({"wall_time_s": result.wall_time_s}, fh, indent=2)
        fh.write("\n")

    prof = result.profile
    with open(os.path.join(out_dir, "profile.csv"), "w", encoding="utf-8") as fh:
        fh.write("t_start_s,harvest_j,mppt_loss_j,converter_loss_j,"
                 "soc_j,sensor_j,storage_delta_j\n")
        step = prof.step_len
        for k in range(len(prof)):
            fh.write(",".join((
                _fmt(k * step), _fmt(prof.harvest[k]),
                _fmt(prof.mppt_loss[k]), _fmt(prof.converter_loss[k]),
                _fmt(prof.soc_energy[k]), _fmt(prof.sensor_energy[k]),
                _fmt(prof.storage_delta[k]))) + "\n")

    act = result.activity
    with open(os.path.join(out_dir, "activity.csv"), "w", encoding="utf-8") as fh:
        fh.write("t_start_s,on,label\n")
        step = act.step_len
        for k in range(len(act)):
            fh.write(f"{_fmt(k * step)},{int(act.on_off[k])},"
                     f"{PHASES[act.labels[k]]}\n")

    with open(os.path.join(out_dir, "voltage.csv"), "w", encoding="utf-8") as fh:
        fh.write("t_s,v_cap\n")
        step = act.step_len
        for k in range(len(result.voltage_v)):
            fh.write(f"{_fmt((k + 1) * step)},{_fmt(result.voltage_v[k])}\n")

    with open(os.path.join(out_dir, "events.csv"), "w", encoding="utf-8") as fh:
        fh.write("t_s,powered_at_event\n")
        for row in result.event_log:
            fh.write(f"{_fmt(row[0])},{int(row[1])}\n")


def write_mismatch_spans(path: str, spans) -> None:
    """``mismatch_spans.csv`` as ``ehsim compare`` wrote it row by row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t_start_s,t_end_s\n")
        for lo, hi in spans:
            fh.write(f"{lo:.10g},{hi:.10g}\n")
