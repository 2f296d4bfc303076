"""The benchmark's workloads: seeded inputs, the timed CLI command, output checks.

Each workload is one way users drive ``ehsim``:

* ``simulate_tmp1``: the real-time TMP1 baseline on the lossy demo-02 chain
  (2.2 F, 0.5 ohm ESR, 1 Mohm leak). Time splits between the engine's step
  loop and the CSV writer; no DTW, no result loading.
* ``compare_tmp1``: ``ehsim compare --window 60`` of a TMP1 real-time run
  against its ``st-sp`` run. Set-up builds both runs; the timed command is
  mostly banded DTW plus result parsing.

Inputs come only from the seed: it draws the per-day irradiance jitter.
The program sees only the generated trace and config files.

Sizes are set by the time budget of the steadiness protocol (48 runs of
about a minute each, set-up included) and by the need for several samples
per run on a noisy host: the simulate trace covers 00:00 to 12:00 (night,
dawn, charge-up and the first hours of operation) and the compare trace
14:00 to 20:00 (the node turns off before the end, so the row count does
not depend on the seed).
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

WORKLOADS = ("simulate_tmp1", "compare_tmp1")

# Largest relative change of a day's peak irradiance drawn from the seed.
# Kept small so that the amount of simulated work barely depends on the seed.
DAY_JITTER = 0.03

DTW_WINDOW_S = 60.0

# The demo-02 lossy chain; every other ESS parameter keeps its default.
TMP1_CHAIN = {"storage": {"capacitance": 2.2, "esr": 0.5,
                          "leak_resistance": 1e6}}

# Ledger closure tolerance of ehsim.engine.finalize_stack.
CLOSURE_REL_TOL = 1e-3
CLOSURE_ABS_TOL = 1e-9


class CheckFailure(Exception):
    """An output of the program is missing or wrong."""


def _solar_trace(path: str, rng: np.random.Generator, start_h: float,
                 hours: float, cadence_s: float) -> None:
    """Half-sine clear-sky days (sunrise 06:00, sunset 18:00, 800 W/m^2)
    with a seeded per-day peak jitter, written as ``seconds,W/m^2``."""
    t = np.arange(0.0, hours * 3600.0 + 1e-9, cadence_s)
    clock = t + start_h * 3600.0
    day = (clock // 86400.0).astype(int)
    peak = 800.0 * (1.0 + rng.uniform(-DAY_JITTER, DAY_JITTER,
                                      size=day[-1] + 1))
    tod = clock % 86400.0
    arc = np.clip((tod - 6 * 3600.0) / (12 * 3600.0), 0.0, 1.0)
    g = np.where((tod >= 6 * 3600.0) & (tod <= 18 * 3600.0),
                 np.sin(arc * math.pi), 0.0) * peak[day]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# t_s,g_wm2\n")
        fh.writelines(f"{a:.6f},{b:.6f}\n" for a, b in zip(t, g))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# (start hour, hours) of each workload's irradiance trace.
WINDOWS = {"simulate_tmp1": (0.0, 12.0), "compare_tmp1": (14.0, 6.0)}


def make_inputs(workload: str, seed: int, work: str,
                window: tuple[float, float] | None = None) -> None:
    """Write the trace and config files of ``workload`` into ``work``.

    ``window`` replaces the workload's (start hour, hours), for the
    benchmark's own checks on tiny inputs.
    """
    if workload not in WINDOWS:
        raise ValueError(f"unknown workload {workload!r}")
    start_h, hours = window or WINDOWS[workload]
    _solar_trace(os.path.join(work, "trace.csv"), np.random.default_rng(seed),
                 start_h, hours, cadence_s=60.0)
    cfg = {"trace": {"path": "trace.csv"}, "ess": TMP1_CHAIN,
           "app": {"preset": "TMP1"}, "sim": {"dt_quiescent": 0.2}}
    _write_json(os.path.join(work, "config.json"), cfg)


def setup_commands(workload: str, work: str) -> list[list[str]]:
    """CLI commands that build the inputs of the timed command."""
    if workload != "compare_tmp1":
        return []
    cfg = os.path.join(work, "config.json")
    return [["simulate", "--config", cfg, "--out", os.path.join(work, "rt"),
             "--mode", "realtime"],
            ["simulate", "--config", cfg, "--out", os.path.join(work, "sp"),
             "--mode", "st-sp"]]


def timed_command(workload: str, work: str, out: str) -> list[str]:
    """The CLI command one timed sample runs."""
    if workload == "simulate_tmp1":
        return ["simulate", "--config", os.path.join(work, "config.json"),
                "--out", out, "--mode", "realtime"]
    return ["compare", "--baseline", os.path.join(work, "rt"),
            "--scaled", os.path.join(work, "sp"),
            "--plan", os.path.join(work, "sp", "plan.json"),
            "--window", f"{DTW_WINDOW_S:g}", "--out", out]


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def dir_digests(path: str, prefix: str = "") -> dict:
    """sha256 of every file a command wrote, except its wall-clock metadata."""
    return {prefix + name: sha256(os.path.join(path, name))
            for name in sorted(os.listdir(path)) if name != "run_meta.json"}


def input_digests(workload: str, work: str) -> dict:
    digests = {n: sha256(os.path.join(work, n))
               for n in ("trace.csv", "config.json")}
    if workload == "compare_tmp1":
        for run in ("rt", "sp"):
            digests.update(dir_digests(os.path.join(work, run), run + "/"))
    return digests


def check_closure(result_dir: str) -> None:
    """The stored energy ledger closes within the engine's own tolerance."""
    with open(os.path.join(result_dir, "result.json"), encoding="utf-8") as fh:
        stack = json.load(fh)["stack"]
    err = stack["closure_error_j"]
    total = stack["harvest_input_j"] + stack["initial_storage_j"]
    if not (isinstance(err, (int, float)) and math.isfinite(err)):
        raise CheckFailure(f"{result_dir}: closure_error_j is {err!r}")
    if abs(err) > CLOSURE_REL_TOL * max(total, 1e-12) + CLOSURE_ABS_TOL:
        raise CheckFailure(f"{result_dir}: closure error {err:.3e} J over "
                           f"tolerance for input {total:.3e} J")


def csv_rows(path: str) -> int:
    """Data rows of a CSV file with one header line."""
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def check_outputs(workload: str, out: str) -> tuple[dict, dict]:
    """Check one timed command's outputs; return (payload digests, figures).

    Raises :class:`CheckFailure` on the first wrong or missing output.
    """
    try:
        if workload == "simulate_tmp1":
            check_closure(out)
            return (dir_digests(out),
                    {"activity_rows": csv_rows(os.path.join(out,
                                                            "activity.csv"))})
        return _check_compare(out)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        raise CheckFailure(f"{workload}: unreadable output: "
                           f"{type(exc).__name__}: {exc}") from exc


def _check_compare(out: str) -> tuple[dict, dict]:
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    for key in ("ape_raw", "ape_dtw"):
        ape = report[key]
        if ape["n_total"] <= 0 or ape["epsilon"] != ape["n_diff"] / ape["n_total"]:
            raise CheckFailure(f"report {key}: epsilon {ape['epsilon']!r} is "
                               f"not n_diff/n_total = {ape['n_diff']}/"
                               f"{ape['n_total']}")
    thr = report["throughput_error"]
    if not math.isfinite(thr):
        raise CheckFailure(f"report throughput_error is {thr!r}")
    return (dir_digests(out),
            {"thr_err": thr, "ape_raw": report["ape_raw"]["epsilon"],
             "ape_dtw": report["ape_dtw"]["epsilon"]})
