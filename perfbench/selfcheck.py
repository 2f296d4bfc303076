#!/usr/bin/env python3
"""Checks of the benchmark itself, on tiny inputs, in about a minute.

Run from the repository root::

    python3 perfbench/selfcheck.py

For each workload it builds a tiny version of the inputs, runs an untraced
and a traced command through the same code the benchmark runs, and checks
that:

* every metric named in ``BENCHMARK.json`` is reported with its unit, both
  in the result and in the printed lines;
* ``engine.bins`` equals the rows of ``activity.csv`` (checked in every
  traced command);
* the self times of all layers add up to the traced commands' wall time,
  taken around the tracer, within a small slack;
* ``metrics.dtw_cells`` equals the Sakoe-Chiba band sum counted cell by
  cell for the DTW lengths and windows the traced command ran.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# (start hour, hours) of the tiny traces: short, but long enough for the
# node to switch on so that every layer does some work.
TINY_WINDOWS = {"simulate_tmp1": (9.0, 2.0), "compare_tmp1": (9.0, 2.0)}


def _band_sum(n: int, r: int) -> int:
    rows = np.arange(n)
    return int(np.sum(np.minimum(rows + r, n - 1) - np.maximum(rows - r, 0) + 1))


def check_workload(workload: str, work: str) -> list[str]:
    problems = []
    base = {"workload": workload, "seed": 7, "work": work,
            "window": TINY_WINDOWS[workload], "root": ROOT}
    setup = child.setup(base)
    untraced = child.timed({**base, "seconds": 0.0, "trace": False})
    traced = child.timed({**base, "seconds": 0.0, "trace": True})
    for trace, timed in ((0, untraced), (1, traced)):
        args = argparse.Namespace(workload=workload, seed=7, seconds=0.0,
                                  trace=trace)
        record = run.assemble(args, [1.0], [setup["digests"]], [timed],
                              list(setup["failures"]), 1)
        problems += [f"{workload}: {p}" for p in record["failures"]]
        problems += _check_report(workload, trace, record)

    for span in traced["spans"]:
        if "dtw_cells" in span:
            n, r = span["dtw_rows"], span["dtw_radius"]
            if span["dtw_cells"] != _band_sum(n, r):
                problems.append(f"{workload}: dtw_cells {span['dtw_cells']} "
                                f"!= band sum {_band_sum(n, r)} (n={n}, r={r})")
    if workload == "compare_tmp1" and not any("dtw_cells" in s
                                              for s in traced["spans"]):
        problems.append("compare_tmp1: the tiny compare ran no DTW")
    if workload == "simulate_tmp1" and not traced["layers"]["engine.bins"]:
        problems.append(f"{workload}: no engine bins recorded")
    return problems


def _check_report(workload: str, trace: int, record: dict) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    lines = run.report_lines(record)
    printed = {line.split()[0]: line.split()[1:] for line in lines[:-1]}
    last = json.loads(lines[-1])
    problems = []
    if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result line keys {sorted(last)}")
    if sorted(last["metrics"]) != sorted(m["name"] for m in wanted):
        problems.append(f"trace {trace} metrics differ from BENCHMARK.json: "
                        f"{sorted(set(last['metrics']) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = last["metrics"].get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            problems.append(f"{m['name']}: {got} (unit should be {m['unit']})")
        if printed.get(m["name"], [None, None])[1] != m["unit"]:
            problems.append(f"{m['name']} not printed with unit {m['unit']}")
    return [f"{workload} trace {trace}: {p}" for p in problems]


def main() -> int:
    problems = [f"band_cells({n}, {r}) != band sum"
                for n in (1, 2, 5, 50) for r in (0, 1, 3, 60)
                if tracing.band_cells(n, r) != _band_sum(n, min(r, n - 1))]
    work_root = os.path.join(ROOT, ".perfbench_work", f"selfcheck-{os.getpid()}")
    try:
        for workload in wl.WORKLOADS:
            work = os.path.join(work_root, workload)
            os.makedirs(work)
            problems += check_workload(workload, work)
            print(f"selfcheck {workload}: done", flush=True)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    for p in problems:
        print(f"FAILED: {p}")
    print("selfcheck: ok" if not problems else
          f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
