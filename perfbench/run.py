#!/usr/bin/env python3
"""ehsim benchmark: times the ``ehsim`` CLI on seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload simulate_tmp1 --seed 1 --seconds 42 --trace 0

With ``--trace 0`` one run makes seven rounds. Each round sets the
workload up in a fresh process, then repeats the workload's CLI command, in
process through ``ehsim.cli.main``, in a fresh timed process for a seventh
of ``--seconds`` and checks every output. Interleaving the set-ups with the
commands lets both medians see the same host conditions. The run reports
the end-to-end metrics (tracing off). With ``--trace 1`` one set-up is
followed by one timed process that alternates untraced and traced
commands; the run reports the per-layer metrics from the traced commands
plus the tracing overhead (traced minus untraced median wall time).

End-to-end metrics (``--trace 0``):

* ``setup_s``: median wall time of the set-ups, each a fresh process that
  imports ehsim, writes the inputs and, for ``compare_tmp1``, runs the
  real-time and ``st-sp`` simulations the comparison reads;
* ``wall_s``: median wall time of the timed commands; a failed command
  stays in the sample;
* ``peak_rss_mb``: the highest high-water RSS of the timed processes.

A failed command or output check counts in the result's ``failed``, out
of ``attempted`` set-ups and commands. The accuracy of ``compare_tmp1``
(``accuracy.*``) is fixed by the seed; the traced run reports it and the
payload digests pin it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record of
the run (environment stamp, every sample, payload digests, spans) is
written to ``.perfbench_out/`` at exit. Work files live in
``.perfbench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "engine.busy_s": "s", "engine.steps": "count", "engine.ns_per_step": "ns",
    "engine.bins": "count", "engine.steps_per_bin": "ratio",
    "engine.sim_s": "s", "engine.drain_s": "s",
    "ess.busy_s": "s", "ess.calls": "count",
    "app.busy_s": "s", "app.calls": "count",
    "config.save_s": "s", "config.save_mb": "MB", "config.save_mb_per_s": "MB/s",
    "config.load_s": "s", "config.load_mb_per_s": "MB/s",
    "metrics.dtw_s": "s", "metrics.dtw_cells": "count",
    "metrics.dtw_cells_per_s": "1/s", "metrics.dtw_rows_per_s": "1/s",
    "metrics.dtw_peak_mb": "MB", "metrics.profile_runs": "count",
    "metrics.spans_s": "s",
    "scaling.build_s": "s", "scaling.rescale_s": "s", "traces.load_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
    "wall.samples": "count", "wall.untraced_s": "s", "wall.traced_s": "s",
    "accuracy.thr_err": "ratio", "accuracy.ape_raw": "ratio",
    "accuracy.ape_dtw": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run (missing program, crashed child)."""


def _tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, as (pct, value)."""
    n = len(values)
    if n < 20:
        return None
    pct = 100.0 * (n - 10) / n
    return pct, sorted(values)[n - 11]


def _git_rev() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Starts child processes under one overall deadline."""

    def __init__(self, work: str):
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.calls = 0

    def child(self, req: dict) -> tuple[dict, float]:
        """Run ``child.py`` on ``req``; return (response, wall seconds)."""
        self.calls += 1
        tag = f"{req['action']}{self.calls}"
        req_path = os.path.join(self.work, f"{tag}.req.json")
        resp_path = os.path.join(self.work, f"{tag}.resp.json")
        log_path = os.path.join(self.work, f"{tag}.log")
        with open(req_path, "w", encoding="utf-8") as fh:
            json.dump({**req, "root": ROOT}, fh)
        timeout = max(self.deadline - time.monotonic(), 1.0)
        with open(log_path, "w", encoding="utf-8") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), req_path,
                 resp_path], cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
            # A blocking wait times the child exactly; the timer enforces
            # the budget by killing its whole process group.
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                rc = proc.wait()
            finally:
                timer.cancel()
                _kill_group(proc.pid)  # anything a crashed child left
        wall = time.perf_counter() - t0
        if rc == -signal.SIGKILL:
            raise BenchError(f"{tag} exceeded the {DEADLINE_S:g} s budget")
        if rc != 0 or not os.path.exists(resp_path):
            with open(log_path, encoding="utf-8") as fh:
                log_tail = fh.read()[-2000:]
            raise BenchError(f"{tag} exited {rc}:\n{log_tail}")
        with open(resp_path, encoding="utf-8") as fh:
            return json.load(fh), wall


def run(args) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "ehsim", "cli.py")):
        raise BenchError(f"no ehsim sources under {ROOT}/src")
    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return _measure(args, Runner(work), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, runner: Runner, work: str) -> dict:
    failures: list[str] = []
    attempted = 0
    setup_s, input_digests, passes = [], [], []
    rounds = 1 if args.trace else SETUP_REPEATS
    inputs = None
    timed_s = 0.0
    for i in range(rounds):
        rep = os.path.join(work, f"setup{i}")
        resp, wall = runner.child({"action": "setup", "workload": args.workload,
                                   "seed": args.seed, "work": rep})
        attempted += 1
        setup_s.append(wall)
        failures += resp["failures"]
        input_digests.append(resp["digests"])
        if inputs:
            shutil.rmtree(inputs, ignore_errors=True)
        inputs = rep
        # Each round's share of --seconds, less what earlier rounds overran.
        budget = args.seconds * (i + 1) / rounds - timed_s
        resp, _ = runner.child({"action": "time", "workload": args.workload,
                                "seed": args.seed, "work": inputs,
                                "seconds": budget, "trace": bool(args.trace)})
        timed_s += resp["elapsed_s"]
        passes.append(resp)
    if any(d != input_digests[0] for d in input_digests):
        failures.append("set-up repeats made different inputs")
    return assemble(args, setup_s, input_digests, passes, failures, attempted)


def assemble(args, setup_s: list[float], input_digests: list[dict],
             passes: list[dict], failures: list[str], attempted: int) -> dict:
    """The run's record: metrics, samples, digests, failures and stamp."""
    walls, traced_walls, digests = [], [], []
    for p in passes:
        walls += p["samples"]
        traced_walls += p["traced_samples"]
        failures += p["failures"]
        digests += p["digests"]
    attempted += len(walls) + len(traced_walls)
    if any(d != digests[0] for d in digests):
        failures.append("payload digests differ between commands")

    wall_s = statistics.median(walls)
    metrics = {"setup_s": statistics.median(setup_s), "wall_s": wall_s,
               "peak_rss_mb": max(p["peak_rss_kb"] for p in passes) / 1024.0}
    units = END_TO_END_UNITS
    if args.trace:
        traced = passes[-1]
        traced_wall = statistics.median(traced_walls)
        figures = traced["figures"]
        metrics = {
            **traced["layers"],
            "trace.overhead_s": traced_wall - wall_s,
            "trace.overhead_frac": (traced_wall - wall_s) / wall_s,
            "wall.samples": float(len(walls)),
            "wall.untraced_s": wall_s,
            "wall.traced_s": traced_wall,
            "accuracy.thr_err": figures.get("thr_err", 0.0),
            "accuracy.ape_raw": figures.get("ape_raw", 0.0),
            "accuracy.ape_dtw": figures.get("ape_dtw", 0.0),
        }
        units = PER_LAYER_UNITS
    tail = _tail(walls)
    return {
        "stamp": {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
                  "python": platform.python_version(),
                  "numpy": passes[0]["numpy"], "git_rev": _git_rev()},
        "wall_samples_s": walls,
        "traced_wall_samples_s": traced_walls,
        "wall_tail": ({"percentile": tail[0], "value_s": tail[1]}
                      if tail else None),
        "setup_samples_s": setup_s,
        "input_digests": input_digests[-1],
        "payload_digests": digests[0] if digests else {},
        "failures": failures,
        "attempted": attempted,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "spans": passes[-1].get("spans", []),
        "counters": passes[-1].get("counters", {}),
    }


def report_lines(record: dict) -> list[str]:
    """Printed lines of a run; the last one is the JSON result."""
    walls = record["wall_samples_s"]
    tail = record["wall_tail"]
    lines = [" ".join(f"{k}={v}" for k, v in record["stamp"].items()),
             f"wall_s samples={len(walls)} median={statistics.median(walls):.4f} "
             + (f"p{tail['percentile']:.0f}={tail['value_s']:.4f}" if tail
                else "tail=n/a (fewer than 20 samples)")]
    lines += [f"sha256 {k} {v}" for k, v in record["payload_digests"].items()]
    lines += [f"FAILED: {p}" for p in record["failures"]]
    lines += [f"{k} {m['value']:.6g} {m['unit']}"
              for k, m in record["metrics"].items()]
    # One failed command can fail several checks; count it once.
    failed = min(len(record["failures"]), record["attempted"])
    lines.append(json.dumps({"correct": failed == 0,
                             "attempted": record["attempted"],
                             "failed": failed,
                             "metrics": record["metrics"]}))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("\n".join(report_lines(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
