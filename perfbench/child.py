"""Subprocess side of the benchmark: one set-up, or one timed pass.

Usage: ``python3 perfbench/child.py REQUEST.json RESPONSE.json``. The
request names the action (``setup`` or ``time``), the workload, the seed, the
work directory and, for a timed pass, its length and whether to trace. The
response holds the samples, the checks' verdicts and, when traced, the spans.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def _run_cli(cli, argv: list[str]) -> int:
    """Exit code of one CLI command; a crash is a failed command, not a
    crashed benchmark, so that it stays in the sample."""
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001
        traceback.print_exc()
        return 1


def setup(req: dict) -> dict:
    """Generate the inputs and run the commands that build them."""
    import ehsim.cli as cli
    import workloads as wl

    work = req["work"]
    os.makedirs(work, exist_ok=True)
    wl.make_inputs(req["workload"], req["seed"], work, req.get("window"))
    failures = []
    for argv in wl.setup_commands(req["workload"], work):
        rc = _run_cli(cli, argv)
        if rc != 0:
            failures.append(f"set-up command {argv[0]} exited {rc}")
            continue
        try:
            wl.check_closure(argv[argv.index("--out") + 1])
        except wl.CheckFailure as exc:
            failures.append(str(exc))
    digests = {} if failures else wl.input_digests(req["workload"], work)
    return {"failures": failures, "digests": digests}


def _run_meta_seconds(out: str) -> float:
    """Simulate wall time the program itself recorded for this command."""
    path = os.path.join(out, "run_meta.json")
    if not os.path.exists(path):
        return 0.0
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["wall_time_s"]


def timed(req: dict) -> dict:
    """Repeat the workload's command for ``seconds`` and check every output.

    At least one command runs. With ``trace`` set, commands alternate
    untraced and traced, so that both see the same host conditions, and at
    least one of each runs.
    """
    import numpy as np
    import ehsim.cli as cli
    import ehsim.engine as engine
    import tracing
    import workloads as wl

    workload, work = req["workload"], req["work"]
    tracer = tracing.Tracer() if req["trace"] else None
    samples, traced_samples = [], []
    failures, digests, figures, run_meta = [], [], {}, []
    t_start = time.perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        out = os.path.join(work, f"out{k}")
        argv = wl.timed_command(workload, work, out)
        if traced:
            tracer.request = k
            tracing.install(tracer, cli, engine)
        t0 = time.perf_counter()
        rc = (tracer.run("cli", "main", _run_cli, (cli, argv)) if traced
              else _run_cli(cli, argv))
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        (traced_samples if traced else samples).append(wall)
        if rc != 0:
            failures.append(f"command {k} exited {rc}")
        else:
            try:
                dig, figures = wl.check_outputs(workload, out)
                digests.append(dig)
                if not traced:
                    run_meta.append(_run_meta_seconds(out))
                else:
                    bins = sum(s.get("bins", 0) for s in tracer.spans
                               if s["request"] == k and s["layer"] == "engine")
                    if bins != figures.get("activity_rows", bins):
                        failures.append(f"command {k}: engine.bins {bins} != "
                                        f"activity.csv rows "
                                        f"{figures['activity_rows']}")
            except wl.CheckFailure as exc:
                failures.append(f"command {k}: {exc}")
        shutil.rmtree(out, ignore_errors=True)
        k += 1
        elapsed = time.perf_counter() - t_start
        if ((elapsed >= req["seconds"] or elapsed + 0.5 * wall > req["seconds"])
                and (tracer is None or traced_samples)):
            break

    resp = {"samples": samples, "traced_samples": traced_samples,
            "elapsed_s": elapsed, "failures": failures, "digests": digests,
            "figures": figures, "numpy": np.__version__,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        problem = tracing.self_time_check(tracer, traced_samples)
        if problem:
            failures.append(problem)
        resp["spans"] = tracer.spans
        resp["counters"] = tracer.counters
        resp["layers"] = tracing.layer_metrics(
            tracer, len(traced_samples),
            statistics.median(run_meta) if run_meta else 0.0)
        resp["layers"]["metrics.dtw_peak_mb"] = (
            _dtw_peak_mb(tracer, cli, engine, workload, work)
            if any("dtw_cells" in s for s in tracer.spans) else 0.0)
    return resp


def _dtw_peak_mb(tracer, cli, engine, workload: str, work: str) -> float:
    """One more command with tracemalloc on around each DTW, spans dropped.

    Kept apart from the timed commands because tracemalloc slows the DTW.
    """
    import tracing
    import workloads as wl
    mark = len(tracer.spans)
    tracer.memory_probe = True
    tracing.install(tracer, cli, engine)
    out = os.path.join(work, "probe")
    _run_cli(cli, wl.timed_command(workload, work, out))
    tracer.uninstall()
    shutil.rmtree(out, ignore_errors=True)
    tracer.memory_probe = False
    peaks = [s.get("dtw_peak_bytes", 0) for s in tracer.spans[mark:]]
    del tracer.spans[mark:]
    return max(peaks, default=0) / 1e6


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        req = json.load(fh)
    sys.path[:0] = [os.path.join(req["root"], "src"), HERE]
    resp = setup(req) if req["action"] == "setup" else timed(req)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(resp, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
