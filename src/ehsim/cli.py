"""Command-line orchestration: simulate, profile, plan, compare, sweep, stacks.

Every command takes a JSON config (--config), writes machine-readable
outputs under --out, and stamps them with the config hash so runs are
reproducible and diffable. Exit codes: 0 success, 2 configuration error,
3 runtime/consistency error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .app import AppError, AppSpec
from .config import (HarnessConfig, _write_csvs, build_app, build_ess,
                     build_sim, load_config, load_events, load_trace,
                     save_result, load_result, load_summary)
from .engine import (ClosureError, ConfigError, SimResult, simulate)
from .ess import EssError
from .metrics import compute_ape, mismatch_spans, throughput_error
from .scaling import (MODES, PlanError, PowerProfile, ScalingPlan,
                      build_experiment, plan_run, predict_throughput,
                      profile_application, rescale_activity)
from .traces import TraceError

_CONFIG_ERRORS = (ConfigError, TraceError, AppError, EssError, PlanError,
                  FileNotFoundError, json.JSONDecodeError, KeyError,
                  TypeError, ValueError)


# What a sweep cell's own parameters can make fail; any other exception is a
# fault of the program and ends the sweep.
_CELL_ERRORS = (ConfigError, EssError, AppError, PlanError, TraceError,
                ClosureError)


def _profile_from_config(cfg: HarnessConfig, app: AppSpec) -> PowerProfile:
    block = cfg.raw.get("profile", {})
    duration = float(block.get("duration_s", 3600.0))
    supply = float(block.get("supply_v", 3.3))
    return profile_application(app, duration, supply_v=supply)


def _resolve_plan(cfg: HarnessConfig, app: AppSpec, s_i: float,
                  mode_override: str | None, *, s_tp: str | None = None,
                  profile_path: str | None = None, accelerate: bool = False
                  ) -> tuple[ScalingPlan, PowerProfile | None]:
    """Plan what the plan block asks for, ``--mode``/``--s-tp`` overriding;
    with ``accelerate`` realtime plans ``st_sp``. A profile the plan needs
    is read from ``--profile`` or measured per the profile block."""
    block = cfg.raw.get("plan", {})
    mode = (mode_override or block.get("mode", "realtime")).replace("-", "_")
    if mode == "realtime" and accelerate:
        mode = "st_sp"

    def profile() -> PowerProfile:
        if not profile_path:
            return _profile_from_config(cfg, app)
        with open(profile_path, "r", encoding="utf-8") as fh:
            return PowerProfile.from_dict(json.load(fh))

    return plan_run(mode, app, profile, s_i=s_i,
                    s_tp=s_tp or block.get("s_tp", "max"))


def _run_experiment(trace, events, ess, app, sim_cfg,
                    plan: ScalingPlan) -> SimResult:
    trace_x, events_x, app_x, sim_x = build_experiment(plan, trace, events,
                                                       app, sim_cfg)
    return simulate(trace_x, events_x, ess, app_x, sim_x)


def _write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_plan(out: str, plan: ScalingPlan, profile: PowerProfile | None,
                config_hash: str) -> None:
    _write_json(os.path.join(out, "plan.json"),
                {**plan.as_dict(), "config_hash": config_hash,
                 **({"profile": profile.as_dict()} if profile else {})})


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    trace = load_trace(cfg)
    events = load_events(cfg, args.seed)
    ess = build_ess(cfg)
    app, s_i = build_app(cfg)
    sim_cfg = build_sim(cfg)
    plan, profile = _resolve_plan(cfg, app, s_i, args.mode)
    result = _run_experiment(trace, events, ess, app, sim_cfg, plan)
    out = args.out or "out"
    save_result(result, out, cfg.hash)
    _write_plan(out, plan, profile, cfg.hash)
    led = result.ledger
    print(f"simulate[{plan.mode}] throughput={result.throughput_bytes}B "
          f"harvest={led.harvest_input:.3f}J sss={led.sss_total:.3f}J "
          f"residual={led.storage_residual:.3f}J "
          f"closure_err={led.closure_error():.2e}J -> {out}")
    return 0


def cmd_profile(args) -> int:
    cfg = load_config(args.config)
    app, _ = build_app(cfg)
    profile = _profile_from_config(cfg, app)
    out = args.out or "out"
    _write_json(os.path.join(out, "profile.json"),
                {**profile.as_dict(), "config_hash": cfg.hash,
                 "app": app.name})
    print(f"profile app={app.name or 'custom'} "
          f"p_active_avg={profile.p_active_avg:.6g}W "
          f"p_idle_avg={profile.p_idle_avg:.6g}W "
          f"theta={profile.theta_profiling}B -> {out}/profile.json")
    return 0


def cmd_plan(args) -> int:
    cfg = load_config(args.config)
    app, s_i = build_app(cfg)
    plan, profile = _resolve_plan(cfg, app, s_i, args.mode, s_tp=args.s_tp,
                                  profile_path=args.profile, accelerate=True)
    out = args.out or "out"
    _write_plan(out, plan, profile, cfg.hash)
    print(f"plan mode={plan.mode} s_tp={plan.s_tp:g} s_f={plan.s_f:.4g} "
          f"s_i={plan.s_i:g} binding={plan.binding} -> {out}/plan.json")
    return 0


def _read_plan(path: str) -> tuple[ScalingPlan, PowerProfile | None]:
    """The plan in a ``plan.json`` and the profile it embeds, if any."""
    with open(path, "r", encoding="utf-8") as fh:
        plan_d = json.load(fh)
    profile = (PowerProfile.from_dict(plan_d["profile"])
               if "profile" in plan_d else None)
    return ScalingPlan.from_dict(plan_d), profile


def _plan_for(scaled_dir: str, plan_path: str | None
              ) -> tuple[ScalingPlan, PowerProfile | None]:
    """The plan to score ``scaled_dir`` by: ``plan_path``, checked against
    the ``plan.json`` the run was made with, or that file itself.

    The check compares the plan's factors and the embedded profile;
    ``binding``, which only says what limited the factors, is not compared.
    A mismatch is a PlanError that names the fields that differ.
    """
    recorded = os.path.join(scaled_dir, "plan.json")
    plan, profile = _read_plan(recorded if plan_path is None else plan_path)
    if plan_path is not None and os.path.exists(recorded):
        ran, ran_profile = _read_plan(recorded)
        differ = [k for k in ("mode", "s_tp", "s_f", "s_i")
                  if getattr(plan, k) != getattr(ran, k)]
        if (profile is None) != (ran_profile is None):
            differ.append("profile")
        elif profile is not None:
            mine, theirs = profile.as_dict(), ran_profile.as_dict()
            differ += [f"profile.{k}" for k in mine if mine[k] != theirs[k]]
        if differ:
            raise PlanError(f"{plan_path} differs from {recorded}, the plan "
                            f"the scaled run was made with, in "
                            f"{', '.join(differ)}")
    return plan, profile


def cmd_compare(args) -> int:
    plan, profile = _plan_for(args.scaled, args.plan)
    baseline = load_summary(args.baseline)
    scaled = load_summary(args.scaled)
    window = float(args.window)

    predicted = predict_throughput(plan, scaled, profile)
    thr_err = throughput_error(predicted, baseline.throughput_bytes)
    rescaled = rescale_activity(scaled.activity, plan.s_tp)
    ape_raw = compute_ape(baseline.activity, rescaled, 0.0)
    ape_dtw = compute_ape(baseline.activity, rescaled, window)
    spans = mismatch_spans(baseline.activity, rescaled)

    out = args.out or "out"
    _write_json(os.path.join(out, "report.json"), {
        "mode": plan.mode,
        "s_tp": plan.s_tp,
        "baseline_throughput_bytes": baseline.throughput_bytes,
        "predicted_rt_throughput_bytes": predicted,
        "throughput_error": thr_err,
        "ape_raw": {"epsilon": ape_raw.epsilon, "n_diff": ape_raw.n_diff,
                    "n_total": ape_raw.n_total},
        "ape_dtw": {"epsilon": ape_dtw.epsilon, "n_diff": ape_dtw.n_diff,
                    "n_total": ape_dtw.n_total, "window_s": window},
        "baseline_residual_j": baseline.ledger.storage_residual,
        "scaled_residual_j": scaled.ledger.storage_residual,
    })
    spans = np.asarray(spans, dtype=float).reshape(-1, 2)
    _write_csvs([(os.path.join(out, "mismatch_spans.csv"),
                  ("t_start_s", "t_end_s"), (spans[:, 0], spans[:, 1]))])
    print(f"compare mode={plan.mode} throughput_error={thr_err:.4f} "
          f"ape_raw={ape_raw.epsilon:.4f} ape_dtw={ape_dtw.epsilon:.4f} "
          f"-> {out}/report.json")
    return 0


def _sweep_cell(payload) -> dict:
    """One sweep cell: an independent simulation (worker-safe)."""
    (trace, events, ess, app, sim_cfg, plan, profile, out_dir, cap, s_i,
     cfg_hash) = payload
    try:
        ess_cell = replace(ess, storage=replace(ess.storage, capacitance=cap))
        plan_cell = replace(plan, s_i=s_i)
        result = _run_experiment(trace, events, ess_cell, app, sim_cfg,
                                 plan_cell)
        save_result(result, out_dir, cfg_hash)
        offered = max(result.events_offered, 1)
        predicted = predict_throughput(plan_cell, result, profile)
        return {
            "capacitance_f": cap, "s_i": s_i, "status": "ok",
            "events_offered": result.events_offered,
            "detected_at_event": result.events_detected_at_event,
            "detected_at_next_sample": result.events_observed,
            "detection_fraction": result.events_detected_at_event / offered,
            "throughput_bytes": result.throughput_bytes,
            "predicted_rt_throughput_bytes": predicted,
            "storage_residual_j": result.ledger.storage_residual,
        }
    except _CELL_ERRORS as exc:  # a bad cell fails alone; a bug stops the sweep
        return {"capacitance_f": cap, "s_i": s_i, "status": "error",
                "error": f"{type(exc).__name__}: {exc}"}


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    sweep = cfg.raw.get("sweep")
    if not sweep or not sweep.get("capacitance") or not sweep.get("s_i"):
        raise ConfigError("sweep block needs non-empty capacitance and s_i grids")
    caps = [float(c) for c in sweep["capacitance"]]
    sis = [float(s) for s in sweep["s_i"]]
    workers = args.workers or int(sweep.get("workers", 1))
    trace = load_trace(cfg)
    events = load_events(cfg, args.seed)
    ess = build_ess(cfg)
    app, s_i_default = build_app(cfg)
    sim_cfg = build_sim(cfg)
    plan, profile = _resolve_plan(cfg, app, s_i_default, args.mode)
    out = args.out or "out"
    os.makedirs(out, exist_ok=True)

    jobs = []
    for cap in caps:
        for s_i in sis:
            cell_dir = os.path.join(out, f"cell_C{cap:g}_SI{s_i:g}")
            jobs.append((trace, events, ess, app, sim_cfg, plan, profile,
                         cell_dir, cap, s_i, cfg.hash))

    if workers <= 1:
        rows = [_sweep_cell(j) for j in jobs]
    else:
        # Imported here: it pulls in multiprocessing, which no other
        # command needs.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, jobs))

    failures = [r for r in rows if r["status"] != "ok"]
    fields = ["capacitance_f", "s_i", "status", "events_offered",
              "detected_at_event", "detected_at_next_sample",
              "detection_fraction", "throughput_bytes",
              "predicted_rt_throughput_bytes", "storage_residual_j", "error"]
    with open(os.path.join(out, "summary.csv"), "w", encoding="utf-8",
              newline="") as fh:
        # Minimal quoting: only a field holding a comma, quote or newline
        # (an error message) is quoted.
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows([str(row.get(f, "")) for f in fields] for row in rows)
    with open(os.path.join(out, "heatmap.csv"), "w", encoding="utf-8") as fh:
        fh.write("capacitance_f\\s_i," + ",".join(f"{s:g}" for s in sis) + "\n")
        it = iter(rows)
        for cap in caps:
            cells = [next(it) for _ in sis]
            fh.write(f"{cap:g}," + ",".join(
                f"{c.get('detection_fraction', ''):.6f}"
                if c["status"] == "ok" else "nan" for c in cells) + "\n")
    print(f"sweep {len(caps)}x{len(sis)} cells done, "
          f"{len(failures)} failed -> {out}/heatmap.csv")
    for row in failures:
        print(f"  cell C={row['capacitance_f']} S_I={row['s_i']}: "
              f"{row['error']}", file=sys.stderr)
    return 0


def cmd_stacks(args) -> int:
    result = load_result(args.result)
    led = result.ledger
    rows = [("harvest_input", led.harvest_input),
            ("initial_storage", led.initial_storage),
            ("mppt_loss", led.mppt_loss),
            ("storage_loss_leak", led.storage_loss_leak),
            ("storage_loss_esr", led.storage_loss_esr),
            ("storage_residual", led.storage_residual),
            ("converter_loss", led.converter_loss)]
    rows += [(f"sss_{k}", v) for k, v in led.sss_by_activity.items()]
    total = led.total_input()
    print(f"energy stack ({result.duration_s:.0f} s, "
          f"{result.throughput_bytes} B):")
    for name, val in rows:
        share = 100.0 * val / total if total > 0 else 0.0
        print(f"  {name:<22s} {val:12.6f} J  {share:6.2f}%")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "stack.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write("category,energy_j\n")
            for name, val in rows:
                fh.write(f"{name},{val:.10g}\n")
    return 0


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser. Every command is registered with its help; with
    ``command``, only that command's flags are added."""
    parser = argparse.ArgumentParser(
        prog="ehsim",
        description="Trace-driven evaluation harness for battery-less IoT nodes")
    sub = parser.add_subparsers(dest="command", required=True)

    # Each command takes only the flags it reads.
    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory")

    def seed(p):
        p.add_argument("--seed", type=int, default=None,
                       help="override the event-generator seed")

    def mode(p):
        p.add_argument("--mode", default=None,
                       choices=[m.replace("_", "-") for m in MODES],
                       help="evaluation mode override")

    def simulate(p):
        common(p)
        seed(p)
        mode(p)

    def plan(p):
        common(p)
        mode(p)
        p.add_argument("--profile", default=None, help="profile.json to reuse")
        p.add_argument("--s-tp", dest="s_tp", default=None,
                       help="target time/power factor or 'max'")

    def compare(p):
        common(p, config=False)
        p.add_argument("--baseline", required=True, help="baseline result dir")
        p.add_argument("--scaled", required=True, help="scaled result dir")
        p.add_argument("--plan", default=None,
                       help="plan.json of the scaled run (default: the one in "
                            "the --scaled directory)")
        p.add_argument("--window", default=3600.0, type=float,
                       help="DTW window in seconds")

    def sweep(p):
        simulate(p)
        p.add_argument("--workers", type=int, default=None,
                       help="parallel worker count")

    def stacks(p):
        common(p, config=False)
        p.add_argument("--result", required=True, help="result directory")

    for name, help_, flags, func in (
            ("simulate", "run one simulation", simulate, cmd_simulate),
            ("profile", "profile the app at constant supply", common,
             cmd_profile),
            ("plan", "compute a scaling plan", plan, cmd_plan),
            ("compare", "compare a scaled run to a baseline", compare,
             cmd_compare),
            ("sweep", "design-space sweep over the config grid", sweep,
             cmd_sweep),
            ("stacks", "re-render a stored energy stack", stacks,
             cmd_stacks)):
        p = sub.add_parser(name, help=help_)
        if command in (None, name):
            flags(p)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only the invoked command's flags are built; an option first (--help)
    # or no command at all builds them all.
    first = argv[0] if argv and not argv[0].startswith("-") else None
    args = _build_parser(first).parse_args(argv)
    try:
        return args.func(args)
    except ClosureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # unexpected runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
