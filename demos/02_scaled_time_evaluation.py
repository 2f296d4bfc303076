#!/usr/bin/env python3
"""Accelerated evaluation: scaled-time/scaled-power versus unscaled power.

The four-step workflow on the TMP1 benchmark:
  1. profile the app at a constant 3.3 V supply,
  2. plan each mode: the planner solves for the largest feasible time/power
     factor and the matching sampling-frequency factor,
  3. run the accelerated experiment: one call turns the plan into the
     compressed and amplified trace, the faster-sampling app and the engine
     settings (st_sp_sn runs with skip-nights on),
  4. map the activity profile back to the real-time axis and predict
     throughput.

The same speed-up with unscaled power (st_up) keeps the charge/discharge
times of the slow experiment and distorts the activity profile; skip-nights
fast-forwards the dark spans for additional wall-time savings at matching
accuracy.
"""

from ehsim import (EssConfig, SimConfig, StorageModel, build_experiment,
                   compute_ape, plan_run, preset, predict_throughput,
                   profile_application, rescale_activity, simulate,
                   synthetic_solar_trace, throughput_error)
from ehsim.app import PRESETS

app = preset("TMP1")
s_i = PRESETS["TMP1"][1]
trace = synthetic_solar_trace(days=2, peak=800.0, cadence_s=60)
ess = EssConfig(storage=StorageModel(capacitance=2.2, esr=0.5,
                                     leak_resistance=1e6))
cfg = SimConfig(dt_quiescent=0.2)

profile = profile_application(app, 3600.0)
plans = {mode: plan_run(mode, app, lambda: profile, s_i=s_i)[0]
         for mode in ("realtime", "st_up", "st_sp", "st_sp_sn")}
sp = plans["st_sp"]
print(f"step 1: profile  P_active={profile.p_active_avg * 1e3:.3f} mW  "
      f"P_idle={profile.p_idle_avg * 1e3:.3f} mW  "
      f"theta={profile.theta_profiling} B/h")
print(f"step 2: plan     s_tp={sp.s_tp:g}  s_f={sp.s_f:.3f}  "
      f"(bound: {sp.binding})")

runs = {}
for mode, plan in plans.items():
    tr_x, _, app_x, cfg_x = build_experiment(plan, trace, None, app, cfg)
    res = simulate(tr_x, None, ess, app_x, cfg_x)
    runs[mode] = (plan, res)
    print(f"step 3: ran {mode:9s} wall={res.wall_time_s:6.1f} s  "
          f"measured={res.throughput_bytes} B")

base = runs["realtime"][1]
print(f"\nstep 4: map back to the real-time axis "
      f"(baseline {base.throughput_bytes} B)")
for mode in ("st_up", "st_sp", "st_sp_sn"):
    plan, res = runs[mode]
    predicted = predict_throughput(plan, res, profile)
    ape = compute_ape(base.activity, rescale_activity(res.activity, plan.s_tp),
                      60.0)
    err = throughput_error(predicted, base.throughput_bytes)
    speedup = base.wall_time_s / res.wall_time_s
    print(f"  {mode:9s} predicted={predicted:8.0f} B  "
          f"thr_err={err:6.1%}  dtw_ape={ape.epsilon:6.2%}  "
          f"wall_speedup={speedup:4.1f}x  "
          f"residual={res.ledger.storage_residual:6.3f} J")
print("\nUnscaled power keeps the slow charge/discharge times of the "
      "real-time run inside a compressed trace: stretched back to the "
      "real-time axis, its activity profile is visibly distorted (high "
      "APE), and on under-supplied fixtures whole charge cycles go "
      "missing, stranding energy below the turn-on threshold.")
