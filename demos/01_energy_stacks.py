#!/usr/bin/env python3
"""Energy stacks: where does every harvested joule go?

Runs the distance-sensing benchmark (TOF) against a synthetic two-day solar
trace and prints the whole-run energy stack: per-component losses, stranded
storage energy, and the SoC+sensor energy split by application activity.
Then zooms into an excerpt of the per-0.2 s stack profile, the view that
exposes transient misbehavior that end-to-end totals hide.
"""

import numpy as np

from ehsim import (EssConfig, ScalingPlan, SimConfig, build_experiment,
                   preset, simulate, synthetic_solar_trace)
from ehsim.app import PRESETS

app = preset("TOF")
s_i = PRESETS["TOF"][1]
trace = synthetic_solar_trace(days=2, peak=800.0, cadence_s=60,
                              day_jitter=(1.0, 0.7))
plan = ScalingPlan(mode="realtime", s_i=s_i)
trace_x, _, app_x, cfg = build_experiment(plan, trace, None, app,
                                          SimConfig(dt_quiescent=0.2))

result = simulate(trace_x, None, EssConfig(), app_x, cfg)
led = result.ledger

print(f"TOF on a 2-day synthetic trace "
      f"(panel scale {s_i:g}, storage {EssConfig().storage.capacitance} F)")
print(f"  throughput: {result.throughput_bytes} bytes, "
      f"boots: {result.boots}, powered {result.on_time_s / 3600:.1f} h "
      f"of {result.duration_s / 3600:.1f} h")
print()

total = led.total_input()
rows = [
    ("harvested input", led.harvest_input),
    ("pre-charged storage", led.initial_storage),
    ("-- MPPT losses", led.mppt_loss),
    ("-- storage losses (leak)", led.storage_loss_leak),
    ("-- storage losses (ESR)", led.storage_loss_esr),
    ("-- storage residual", led.storage_residual),
    ("-- converter losses", led.converter_loss),
]
rows += [(f"-- SSS {k}", v) for k, v in led.sss_by_activity.items()]
for name, val in rows:
    print(f"  {name:<28s} {val:10.3f} J   {100 * val / total:5.1f}%")
print(f"  ledger closure error: {led.closure_error():.2e} J")

print("\nStack profile excerpt (0.2 s steps, around first turn-on):")
prof = result.profile
on_idx = int(np.argmax(result.activity.on_off))
sl = slice(on_idx, on_idx + 10)
print(f"  {'t[s]':>9s} {'harvest':>10s} {'mppt':>10s} {'conv':>10s} "
      f"{'soc':>10s} {'sensor':>10s} {'storage':>10s}")
for k in range(sl.start, sl.stop):
    print(f"  {prof.t_start[k]:9.1f} {prof.harvest[k]:10.6f} "
          f"{prof.mppt_loss[k]:10.6f} {prof.converter_loss[k]:10.6f} "
          f"{prof.soc_energy[k]:10.6f} {prof.sensor_energy[k]:10.6f} "
          f"{prof.storage_delta[k]:+10.6f}")
print("  (storage column is signed: positive means stored energy grew)")
