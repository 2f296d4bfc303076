#!/usr/bin/env python3
"""Series-resistance brownout: finding a transient failure in stack profiles.

A distance sensor draws a short, high current burst at every sample. On a
supercapacitor bank with nearly 7 ohms of series resistance, that burst
drags the bus below the converter's hold voltage: the node reboots instead
of sampling, the sensor is left powered, and sensor-phase energy piles up
with no communications to show for it. A small low-ESR ceramic buffer
across the bus absorbs the burst and restores periodic operation.
"""

import numpy as np

from ehsim import (AppSpec, EssConfig, SimConfig, StorageModel, simulate,
                   synthetic_solar_trace)

app = AppSpec(name="tof_case", t_sample_period=120.0, t_sample=0.002,
              t_comm=0.08, n_per_comm=1, bytes_per_comm=12,
              p_sample=0.25, p_comm=15e-3, p_idle=5e-6,
              sensor_fraction_sampling=0.9)
trace = synthetic_solar_trace(days=1, peak=60.0, cadence_s=60, shape="square",
                              sunrise_h=0.0, sunset_h=12.0)


def run(buffer_capacitance):
    ess = EssConfig(storage=StorageModel(
        capacitance=0.54, esr=6.9, leak_resistance=200e3,
        v_init=0.75, buffer_capacitance=buffer_capacitance))
    return simulate(trace, None, ess, app,
                    SimConfig(dt_quiescent=0.2, end_policy="hard_stop"))


for label, buf in (("no buffer", 0.0), ("400 uF ceramic buffer", 400e-6)):
    res = run(buf)
    sss = res.ledger.sss_by_activity
    peak_current = app.p_sample / 0.85 / 2.0
    print(f"{label} (worst-case dip ~ {6.9 * peak_current:.2f} V):")
    print(f"  throughput        {res.throughput_bytes:8d} B")
    print(f"  reboots           {res.boots:8d}")
    print(f"  sampling energy   {sss['sampling_processing']:8.2f} J")
    print(f"  comm energy       {sss['communicating']:8.3f} J")
    prof = res.profile
    busy = np.argsort(prof.sensor_energy)[-3:]
    print(f"  largest sensor-phase steps at t = "
          f"{', '.join(f'{prof.t_start[k]:.1f}s' for k in sorted(busy))}")
    print()

print("The profile of the buffered run shows clean sample->transmit spikes; "
      "without the buffer the sensor category floods the profile while "
      "communications never complete.")
