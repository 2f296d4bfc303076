"""Trace-driven evaluation harness for battery-less (energy-harvesting) IoT nodes.

The package simulates the full supply chain (harvester, MPPT, storage,
converter) against recorded or synthetic irradiance traces, attributes every
harvested joule to a component or application activity (energy stacks), and
plans accelerated scaled-time/scaled-power experiments whose results map
back to the real-time axis.
"""

from .traces import (IrradianceTrace, EventTrace, TraceTransform,
                     parse_irradiance, parse_events, apply_transform,
                     transform_events, generate_parking_events,
                     synthetic_solar_trace)
from .ess import (EfficiencyCurve, HarvesterModel, MpptModel, StorageModel,
                  ConverterModel, EssConfig, EssState, harvester_power,
                  mppt_step, storage_step, residual_energy)
from .app import (AppSpec, AppState, ActivityProfile, app_step,
                  apply_frequency_scaling, preset, PRESETS)
from .engine import (SimConfig, EnergyLedger, EnergyStack, EnergyStackProfile,
                     SimResult, simulate, run_with_skip_nights, finalize_stack)
from .scaling import (PowerProfile, ScalingPlan, profile_application,
                      compute_sf, scaled_average_power, max_speedup,
                      build_experiment, plan_sim_config, predict_throughput,
                      rescale_timeline)
from .metrics import (ApeReport, throughput_error, dtw_align, compute_ape,
                      mismatch_spans)

__version__ = "0.1.0"
