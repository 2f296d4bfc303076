"""Spans and counters around ehsim's layers, recorded from outside the package.

``install`` replaces the names that ``ehsim.cli`` and ``ehsim.engine`` bind
as their own module globals with recording wrappers, so no source under
``src/`` changes:

* every ``ehsim`` function that ``ehsim.cli`` imports becomes a span named
  after its defining module (``engine``, ``config``, ``scaling``,
  ``metrics``), except ``load_trace``/``load_events`` which form the
  ``traces`` layer;
* every function that ``ehsim.engine`` imports from ``ehsim.ess`` and
  ``ehsim.app`` is called once or more per engine step, so it is counted
  (calls and nanoseconds per layer) rather than kept as a span.

``uninstall`` puts the original functions back, so one process can
alternate traced and untraced commands.

Spans are kept in memory. A span's self time is its duration minus the
time of its child spans and counted calls; the tracer's own hooks and
bookkeeping are charged to neither side.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import time
import tracemalloc

import numpy as np

# ehsim.cli names that belong to another layer than their defining module.
_LAYER_OVERRIDES = {"load_trace": "traces", "load_events": "traces"}


class Tracer:
    """In-memory spans plus per-function call counters of one process."""

    def __init__(self):
        self.spans: list[dict] = []
        # open spans: [id, layer, name, start_ns, child_ns]
        self.stack: list[list] = []
        self.counters: dict[str, list[int]] = {}  # "layer.fn" -> [calls, ns]
        self.request = 0
        self.memory_probe = False
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def run(self, layer: str, name: str, fn, args=(), kwargs=None,
            pre=None, post=None):
        """Call ``fn`` inside a span; ``pre``/``post`` add span attributes."""
        kwargs = kwargs or {}
        stack = self.stack
        state = None
        if pre:
            t_pre = time.perf_counter_ns()
            state = pre(args, kwargs)
            if stack:
                stack[-1][4] += time.perf_counter_ns() - t_pre
        span_id = f"{os.getpid()}-{next(self._ids)}"
        entry = [span_id, layer, name, 0, 0]
        stack.append(entry)
        entry[3] = start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            if stack:
                stack[-1][4] += end - start
        attrs = post(args, kwargs, result, state) if post else {}
        self.spans.append({
            "id": span_id, "parent": stack[-1][0] if stack else None,
            "request": self.request, "pid": os.getpid(), "layer": layer,
            "name": name, "start_ns": start, "end_ns": end,
            "self_ns": end - start - entry[4], **attrs})
        if stack:  # bookkeeping time is neither the caller's nor the callee's
            stack[-1][4] += time.perf_counter_ns() - end
        return result

    # -- wrappers ------------------------------------------------------------
    def span_wrapper(self, layer: str, fn, pre=None, post=None):
        name = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.run(layer, name, fn, args, kwargs, pre, post)
        return wrapper

    def counted_wrapper(self, layer: str, fn):
        rec = self.counters.setdefault(f"{layer}.{fn.__name__}", [0, 0])
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                rec[0] += 1
                rec[1] += d
                if stack:
                    stack[-1][4] += d
        return wrapper

    def patch(self, module, name: str, new) -> None:
        self._undo.append((module, name, getattr(module, name)))
        setattr(module, name, new)

    def uninstall(self) -> None:
        while self._undo:
            module, name, old = self._undo.pop()
            setattr(module, name, old)


def _dir_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def band_cells(n: int, r: int) -> int:
    """Cells of a Sakoe-Chiba band of radius ``r`` on an n x n grid."""
    r = min(max(r, 0), n - 1)
    return n * (2 * r + 1) - r * (r + 1)


def _runs(x: np.ndarray) -> int:
    return 1 + int(np.count_nonzero(x[1:] != x[:-1])) if len(x) else 0


def install(tracer: Tracer, cli, engine) -> None:
    """Wrap the layer boundaries of the imported ``ehsim.cli``/``ehsim.engine``."""
    app_steps = None
    for name, obj in list(vars(engine).items()):
        if inspect.isfunction(obj) and obj.__module__ in ("ehsim.ess",
                                                          "ehsim.app"):
            layer = obj.__module__.split(".")[1]
            tracer.patch(engine, name, tracer.counted_wrapper(layer, obj))
            if name == "app_step":
                app_steps = tracer.counters["app.app_step"]
        elif inspect.isfunction(obj) and obj.__module__ == "ehsim.traces":
            tracer.patch(engine, name, tracer.span_wrapper("traces", obj))

    def sim_pre(args, kwargs):
        return app_steps[0] if app_steps else 0

    def sim_post(args, kwargs, result, steps0):
        trace = args[0]
        span = float(trace.t[-1] - trace.t[0])
        return {"steps": (app_steps[0] if app_steps else 0) - steps0,
                "bins": len(result.activity), "sim_s": result.duration_s,
                "drain_s": max(result.duration_s - span, 0.0)}

    def save_post(args, kwargs, result, _):
        out = args[1] if len(args) > 1 else kwargs["out_dir"]
        return {"bytes": _dir_bytes(out)}

    def load_post(args, kwargs, result, _):
        return {"bytes": _dir_bytes(args[0])}

    def ape_pre(args, kwargs):
        window = args[2] if len(args) > 2 else kwargs.get("window", 0.0)
        a, b = args[0], args[1]
        x = np.asarray(getattr(a, "on_off", a), dtype=bool)
        y = np.asarray(getattr(b, "on_off", b), dtype=bool)
        n = max(len(x), len(y))
        x = np.concatenate([x, np.zeros(n - len(x), dtype=bool)])
        y = np.concatenate([y, np.zeros(n - len(y), dtype=bool)])
        if window == 0.0 or np.array_equal(x, y):
            return None
        step = getattr(a, "step_len", 1.0)
        r = n if window == float("inf") else int(round(window / step))
        r = min(max(r, 0), n - 1)
        info = {"dtw_rows": n, "dtw_radius": r, "dtw_cells": band_cells(n, r),
                "profile_runs": _runs(x) + _runs(y)}
        if tracer.memory_probe:
            tracemalloc.start()
        return info

    def ape_post(args, kwargs, result, info):
        if info is None:
            return {}
        if tracer.memory_probe:
            info["dtw_peak_bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return info

    hooks = {"simulate": (sim_pre, sim_post), "save_result": (None, save_post),
             "load_result": (None, load_post),
             "compute_ape": (ape_pre, ape_post)}
    for name, obj in list(vars(cli).items()):
        if (inspect.isfunction(obj) and obj.__module__.startswith("ehsim.")
                and obj.__module__ != "ehsim.cli"):
            layer = _LAYER_OVERRIDES.get(name, obj.__module__.split(".")[1])
            pre, post = hooks.get(name, (None, None))
            tracer.patch(cli, name, tracer.span_wrapper(layer, obj, pre, post))


def _sum(spans, key, **match) -> float:
    return sum(s.get(key, 0) for s in spans
               if all(s[k] == v for k, v in match.items()))


def layer_metrics(tracer: Tracer, n_cmds: int, run_meta_s: float) -> dict:
    """Per-layer figures per traced command from the recorded spans.

    ``run_meta_s`` is the untraced simulate time per command, read from the
    ``run_meta.json`` files of the untraced commands; it gives ns per step
    without the counting wrappers' cost.
    """
    spans = tracer.spans
    per = 1.0 / max(n_cmds, 1)
    ns = 1e-9

    def dur(**match):
        return sum(s["end_ns"] - s["start_ns"] for s in spans
                   if all(s[k] == v for k, v in match.items())) * ns

    def counted(layer):
        calls = sum(v[0] for k, v in tracer.counters.items()
                    if k.startswith(layer + "."))
        busy = sum(v[1] for k, v in tracer.counters.items()
                   if k.startswith(layer + "."))
        return calls, busy * ns + _sum(spans, "self_ns", layer=layer) * ns

    steps = _sum(spans, "steps", layer="engine")
    bins = _sum(spans, "bins", layer="engine")
    ess_calls, ess_busy = counted("ess")
    app_calls, app_busy = counted("app")
    save_s = dur(name="save_result")
    save_mb = _sum(spans, "bytes", name="save_result") / 1e6
    load_s = dur(name="load_result")
    load_mb = _sum(spans, "bytes", name="load_result") / 1e6
    dtw = [s for s in spans if "dtw_cells" in s]
    dtw_s = sum(s["end_ns"] - s["start_ns"] for s in dtw) * ns
    dtw_cells = sum(s["dtw_cells"] for s in dtw)
    dtw_rows = sum(s["dtw_rows"] for s in dtw)
    return {
        "engine.busy_s": _sum(spans, "self_ns", layer="engine") * ns * per,
        "engine.steps": steps * per,
        "engine.ns_per_step": run_meta_s / (steps * per) * 1e9 if steps else 0.0,
        "engine.bins": bins * per,
        "engine.steps_per_bin": steps / bins if bins else 0.0,
        "engine.sim_s": _sum(spans, "sim_s", layer="engine") * per,
        "engine.drain_s": _sum(spans, "drain_s", layer="engine") * per,
        "ess.busy_s": ess_busy * per,
        "ess.calls": ess_calls * per,
        "app.busy_s": app_busy * per,
        "app.calls": app_calls * per,
        "config.save_s": save_s * per,
        "config.save_mb": save_mb * per,
        "config.save_mb_per_s": save_mb / save_s if save_s else 0.0,
        "config.load_s": load_s * per,
        "config.load_mb_per_s": load_mb / load_s if load_s else 0.0,
        "metrics.dtw_s": dtw_s * per,
        "metrics.dtw_cells": dtw_cells * per,
        "metrics.dtw_cells_per_s": dtw_cells / dtw_s if dtw_s else 0.0,
        "metrics.dtw_rows_per_s": dtw_rows / dtw_s if dtw_s else 0.0,
        "metrics.profile_runs": sum(s["profile_runs"] for s in dtw) * per,
        "metrics.spans_s": dur(name="mismatch_spans") * per,
        "scaling.build_s": dur(name="build_experiment") * per,
        "scaling.rescale_s": dur(name="rescale_timeline") * per,
        "traces.load_s": dur(layer="traces") * per,
        "cli.self_s": _sum(spans, "self_ns", name="main") * ns * per,
    }


# Share of the traced commands' wall time that the layers' self times may
# leave unaccounted (hook and bookkeeping time), plus a fixed allowance per
# command for tiny inputs.
SELF_TIME_SLACK = 0.02
SELF_TIME_SLACK_S = 0.005


def self_time_check(tracer: Tracer, traced_walls: list[float]) -> str | None:
    """The layers' self times add up to the traced commands' wall time.

    ``traced_walls`` are the commands' wall times taken around the tracer,
    not from its spans. The self times of every span, ``cli.main``
    included, plus the counted calls must not exceed their sum (time
    counted twice) nor fall short of it by more than the slack (time no
    layer was charged for).
    """
    self_s = 1e-9 * (sum(s["self_ns"] for s in tracer.spans)
                     + sum(v[1] for v in tracer.counters.values()))
    wall = sum(traced_walls)
    floor = wall * (1.0 - SELF_TIME_SLACK) - SELF_TIME_SLACK_S * len(traced_walls)
    if not floor <= self_s <= wall:
        return (f"summed layer self time {self_s:.4f} s is outside "
                f"[{floor:.4f}, {wall:.4f}] s, the traced commands' wall time")
    return None
