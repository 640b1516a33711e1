"""Traced replay of CLI jobs and the per-layer metrics drawn from it.

The replay makes the same public calls, with the same arguments, that
``spquad.cli`` makes for a job, and wraps each call into another module
(layer) in a span: name, start, end, parent span and job id, kept in memory
until the run ends.  Calls a layer makes inside itself or into layers with
no public entry on these paths (``taylor`` inside ``continue_to``, jets
inside the engines, sigmapi's right-hand side and ``_kernels`` inside
``rk4``) count in their caller's span, since the program has no spans of
its own.
"""

from __future__ import annotations

import statistics
import sys
import tracemalloc
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np

from spquad.oracle import Trajectory, compare, rk4
from spquad.parse import parse_frame, parse_ode
from spquad.quadratize import driver_frame, phi_eval, quadratize_inclusive
from spquad.series import RadiusWarning, continue_to, evaluate, taylor

LAYER_OF = {"quadratize.quadratize_inclusive": "quadratize",
            "quadratize.driver_frame": "quadratize",
            "quadratize.phi_eval": "quadratize"}


class Recorder:
    """Spans as [name, start, end, parent index, job id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.job = -1

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.job]
        self.spans.append(span)
        self._open.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open.pop()


class MemoryRecorder:
    """Stands in for a Recorder; keeps the peak traced allocation of the
    calls into the series layer's engines instead of spans."""

    def __init__(self):
        self.peak_bytes = 0

    def call(self, name, fn, *args, **kwargs):
        if not name.startswith("series.") or name == "series.evaluate":
            return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()


def _load(path: str):
    p = Path(path)
    text = p.read_text()
    return ("frame", parse_frame(text)) if p.suffix == ".frame" else ("ode", parse_ode(text))


def replay(job, rec: Recorder, counts: dict) -> None:
    """The calls ``spquad.cli`` makes for ``job``, spanned."""
    o = job.opts
    x0 = [float(v) for v in o["x0"]]
    t0, K = float(o["t0"]), o["order"]
    kind, obj = rec.call("parse", _load, job.path)
    if kind == "frame":
        frame, z0 = obj, np.asarray(x0, dtype=float)
        comps = {i: i for i in range(1, frame.dim + 1)}
    else:
        q = rec.call("quadratize.quadratize_inclusive", quadratize_inclusive, obj)
        frame = rec.call("quadratize.driver_frame", driver_frame, q)
        z0 = rec.call("quadratize.phi_eval", phi_eval, q, x0)
        comps = {i: q.identity[i] for i in range(1, obj.n + 1)}
    wanted = sorted(comps)
    engine = ("series.taylor_stationary" if frame.is_stationary
              else "series.taylor_general")

    if job.command == "series":
        sol = rec.call(engine, taylor, frame, z0, t0, K,
                       components=[comps[i] for i in wanted])
        sol.normalized()
        counts["coeffs"] += sol.coeffs.size
        return
    if job.command == "solve":
        _, path = rec.call("series.continue_to", continue_to, frame, z0, t0,
                           float(o["to"]), K=K, theta=o["theta"],
                           max_steps=o["max_steps"])
        counts["recenters"] += len(path)
        return

    a, b = (float(v) for v in o["window"])
    h = float(o["step"])
    sol = rec.call(engine, taylor, frame, z0, t0, K)
    counts["coeffs"] += sol.coeffs.size
    sel = [comps[i] - 1 for i in wanted]

    def series_eval(t):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RadiusWarning)
            vals, _ = rec.call("series.evaluate", evaluate, sol, t)
        return vals[sel]

    reference, ref_x0 = (obj, x0) if kind == "ode" else (frame, z0)
    pieces = []
    if a < t0:
        back = rec.call("oracle.rk4", rk4, reference, ref_x0, t0, a, h)
        pieces.append((back.times[::-1], back.states[::-1]))
    if b > t0:
        fwd = rec.call("oracle.rk4", rk4, reference, ref_x0, t0, b, h)
        pieces.append((fwd.times, fwd.states))
    counts["rk4_steps"] += sum(len(p[0]) - 1 for p in pieces)
    times = np.concatenate([p[0] for p in pieces])
    states = np.concatenate([p[1] for p in pieces])
    order = np.argsort(times)
    cols = [i - 1 for i in wanted] if kind == "ode" else sel
    traj = Trajectory(times[order], states[order][:, cols],
                      {"h": h, "rhs": "reference"})
    stride = max(1, len(traj.times) // max(1, o["samples"]))
    sampled = Trajectory(traj.times[::stride], traj.states[::stride], traj.meta)
    rec.call("oracle.compare", compare, series_eval, sampled, (a, b),
             t0=t0, radius=sol.radius_bound)
    for t in sampled.times:      # the CLI evaluates again for its CSV rows
        series_eval(t)


def traced_run(executed, untraced_walls) -> dict:
    """Replay a sequence of executed jobs traced, and each distinct job once
    more under tracemalloc, and reduce both to per-layer metrics (per job).
    ``untraced_walls`` are the loop's walls of the same executions."""
    rec = Recorder()
    counts = {"coeffs": 0, "recenters": 0, "rk4_steps": 0}
    for j, job in enumerate(executed):
        rec.job = j
        _guarded(job, rec.call, "job", replay, job, rec, counts)
    # after the traced pass, in round order, so that each job meets the
    # program's caches as cold or warm as it did in the loop
    mem = MemoryRecorder()
    for job in {id(job): job for job in executed}.values():
        _guarded(job, replay, job, mem, {"coeffs": 0, "recenters": 0, "rk4_steps": 0})
    return layer_metrics(rec.spans, counts, executed, untraced_walls,
                         mem.peak_bytes)


def _guarded(job, fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # a job the CLI failed fails here too; go on
        print(f"perfbench: replay of {job.command} {job.label} raised "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)


def layer_metrics(spans, counts, executed, untraced_walls, peak_bytes) -> dict:
    n = len(executed)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_s, total_s, calls = {}, {}, {}
    job_wall, layer_sum = [0.0] * n, [0.0] * n
    for i, s in enumerate(spans):
        name = s[0]
        if name == "job":
            job_wall[s[4]], layer_sum[s[4]] = dur[i], child[i]
            continue
        key = LAYER_OF.get(name, name)
        self_s[key] = self_s.get(key, 0.0) + dur[i] - child[i]
        total_s[key] = total_s.get(key, 0.0) + dur[i]
        calls[key] = calls.get(key, 0) + 1

    def per_job(table, key):
        return table.get(key, 0) / n

    taylor_s = total_s.get("series.taylor_stationary", 0.0) + total_s.get("series.taylor_general", 0.0)
    cont_s = total_s.get("series.continue_to", 0.0)
    rk4_s = total_s.get("oracle.rk4", 0.0)
    return {
        "parse.s": per_job(self_s, "parse"),
        "parse.calls": per_job(calls, "parse"),
        "quadratize.s": per_job(self_s, "quadratize"),
        "series.taylor_stationary.s": per_job(self_s, "series.taylor_stationary"),
        "series.taylor_stationary.calls": per_job(calls, "series.taylor_stationary"),
        "series.taylor_general.s": per_job(self_s, "series.taylor_general"),
        "series.taylor_general.calls": per_job(calls, "series.taylor_general"),
        "series.taylor.peak_mb": peak_bytes / 2**20,
        "series.coeffs": counts["coeffs"] / n,
        "series.coeffs_per_s": counts["coeffs"] / taylor_s if taylor_s else 0.0,
        "series.continue_to.s": per_job(self_s, "series.continue_to"),
        "series.recenters": counts["recenters"] / n,
        "series.s_per_recenter": cont_s / counts["recenters"] if counts["recenters"] else 0.0,
        "series.evaluate.s": per_job(self_s, "series.evaluate"),
        "series.evaluate.calls": per_job(calls, "series.evaluate"),
        "oracle.rk4.s": per_job(self_s, "oracle.rk4"),
        "oracle.rk4.steps": counts["rk4_steps"] / n,
        "oracle.rk4.us_per_step": 1e6 * rk4_s / counts["rk4_steps"] if counts["rk4_steps"] else 0.0,
        "oracle.compare.s": per_job(self_s, "oracle.compare"),
        "cli.other.s": statistics.median(w - s for w, s in zip(untraced_walls, layer_sum)),
        "series.frame_dim": sum(job.sizes["frame_dim"] for job in executed) / n,
        "series.support_size": sum(job.sizes["support_size"] for job in executed) / n,
        "series.order": sum(job.sizes["order"] for job in executed) / n,
        "trace.overhead_s": statistics.median(t - w for t, w in zip(job_wall, untraced_walls)),
    }

