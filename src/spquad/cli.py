"""Command-line front end.

Subcommands wire the library end to end: ``analyze`` (domain, structure,
decomposition), ``quadratize`` (canonical / inclusive / inverse),
``series`` (coefficient table plus radius bound), ``solve`` (analytic
continuation to a target time) and ``check`` (series vs RK4 reference).

Inputs are ``.spode`` equation files or ``.frame`` matrix files; monomial
systems run through the inclusive quadratization pipeline automatically.
Outputs are text, JSON (validating against ``schemas/cli_output.schema.json``)
or CSV.  Exit codes: 0 ok, 2 parse/usage (including unreadable files and bad
``--config`` values), 3 domain, 4 numeric.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, errors
from .oracle import MAX_STEPS, Trajectory, compare, rk4, step_count
from .parse import monomial_text, parse_frame, parse_ode, serialize_frame
from .quadratize import (driver_frame, inverse_driver, inverse_joint_frame,
                         phi_eval, quadratize_canonical, quadratize_inclusive)
from .series import MAX_ORDER, RadiusWarning, continue_to, evaluate, taylor
from .sigmapi import analyze_domain, decompose_global, structure

_PARSE_ERRORS = (errors.OdeSyntaxError,)
_DOMAIN_ERRORS = (errors.ContradictoryDomain, errors.InvalidProjection,
                  errors.DomainViolation, errors.DomainExit,
                  errors.ZeroComponent, errors.EmptySystem)
_NUMERIC_ERRORS = (errors.Blowup, errors.Divergence, errors.StepLimit,
                   errors.OrderBudget, errors.EmptyWindow, errors.MixedCenters)


def _floats(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p.strip()]


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise errors.UsageError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise errors.UsageError(f"cannot read {path}: not UTF-8 text") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise errors.UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _load_input(path: str):
    """Returns ('ode', SigmaPiOde) or ('frame', QuadraticFrame)."""
    text = _read(path)
    if Path(path).suffix == ".frame":
        return "frame", parse_frame(text)
    return "ode", parse_ode(text)


def _meta(args, effective: dict) -> dict:
    return {
        "command": args.command,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "input": str(args.input),
        "config": effective,
    }


def _emit(args, payload: dict, csv_rows: list, text: str) -> None:
    if args.format == "json":
        try:
            out = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:   # strict JSON has no inf or NaN
            raise errors.Divergence(f"output is not finite: {exc}") from exc
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(csv_rows)
        out = buf.getvalue().rstrip("\n")
    else:
        out = text
    if args.output:
        _write(args.output, out + "\n")
    else:
        print(out)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    kind, obj = _load_input(args.input)
    if kind != "ode":
        raise errors.OdeSyntaxError("analyze expects a .spode file")
    ode = obj
    descriptor = analyze_domain(ode)
    report = structure(ode)
    chain = decompose_global(ode)
    from .parse import serialize_ode
    result = {
        "n": ode.n,
        "domain": {
            "classes": {str(j): descriptor.domain_class(j).value
                        for j in range(1, ode.n + 1)},
            "macro_orthant": list(descriptor.macro_orthant),
            "removed_hyperplanes": list(descriptor.removed_hyperplanes),
        },
        "criticality": sorted(report.criticality),
        "singularity": sorted(report.singularity),
        "nonsingular_criticality": sorted(report.nonsingular_criticality),
        "decomposition": [
            {"drop": sorted(stage.drop),
             "regular": stage.report.is_regular,
             "zero_system": stage.ode.is_zero_system,
             "ode": serialize_ode(stage.ode) if stage.ode.n else ""}
            for stage in chain],
    }
    payload = {"meta": _meta(args, {}), "result": result, "warnings": []}
    rows = [["index", "class", "critical", "singular"]]
    for j in range(1, ode.n + 1):
        rows.append([j, descriptor.domain_class(j).value,
                     j in report.criticality, j in report.singularity])
    lines = [f"n = {ode.n}"]
    for j in range(1, ode.n + 1):
        lines.append(f"  x{j}: {descriptor.domain_class(j).value}"
                     + (" critical" if j in report.criticality else "")
                     + (" singular" if j in report.singularity else ""))
    lines.append(f"criticality: {sorted(report.criticality)}")
    lines.append(f"singularity: {sorted(report.singularity)}")
    lines.append(f"decomposition stages: {len(chain)}"
                 f" drops: {[sorted(s.drop) for s in chain]}")
    _emit(args, payload, rows, "\n".join(lines))
    return 0


def cmd_quadratize(args) -> int:
    kind, obj = _load_input(args.input)
    if kind != "ode":
        raise errors.OdeSyntaxError("quadratize expects a .spode file")
    ode = obj
    if args.mode == "canonical":
        q = quadratize_canonical(ode)
        frame = driver_frame(q)
    elif args.mode == "inclusive":
        q = quadratize_inclusive(ode)
        frame = driver_frame(q)
    else:
        q = inverse_driver(ode)
        frame = inverse_joint_frame(q)
    frame_text = serialize_frame(frame)
    if args.frame_out:
        _write(args.frame_out, frame_text)
    table = [
        {"s": s, "i": i, "l": l,
         "monomial": monomial_text(q.phi[s - 1]),
         "state": "W" if q.inverse else "Z"}
        for s, (i, l) in enumerate(q.pairs, start=1)]
    result = {
        "mode": args.mode,
        "driver_dim": q.driver_dim,
        "frame_dim": frame.dim,
        "coordinates": table,
        "identity": {str(i): s for i, s in sorted(q.identity.items())},
        "frame": frame_text,
        "frame_ref": frame.ref(),
    }
    payload = {"meta": _meta(args, {"mode": args.mode}), "result": result,
               "warnings": []}
    rows = [["s", "i", "l", "state", "monomial"]]
    rows += [[t["s"], t["i"], t["l"], t["state"], t["monomial"]] for t in table]
    lines = [f"mode: {args.mode}  driver dim: {q.driver_dim}"]
    for t in table:
        lines.append(f"  {t['state']}[{t['i']},{t['l']}] (s={t['s']}) = {t['monomial']}")
    if q.identity:
        lines.append(f"identity coordinates: {q.identity}")
    lines.append("frame:")
    lines.append(frame_text.rstrip("\n"))
    _emit(args, payload, rows, "\n".join(lines))
    return 0


def _series_common(args):
    """The input, then a uniform view of it: a frame, the driver initial
    point, and the component map back to the caller's coordinates."""
    kind, obj = _load_input(args.input)
    x0 = _floats(args.x0) if args.x0 else None
    n = obj.dim if kind == "frame" else obj.n
    if x0 is None or len(x0) != n:
        raise errors.DomainViolation(f"--x0 must supply {n} components")
    if kind == "frame":
        return (kind, obj, obj, np.asarray(x0, dtype=float),
                {i: i for i in range(1, n + 1)})
    q = quadratize_inclusive(obj)
    return (kind, obj, driver_frame(q), phi_eval(q, x0),
            {i: q.identity[i] for i in range(1, n + 1)})


def cmd_series(args) -> int:
    kind, obj, frame, z0, comps = _series_common(args)
    wanted = sorted(comps)
    sol = taylor(frame, z0, args.t0, args.order,
                 components=[comps[i] for i in wanted])
    norm = sol.normalized()
    finite = (np.isfinite(sol.coeffs) & np.isfinite(norm)).all(axis=0)
    if not finite.all():
        raise errors.Divergence(f"the coefficients of order {np.argmin(finite)} "
                                "are the first that are not finite")
    result = {
        "t0": args.t0, "order": args.order,
        "radius_bound": _json_float(sol.radius_bound),
        "frame_ref": frame.ref(),
        "components": {},
    }
    rows = [["component", "k", "c_k", "c_k_over_k_factorial"]]
    lines = [f"r_bar = {sol.radius_bound}"]
    for i in wanted:
        r = sol.components.index(comps[i])
        result["components"][str(i)] = {
            "c": [float(v) for v in sol.coeffs[r]],
            "c_normalized": [float(v) for v in norm[r]],
        }
        for k in range(args.order + 1):
            rows.append([i, k, repr(float(sol.coeffs[r, k])),
                         repr(float(norm[r, k]))])
        lines.append(f"x{i}: c = {[float(v) for v in sol.coeffs[r]]}")
    payload = {"meta": _meta(args, {"order": args.order, "t0": args.t0,
                                    "x0": list(map(float, z0))}),
               "result": result, "warnings": []}
    _emit(args, payload, rows, "\n".join(lines))
    return 0


def cmd_solve(args) -> int:
    kind, obj, frame, z0, comps = _series_common(args)
    value, path = continue_to(frame, z0, args.t0, args.to,
                              K=args.order, theta=args.theta,
                              max_steps=args.max_steps)
    wanted = sorted(comps)
    out_vals = {str(i): float(value[comps[i] - 1]) for i in wanted}
    result = {
        "t": args.to,
        "value": out_vals,
        "recenters": len(path),
        "path": [{"t": float(t), "x": [float(v) for v in x]}
                 for t, x in path],
    }
    payload = {"meta": _meta(args, {"to": args.to, "t0": args.t0,
                                    "order": args.order, "theta": args.theta}),
               "result": result, "warnings": []}
    # plottable CSV: one row per recenter point, caller's components
    rows = [["t"] + [f"x{i}" for i in wanted]]
    rows.append([args.t0] + [float(z0[comps[i] - 1]) for i in wanted])
    for t, xvec in path:
        rows.append([float(t)] + [float(xvec[comps[i] - 1]) for i in wanted])
    lines = [f"x({args.to}) = {out_vals} after {len(path)} recenters"]
    _emit(args, payload, rows, "\n".join(lines))
    return 0


def cmd_check(args) -> int:
    kind, obj, frame, z0, comps = _series_common(args)
    a, b = _floats(args.window)
    sol = taylor(frame, z0, args.t0, args.order)
    wanted = sorted(comps)
    sel = [comps[i] - 1 for i in wanted]
    if kind == "ode":
        reference = obj          # integrate the original monomial system
        ref_x0 = _floats(args.x0)
    else:
        reference = frame
        ref_x0 = z0
    pieces = []
    if a < args.t0:
        back = rk4(reference, ref_x0, args.t0, a, args.step)
        pieces.append((back.times[::-1], back.states[::-1]))
    if b > args.t0:
        fwd = rk4(reference, ref_x0, args.t0, b, args.step)
        pieces.append((fwd.times, fwd.states))
    if not pieces:
        raise errors.EmptyWindow("window does not extend beyond t0")
    times = np.concatenate([p[0] for p in pieces])
    states = np.concatenate([p[1] for p in pieces])
    order = np.argsort(times)
    traj = Trajectory(times[order], states[order][:, [i - 1 for i in wanted]]
                      if kind == "ode" else states[order][:, sel],
                      {"h": args.step, "rhs": "reference"})
    stride = max(1, len(traj.times) // max(1, args.samples))
    sampled = Trajectory(traj.times[::stride], traj.states[::stride], traj.meta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RadiusWarning)
        vals, _ = evaluate(sol, sampled.times)
    series = Trajectory(sampled.times, vals[:, sel], {"order": args.order})
    finite = np.isfinite(series.states).all(axis=1)
    if not finite.all():
        raise errors.Divergence("the series is not finite at t = "
                                f"{series.times[np.argmin(finite)]}")
    report = compare(series.at, sampled, (a, b),
                     t0=args.t0, radius=sol.radius_bound)
    if not (math.isfinite(report.max_rel) and math.isfinite(report.rms_rel)):
        raise errors.Divergence("the relative error of the series is not "
                                f"finite (max {report.max_rel}, "
                                f"rms {report.rms_rel})")
    result = {
        "window": [a, b],
        "max_rel": report.max_rel,
        "rms_rel": report.rms_rel,
        "n_samples": report.n_samples,
        "out_of_radius": report.out_of_radius,
        "radius_bound": _json_float(sol.radius_bound),
        "flagged": report.flagged,
    }
    payload = {"meta": _meta(args, {"window": [a, b], "step": args.step,
                                    "order": args.order, "t0": args.t0}),
               "result": result,
               "warnings": (["samples beyond the radius bound"]
                            if report.flagged else [])}
    # plottable CSV: one row per compared sample
    rows = [["t"] + [f"series_x{i}" for i in wanted]
            + [f"reference_x{i}" for i in wanted] + ["in_radius"]]
    for t, got, ref in zip(sampled.times, series.states, sampled.states):
        rows.append([float(t)] + [float(v) for v in got]
                    + [float(v) for v in ref]
                    + [int(abs(t - args.t0) < sol.radius_bound)])
    lines = [f"max rel {report.max_rel:.3e}  rms {report.rms_rel:.3e} "
             f"over {report.n_samples} samples"
             + ("  [beyond radius bound]" if report.flagged else "")]
    _emit(args, payload, rows, "\n".join(lines))
    return 0


def _json_float(v: float):
    return v if np.isfinite(v) else "inf"


# --------------------------------------------------------------------------
# argument plumbing
# --------------------------------------------------------------------------

def _apply_config(args) -> None:
    """Fill unset options from the --config JSON file; flags win."""
    defaults = {"order": 30 if args.command == "solve" else 16,
                "t0": 0.0, "theta": 0.5, "step": 1e-4,
                "max_steps": 200, "samples": 200}
    cfg = {}
    if args.config:
        try:
            cfg = json.loads(_read(args.config))
        except json.JSONDecodeError as exc:
            raise errors.UsageError(
                f"config {args.config} is not JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise errors.UsageError(f"config {args.config} is not a JSON object")
    try:
        for key, fallback in defaults.items():
            if hasattr(args, key) and getattr(args, key) is None:
                setattr(args, key, type(fallback)(cfg.get(key, fallback)))
        for key in ("x0", "window", "to"):
            if hasattr(args, key) and getattr(args, key) is None and key in cfg:
                value = cfg[key]
                if isinstance(value, list):
                    value = ",".join(repr(float(v)) for v in value)
                setattr(args, key, str(value) if key != "to" else float(value))
    except (TypeError, ValueError, OverflowError):
        raise errors.UsageError(f"config {args.config}: {key!r} has the "
                                f"invalid value {cfg[key]!r}") from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spquad",
        description="Quadratize generalized-polynomial ODEs and solve them "
                    "as power series.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help=".spode or .frame file")
        p.add_argument("--format", choices=["json", "csv", "text"],
                       default="text")
        p.add_argument("--output", help="write to this path instead of stdout")
        p.add_argument("--config", help="JSON file with default options")

    p = sub.add_parser("analyze", help="domain, structure and decomposition")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("quadratize", help="construct a quadratization")
    common(p)
    p.add_argument("--mode", choices=["canonical", "inclusive", "inverse"],
                   default="inclusive")
    p.add_argument("--frame-out", help="also write the frame file here")
    p.set_defaults(func=cmd_quadratize)

    p = sub.add_parser("series", help="Taylor coefficient table")
    common(p)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--x0", help="comma-separated initial values")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("solve", help="value at a target time via recentering")
    common(p)
    p.add_argument("--to", type=float, default=None, required=False)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--max-steps", dest="max_steps", type=int, default=None)
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--x0", help="comma-separated initial values")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="compare series against RK4 reference")
    common(p)
    p.add_argument("--window", help="a,b comparison window", default=None)
    p.add_argument("--step", type=float, default=None, help="RK4 step size")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--x0", help="comma-separated initial values")
    p.add_argument("--samples", type=int, default=None,
                   help="max comparison samples across the window")
    p.set_defaults(func=cmd_check)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _apply_config(args)
        order = getattr(args, "order", None)
        if order is not None and not 0 <= order <= MAX_ORDER:
            ap.error(f"--order must lie in [0, {MAX_ORDER}]")
        if getattr(args, "step", 1.0) is not None and getattr(args, "step", 1.0) <= 0:
            ap.error("--step must be > 0")
        theta = getattr(args, "theta", None)
        if theta is not None and not 0.0 < theta <= 1.0:
            ap.error("--theta must lie in (0, 1]")
        for name in ("max_steps", "samples"):
            if getattr(args, name, 1) < 1:
                ap.error(f"--{name.replace('_', '-')} must be >= 1")
        if args.command == "solve" and args.to is None:
            ap.error("solve needs --to (or 'to' in --config)")
        if args.command == "check" and args.window is None:
            ap.error("check needs --window (or 'window' in --config)")
        for name in ("t0", "to"):
            if not math.isfinite(getattr(args, name, None) or 0.0):
                ap.error(f"--{name} must be a finite number")
        for name in ("x0", "window"):
            text = getattr(args, name, None)
            if text is None:
                continue
            try:
                values = _floats(text)
            except ValueError:
                ap.error(f"--{name} must be comma-separated numbers")
            if not all(map(math.isfinite, values)):
                ap.error(f"--{name} must hold finite numbers")
            if name == "window" and len(values) != 2:
                ap.error("--window must be two numbers a,b")
        if args.command == "check":
            a, b = _floats(args.window)
            try:
                step_count(max(args.t0 - a, b - args.t0, 0.0), args.step)
            except ValueError:
                ap.error(f"--step must cover each side of t0 in at most "
                         f"{MAX_STEPS} RK4 steps")
        return args.func(args)
    except _PARSE_ERRORS as exc:
        span = getattr(exc, "span", None)
        loc = (f" (line {span.line}, column {span.column}, "
               f"bytes {span.start}..{span.end})") if span else ""
        print(f"parse error: {exc}{loc}", file=sys.stderr)
        return 2
    except errors.UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        print(f"domain error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except _NUMERIC_ERRORS as exc:
        print(f"numeric error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
