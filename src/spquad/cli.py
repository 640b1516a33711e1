"""Command-line front end.

Subcommands wire the library end to end: ``analyze`` (domain, structure,
decomposition), ``quadratize`` (canonical / inclusive / inverse),
``series`` (coefficient table plus radius bound), ``solve`` (analytic
continuation to a target time) and ``check`` (series vs RK4 reference).

Inputs are ``.spode`` equation files or ``.frame`` matrix files; monomial
systems run through the inclusive quadratization pipeline automatically.
Outputs are text, JSON (validating against ``schemas/cli_output.schema.json``)
or CSV.  Exit codes: 0 ok, then one per category of :mod:`spquad.errors`:
2 parse/usage (unreadable files, an unwritable output file or standard
output, bad ``--config`` values, missing or wrong-count options, a
``check`` window or step out of bounds), 3 domain, 4 numeric.  A
``--config`` value passes the same converter and checks as its flag:
integer options accept only integers, ``--step`` must be finite and > 0,
and ``--x0``/``--window`` reject empty fields.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
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


def _meta(args) -> dict:
    """The run's metadata; ``config`` holds its resolved options, so it can
    be passed back as --config to repeat the run."""
    config = {key: getattr(args, key) for key in _DEFAULTS.get(args.command, ())}
    if args.command == "quadratize":
        config["mode"] = args.mode
    return {
        "command": args.command,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "input": str(args.input),
        "config": config,
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
        return
    try:
        sys.stdout.write(out + "\n")
        sys.stdout.flush()
    except OSError as exc:
        # what could not be written stays buffered: send the descriptor to
        # the null device, so the flush at exit has nothing to fail on
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise errors.UsageError(
            f"cannot write standard output: {exc.strerror}") from exc


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
    payload = {"meta": _meta(args), "result": result, "warnings": []}
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
    payload = {"meta": _meta(args), "result": result, "warnings": []}
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
    n = obj.dim if kind == "frame" else obj.n
    if len(args.x0) != n:
        raise errors.UsageError(f"--x0 must supply {n} components")
    if kind == "frame":
        return (kind, obj, obj, np.asarray(args.x0, dtype=float),
                {i: i for i in range(1, n + 1)})
    q = quadratize_inclusive(obj)
    return (kind, obj, driver_frame(q), phi_eval(q, args.x0),
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
    payload = {"meta": _meta(args), "result": result, "warnings": []}
    _emit(args, payload, rows, "\n".join(lines))
    return 0


def cmd_solve(args) -> int:
    if args.order < 1:   # at order 0 the tail estimate is the value itself
        raise errors.UsageError("solve needs an --order (or 'order' in "
                                f"--config) of at least 1, not {args.order}")
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
    payload = {"meta": _meta(args), "result": result, "warnings": []}
    # plottable CSV: one row per recenter point, caller's components
    rows = [["t"] + [f"x{i}" for i in wanted]]
    rows.append([args.t0] + [float(z0[comps[i] - 1]) for i in wanted])
    for t, xvec in path:
        rows.append([float(t)] + [float(xvec[comps[i] - 1]) for i in wanted])
    lines = [f"x({args.to}) = {out_vals} after {len(path)} recenters"]
    _emit(args, payload, rows, "\n".join(lines))
    return 0


def cmd_check(args) -> int:
    a, b = args.window
    if not (a < args.t0 or b > args.t0):
        raise errors.UsageError("--window must extend beyond t0")
    try:
        step_count(max(args.t0 - a, b - args.t0), args.step)
    except ValueError:
        raise errors.UsageError(f"--step must cover each side of t0 in at most "
                                f"{MAX_STEPS} RK4 steps") from None
    kind, obj, frame, z0, comps = _series_common(args)
    wanted = sorted(comps)
    sol = taylor(frame, z0, args.t0, args.order,
                 components=[comps[i] for i in wanted])
    if kind == "ode":
        reference = obj          # integrate the original monomial system
        ref_x0 = args.x0
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
    # the pieces run a..t0 and t0..b, so they join in time order
    traj = Trajectory(np.concatenate([p[0] for p in pieces]),
                      np.concatenate([p[1] for p in pieces]),
                      {"h": args.step, "rhs": "reference"})
    stride = max(1, len(traj.times) // max(1, args.samples))
    sampled = Trajectory(traj.times[::stride], traj.states[::stride], traj.meta)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RadiusWarning)
        vals, _ = evaluate(sol, sampled.times)
    finite = np.isfinite(vals).all(axis=1)
    if not finite.all():
        raise errors.Divergence("the series is not finite at t = "
                                f"{sampled.times[np.argmin(finite)]}")
    report = compare(vals, sampled, (a, b),
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
    payload = {"meta": _meta(args), "result": result,
               "warnings": (["samples beyond the radius bound"]
                            if report.flagged else [])}
    rows = []
    if args.format == "csv":   # plottable: one row per compared sample
        rows = [["t"] + [f"series_x{i}" for i in wanted]
                + [f"reference_x{i}" for i in wanted] + ["in_radius"]]
        for t, got, ref in zip(sampled.times, vals, sampled.states):
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

def _rule(parse, holds, rule: str):
    """An option's converter, used by its flag and its --config value: the
    typed value of the text, or ArgumentTypeError if it breaks the rule."""
    def convert(text: str):
        try:
            value = parse(text)
            if holds(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {rule}")
    return convert


_FINITE = _rule(float, math.isfinite, "a finite number")
_COUNT = _rule(int, lambda k: k >= 1, "an integer >= 1")
_OPTIONS = {
    "order": _rule(int, lambda k: 0 <= k <= MAX_ORDER,
                   f"an integer in [0, {MAX_ORDER}]"),
    "t0": _FINITE,
    "to": _FINITE,
    "theta": _rule(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]"),
    "max_steps": _COUNT,
    "samples": _COUNT,
    "step": _rule(float, lambda v: 0.0 < v < math.inf, "a finite number > 0"),
    # float("") raises, so an empty field is rejected
    "x0": _rule(lambda text: [float(p) for p in text.split(",")],
                lambda v: all(map(math.isfinite, v)),
                "comma-separated finite numbers"),
    "window": _rule(lambda text: tuple(float(p) for p in text.split(",")),
                    lambda v: len(v) == 2 and all(map(math.isfinite, v)),
                    "two finite numbers a,b"),
}
# Each command's options in --help order, with the value used when neither
# a flag nor --config sets one (None: required).
_DEFAULTS = {
    "series": {"order": 16, "t0": 0.0, "x0": None},
    "solve": {"to": None, "theta": 0.5, "order": 30, "max_steps": 200,
              "t0": 0.0, "x0": None},
    "check": {"window": None, "step": 1e-4, "order": 16, "t0": 0.0,
              "x0": None, "samples": 200},
}
_HELP = {"x0": "comma-separated initial values",
         "window": "a,b comparison window",
         "step": "RK4 step size",
         "samples": "max comparison samples across the window"}


def _apply_config(args) -> None:
    """Fill each option no flag set from the --config JSON file, through
    the flag's converter, else from the command's default; flags win.  A
    required option that is still unset is a usage error."""
    cfg = {}
    if args.config:
        try:
            cfg = json.loads(_read(args.config))
        except ValueError as exc:   # also an integer beyond int's digit limit
            raise errors.UsageError(
                f"config {args.config} is not JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise errors.UsageError(f"config {args.config} is not a JSON object")
    try:
        for key, default in _DEFAULTS.get(args.command, {}).items():
            value = cfg.get(key)
            if key in ("x0", "window") and isinstance(value, list):
                value = ",".join(map(json.dumps, value))
            if getattr(args, key) is None:
                setattr(args, key, _OPTIONS[key](str(value)) if key in cfg
                        else default)
    except argparse.ArgumentTypeError as exc:
        raise errors.UsageError(f"config {args.config}: {key!r} {exc}, "
                                f"not {json.dumps(cfg[key])}") from None
    for key in _DEFAULTS.get(args.command, {}):
        if getattr(args, key) is None:
            raise errors.UsageError(f"{args.command} needs --{key} "
                                    f"(or {key!r} in --config)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spquad",
        description="Quadratize generalized-polynomial ODEs and solve them "
                    "as power series.")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, func, help_text in (
            ("analyze", cmd_analyze, "domain, structure and decomposition"),
            ("quadratize", cmd_quadratize, "construct a quadratization"),
            ("series", cmd_series, "Taylor coefficient table"),
            ("solve", cmd_solve, "value at a target time via recentering"),
            ("check", cmd_check, "compare series against RK4 reference")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help=".spode or .frame file")
        p.add_argument("--format", choices=["json", "csv", "text"],
                       default="text")
        p.add_argument("--output", help="write to this path instead of stdout")
        p.add_argument("--config", help="JSON file with default options")
        for key in _DEFAULTS.get(name, ()):
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           type=_OPTIONS[key], help=_HELP.get(key))
        p.set_defaults(func=func)
    p = sub.choices["quadratize"]
    p.add_argument("--mode", choices=["canonical", "inclusive", "inverse"],
                   default="inclusive")
    p.add_argument("--frame-out", help="also write the frame file here")
    return ap


def _attach_negative_values(argv: list[str]) -> list[str]:
    """argparse reads a value that starts with a minus sign as an option
    (``--x0 -1,0.5``), so a number option followed by ``-`` and a digit or
    ``.`` is passed on as one token, ``--x0=-1,0.5``."""
    flags = {"--" + key.replace("_", "-") for key in _OPTIONS}
    out = []
    for token in argv:
        if out and out[-1] in flags and re.match(r"-[0-9.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        _apply_config(args)
        return args.func(args)
    except errors.SpquadError as exc:
        if isinstance(exc, errors.OdeSyntaxError):
            code, line = 2, f"parse error: {exc}"
            if exc.span:
                line += (f" (line {exc.span.line}, column {exc.span.column}, "
                         f"bytes {exc.span.start}..{exc.span.end})")
        elif isinstance(exc, errors.UsageError):
            code, line = 2, f"usage error: {exc}"
        elif isinstance(exc, errors.DomainError):
            code, line = 3, f"domain error: {type(exc).__name__}: {exc}"
        else:
            code, line = 4, f"numeric error: {type(exc).__name__}: {exc}"
        print(line, file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
