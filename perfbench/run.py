#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the spquad CLI.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every job is a real CLI invocation, ``spquad.cli.main([..., "--format",
"json", "--output", tmp])``, made in this process.  Jobs run as a closed
loop with one caller and no threads: the next job starts when the previous
one returns, and the loop repeats the workload's round of jobs until at
least S seconds of jobs have run, always ending on a whole round.
job_p50_s and job_tail_s (p90) are taken over the walls of all jobs of the
run, and jobs_per_s is their count over their summed wall time.  The
machine is shared and its speed drifts by a fifth or more between runs, and
now and then runs a job twice as fast for a moment, so no metric rests on
the fastest jobs, and every timing is scaled to a fixed machine speed
measured by a calibration step after each job (see ``calibrate.py``); the
unscaled values are printed on the run's info line.  Every output
is checked (exit code, strict JSON, the CLI's JSON schema, values against
references computed before timing); failed jobs stay in the timing
statistics.  Checking time is excluded from the measured wall time.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced loop, then a traced replay of its first rounds (at least 100 jobs,
see ``spans.py``), and prints the per-layer metrics.  Metric names and units are
read from ``BENCHMARK.json`` at the checkout root.  The last line of
standard output is the result object; lines before it describe the run.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LABEL = "shared machine, CPU frequency not fixed, own-process measurements only"
TAIL_PERCENTILE = 90.0
REPLAYED_JOBS = 100
SETUP_REPEATS = 5
SETUP_CALIBRATION_STEPS = 50
# Times the import, then calibrates in the same process (numpy is loaded by
# then, so the calibration does not shorten the import it follows).
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import spquad.cli; "
                "t = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
                "import calibrate; "
                f"print(t, calibrate.mean_step({SETUP_CALIBRATION_STEPS}))")


def setup_seconds() -> tuple[float, float]:
    """Median time to import spquad.cli in a fresh interpreter, scaled to
    the reference speed by a calibration in the same interpreter, and
    unscaled."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=120, check=True)
        t, step = (float(v) for v in done.stdout.split())
        scaled.append(t * calibrate.REFERENCE_S / step)
        raw.append(t)
    return statistics.median(scaled), statistics.median(raw)


def invoke(cli_main, argv):
    """Exit code of one CLI call; an escaping exception is a failed job."""
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the loop must go on; the job is counted failed
        return f"{type(exc).__name__}: {exc}"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def judge(job, rc, out: Path, validator, mismatch) -> tuple[float, str | None]:
    """(relative error, failure reason or None) for one finished job."""
    if rc != 0:
        return 1.0, f"exit {rc}"
    try:
        doc = json.loads(out.read_text(), parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        return 1.0, f"output unreadable: {exc}"
    finally:
        out.unlink(missing_ok=True)
    problem = next(validator.iter_errors(doc), None)
    if problem is not None:
        return 1.0, f"schema: {problem.message}"
    try:
        err = job.error(doc["result"])
    except (mismatch, KeyError, TypeError, ValueError) as exc:
        return 1.0, f"result: {exc}"
    if not err <= job.tol:
        return err, f"error {err:.3e} above {job.tol:.0e}"
    return err, None


def closed_loop(jobs, seconds, cli_main, out: Path, validator, mismatch):
    """Run whole rounds until ``seconds`` of job time (calibration and
    checking excluded) have passed.  Returns per-job walls, calibration
    steps, errors, failures and the jobs in execution order."""
    walls, steps, errors, failures, executed = [], [], [], [], []
    elapsed = 0.0
    while not walls or elapsed < seconds:
        start = perf_counter()
        checking = 0.0
        for job in jobs:
            argv = job.argv(str(out))
            t0 = perf_counter()
            rc = invoke(cli_main, argv)
            t1 = perf_counter()
            steps.append(calibrate.step())
            err, why = judge(job, rc, out, validator, mismatch)
            checking += perf_counter() - t1
            walls.append(t1 - t0)
            errors.append(err)
            executed.append(job)
            if why:
                failures.append(f"{job.command} {job.label}: {why}")
        elapsed += perf_counter() - start - checking
    return walls, steps, errors, failures, executed


def tail(walls) -> tuple[float, float]:
    """(percentile, value): p90 by nearest rank, which has at least ten jobs
    beyond it from 100 jobs on; the median in shorter runs."""
    ordered = sorted(walls)
    n = len(ordered)
    p = TAIL_PERCENTILE if n * (100 - TAIL_PERCENTILE) / 100 >= 10 else 50.0
    return p, ordered[max(0, math.ceil(p / 100 * n) - 1)]


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            loose = ROOT / ".git" / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return text
    except OSError:
        return "unknown (not a git checkout)"


def run_record(args, n_round, n_jobs, n_failed, percentile) -> dict:
    import numpy
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "not installed"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy_version, "nproc": os.cpu_count(), "cpu_model": cpu,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "jobs_per_round": n_round, "jobs": n_jobs, "failed": n_failed,
        "tail_percentile": percentile,
        "loop": "closed, one caller, no threads", "label": LABEL,
    }


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "spquad" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {ROOT} is not a spquad source checkout "
              "(src/spquad and BENCHMARK.json are needed)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    import jsonschema
    import spquad
    import spquad.cli
    if Path(spquad.__file__).resolve().parent != (SRC / "spquad").resolve():
        print(f"perfbench: imported spquad from {spquad.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import jobs as workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")

    setup_s, setup_raw_s = setup_seconds()
    schema = json.loads((SRC / "spquad" / "schemas" / "cli_output.schema.json").read_text())
    validator = jsonschema.Draft7Validator(schema)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        tmp = Path(tmp)
        round_jobs = workloads.build(args.workload, ROOT, tmp, args.seed,
                                     spquad.cli.main)
        walls, steps, errors, failures, executed = closed_loop(
            round_jobs, args.seconds, spquad.cli.main, tmp / "out.json",
            validator, workloads.Mismatch)
        if args.trace:
            from spans import traced_run
            replayed = len(round_jobs) * math.ceil(REPLAYED_JOBS / len(round_jobs))
            layer = traced_run(executed[:replayed], walls[:replayed])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    n, n_failed = len(walls), len(failures)
    percentile, tail_s = tail(walls)
    worst = max(errors)
    step_s = statistics.fmean(steps)
    scale = calibrate.REFERENCE_S / step_s
    unscaled = {"setup_s": setup_raw_s, "job_p50_s": statistics.median(walls),
                "job_tail_s": tail_s, "jobs_per_s": n / sum(walls)}
    end_to_end = {
        "setup_s": setup_s,
        "job_p50_s": unscaled["job_p50_s"] * scale,
        "job_tail_s": unscaled["job_tail_s"] * scale,
        "jobs_per_s": unscaled["jobs_per_s"] / scale,
        "ok_ratio": (n - n_failed) / n,
        "correct_digits": -math.log10(max(worst, 2.0 ** -53)),
        "peak_rss_mb": peak_rss_mb,
    }
    for line in sorted(set(failures)):
        print(f"perfbench: failed job: {line}", file=sys.stderr)
    print(f"# {args.workload}: {n} jobs in {n // len(round_jobs)} rounds of "
          f"{len(round_jobs)}, {n_failed} failed (fail_ratio {n_failed / n:.4g}); "
          f"job_tail_s is the p{percentile:g} of all {n} jobs; worst relative "
          f"error {worst:.3e}")
    print(f"# calibration step {step_s * 1e6:.1f} us (mean of {n}), reference "
          f"{calibrate.REFERENCE_S * 1e6:.1f} us; unscaled: "
          + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()))
    print(json.dumps({"run_record": run_record(args, len(round_jobs), n,
                                               n_failed, percentile)}))
    section, values = ("per_layer", layer) if args.trace else ("end_to_end", end_to_end)
    if args.trace:
        print("# cli.other.s is an estimate: the untraced job median minus "
              "the traced layer sum of the same job")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    print(json.dumps({"correct": n_failed == 0, "attempted": n,
                      "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
