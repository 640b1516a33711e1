#!/usr/bin/env python3
"""Quick self-check of the benchmark harness (about a minute).

Runs every workload for one round (``--seconds 0``), untraced and traced,
each in a fresh interpreter as the benchmark is meant to be run, and
asserts that:

* the last line is the result object with exactly the contract's keys;
* every metric of BENCHMARK.json prints by name with its unit, and the
  values are finite numbers;
* every job's output checks pass on this code (no failed job);
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.

Usage:  python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(spec: dict, workload: str, trace: int) -> None:
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (workload, trace, got)
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
    print(f"ok  {workload:18s} trace={trace}  {result['attempted']} jobs")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-bare-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench(bare, "series_stationary", 0)
        assert done.returncode != 0, "ran without the program's sources"
        assert '"metrics"' not in done.stdout, done.stdout
    print("ok  bare directory exits", done.returncode)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
