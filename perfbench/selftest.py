#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a few thousand rows.

Checks that
  * each run, timed and traced, prints every metric BENCHMARK.json names
    for that mode, with its unit, and no other;
  * every end-to-end value is a positive number, and the run is correct;
  * an injected digest mismatch is counted as a failure, not a crash;
  * the instrumented workload leaves no artifact in its scratch directory;
  * the benchmark refuses to run, without a result line, in a directory
    that holds only BENCHMARK.json and perfbench/.

    python3 perfbench/selftest.py      # about a minute after the build
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import run  # noqa: E402  (build_dir, WORKLOADS)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ROWS = "4000"

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=900)


def result(proc):
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None


def expected_units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def main():
    workloads = [w["name"] for w in SPEC["workloads"]]
    check(sorted(workloads) == sorted(run.WORKLOADS),
          "BENCHMARK.json and run.py list the same workloads")

    for w in workloads:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            tag = f"{w} --trace {trace}"
            proc = bench("--workload", w, "--seed", "3", "--seconds", "0.5",
                         "--trace", str(trace), "--rows", ROWS)
            r = result(proc)
            check(proc.returncode == 0 and r is not None,
                  f"{tag}: exits 0 with a result line")
            if r is None:
                print(proc.stderr[-2000:])
                continue
            units = {k: v["unit"] for k, v in r["metrics"].items()}
            check(units == expected_units(section),
                  f"{tag}: prints every {section} metric with its unit")
            values = [v["value"] for v in r["metrics"].values()]
            check(all(isinstance(v, (int, float)) and math.isfinite(v)
                      for v in values), f"{tag}: every value is a number")
            if trace == 0:
                check(all(v > 0 for v in values),
                      f"{tag}: every end-to-end value is positive")
            check(r["correct"] is True and r["failed"] == 0
                  and r["attempted"] >= 1, f"{tag}: 0/{r['attempted']} failed")

        proc = bench("--workload", w, "--seed", "3", "--seconds", "0.5",
                     "--trace", "0", "--rows", ROWS, "--inject-digest-mismatch")
        r = result(proc)
        check(proc.returncode == 0 and r is not None and r["correct"] is False
              and r["failed"] >= 1,
              f"{w}: an injected digest mismatch counts as a failure")

    scratch = run.build_dir() / "scratch"
    left = list(scratch.rglob("*")) if scratch.exists() else []
    check(not left, f"scratch directory holds no artifacts ({len(left)} left)")

    # Only BENCHMARK.json and perfbench/: the build must fail, loudly.
    parent = run.build_dir().parent
    parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=parent) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = bench("--workload", workloads[0], "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=tmp, env=env)
        check(proc.returncode != 0 and result(proc) is None,
              "refuses to run without the library sources")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
