#!/usr/bin/env python3
"""Paper-scale host benchmark of the decision-tree library.

Builds the benchmark program from the checkout's sources on first use
(into .bench_build/perfbench, or $CARGO_TARGET_DIR/perfbench), runs one
workload, and passes the program's output through. The last line of
stdout is the JSON result.

    python3 perfbench/run.py --workload binned-sweep --seed 1 --seconds 20 --trace 0

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Default seed of each workload (the program generates every input from it).
WORKLOADS = {"binned-sweep": 1, "continuous-kmeans": 1, "instrumented": 1}

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
JOBS = min(4, os.cpu_count() or 1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_group(cmd, timeout, stdout):
    """Run `cmd` in its own process group; on timeout kill the whole group
    and wait for it. Returns (exit code, captured stdout or None)."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s",
              file=sys.stderr)
        return 124, None
    return proc.returncode, out


def build():
    """Configure (once) and build the benchmark program. Returns its path,
    or None when a step fails."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(JOBS)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        rc, _ = run_group(cmd, BUILD_TIMEOUT_S, sys.stderr)
        if rc != 0:
            print(f"perfbench: build step failed ({rc}): {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    return out / "pdt_perfbench"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, help="default: the workload's own")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rows", type=int, help="training rows (default 800k)")
    ap.add_argument("--inject-digest-mismatch", action="store_true",
                    help="corrupt one digest, to test failure accounting")
    return ap.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    seed = WORKLOADS[args.workload] if args.seed is None else args.seed
    binary = build()
    if binary is None:
        return 1
    out = build_dir()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(out / "scratch" / f"{args.workload}.{os.getpid()}")]
    if args.trace:
        cmd += ["--spans-out",
                str(out / "spans" / f"{args.workload}.seed{seed}.json")]
    if args.rows is not None:
        cmd += ["--rows", str(args.rows)]
    if args.inject_digest_mismatch:
        cmd.append("--inject-digest-mismatch")

    rc, stdout = run_group(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    if rc != 0:
        return rc
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError(f"unexpected keys {sorted(result)}")
    except (IndexError, ValueError) as e:
        print(f"perfbench: pdt_perfbench printed no result line: {e}",
              file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
