#!/usr/bin/env python3
"""Build and run the SVAGC simulator benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload swap_large --seed 1 --seconds 25 --trace 0

Builds `perfbench/` (a Cargo package of its own) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), runs the benchmark binary, checks
that its result names exactly the metrics of BENCHMARK.json with their units,
and prints that result as the last line of standard output. Exits non-zero,
without a result line, when the build, the run or the check fails.
"""

import argparse
import json
import os
import re
import subprocess
import sys

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec(path="BENCHMARK.json"):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def check_result(result, spec, trace):
    """Return a list of problems with `result` against BENCHMARK.json."""
    problems = []
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            problems.append(f"result has no {key!r}")
    if problems:
        return problems
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"unexpected result keys {sorted(result)}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    for name, unit in want.items():
        if name not in got:
            problems.append(f"metric {name} missing")
        elif got[name].get("unit") != unit:
            problems.append(f"metric {name} has unit {got[name].get('unit')!r}, want {unit!r}")
    for name, m in got.items():
        if name not in want:
            problems.append(f"metric {name} is not in BENCHMARK.json")
        if not NAME_RE.fullmatch(name):
            problems.append(f"metric name {name!r} is malformed")
        if not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool):
            problems.append(f"metric {name} has no numeric value")
    return problems


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target_dir, "release", "svagc-perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # A fixed mmap threshold turns off glibc's adaptive one, which moves
    # large blocks onto the heap after the first frees, so that peak RSS
    # depends on how many reps ran before the peak instead of on the rep.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_=str(128 * 1024))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if proc.returncode != 0 or not lines:
        # The binary already reported what failed on standard error.
        if lines:
            print(lines[-1], file=sys.stderr)
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        fail(f"last line is not JSON: {e}")
    problems = check_result(result, spec, args.trace == 1)
    if problems:
        fail("result does not match BENCHMARK.json: " + "; ".join(problems))
    print(lines[-1])


if __name__ == "__main__":
    main()
