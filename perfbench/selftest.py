#!/usr/bin/env python3
"""Self-test of the benchmark: run from the root of a checkout.

    python3 perfbench/selftest.py [--seconds 1]

Checks that BENCHMARK.json is well formed, then runs every workload once
untraced and once traced through perfbench/run.py and checks that every
metric BENCHMARK.json names is printed, by name and with its unit, both on
a human-readable line and in the final JSON result, and that the result is
correct. Exits non-zero on the first problem.
"""

import argparse
import json
import re
import subprocess
import sys

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_spec(spec):
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            names.append(m["name"])
            if not UNIT_RE.fullmatch(m["unit"]):
                problems.append(f"{m['name']}: bad unit {m['unit']!r}")
            if m["better"] not in ("lower", "higher"):
                problems.append(f"{m['name']}: bad 'better' {m['better']!r}")
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            problems.append(f"{m['name']}: bound {m['bound']} outside (0, 0.25]")
    for n in names:
        if not NAME_RE.fullmatch(n) or len(n) > 64 or not n[0].isalnum():
            problems.append(f"malformed name {n!r}")
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        problems.append(f"names used twice: {sorted(dupes)}")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"]):
        problems.append("no setup_s end-to-end metric in s, lower is better")
    return problems


def check_run(spec, workload, trace, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        return [f"exit code {p.returncode}: {p.stderr.strip()[-400:]}"]
    lines = p.stdout.splitlines()
    result = json.loads(lines[-1])
    problems = [] if result["correct"] and result["failed"] == 0 else ["result not correct"]
    human = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3:
            human[parts[0]] = parts[2]
    for m in spec["per_layer" if trace else "end_to_end"]:
        if human.get(m["name"]) != m["unit"]:
            problems.append(f"{m['name']} not printed with unit {m['unit']}")
        if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]:
            problems.append(f"{m['name']} missing from the JSON result")
    return problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            for p in check_run(spec, w["name"], trace, args.seconds):
                problems.append(f"{w['name']} --trace {trace}: {p}")
            print(f"checked {w['name']} --trace {trace}", file=sys.stderr)
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
