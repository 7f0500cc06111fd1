#!/usr/bin/env python3
"""Build and run the NR-Scope repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload live_cell --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

The first run configures and builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR, default .bench_build/.  Each run prints the workload's
metrics by name and unit, its correctness checks and an environment block,
writes a JSON ledger under .bench_out/, and ends with one JSON line
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ledger.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ["live_cell", "replay_crowd", "fleet_query"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def source_digest():
    """Commit id when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True)
        return commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    """Configure once, then build incrementally; returns the binary path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "nrs_perfbench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return os.path.join(out, "nrs_perfbench")


def run_workload(binary, workload, args, commit):
    ledger_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(ledger_dir, exist_ok=True)
    ledger = os.path.join(
        ledger_dir, f"{workload}-seed{args.seed}-trace{args.trace}.json")
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", commit,
               "--weights", os.path.join(ROOT, "tools", "weights",
                                         "predictor_v1.txt"),
               "--ledger", ledger]
    result = subprocess.run(command, cwd=ROOT, capture_output=True,
                            text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(result.stderr)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited with {result.returncode}")
    summary = json.loads(lines[-1])
    return lines[:-1], summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: the NR-Scope sources (src/) are not in this checkout")
        return 1
    try:
        binary = build()
        commit = source_digest()
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        results = {}
        for workload in workloads:
            lines, summary = run_workload(binary, workload, args, commit)
            print("\n".join(lines), flush=True)
            results[workload] = summary
    except (RuntimeError, OSError, ValueError,
            subprocess.SubprocessError) as error:
        log(f"perfbench: {error}")
        return 1

    if args.workload != "all":
        print(json.dumps(results[args.workload]), flush=True)
        return 0
    print("\nworkload      metric                             value  unit")
    for workload, summary in results.items():
        rows = list(summary["metrics"].items())
        rows += [("ops", {"value": summary["attempted"], "unit": "count"}),
                 ("ops_failed", {"value": summary["failed"], "unit": "count"})]
        for name, metric in rows:
            print(f"{workload:13s} {name:32s} {metric['value']:>12.4f}  "
                  f"{metric['unit']}")
    print(json.dumps(results), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
