#!/usr/bin/env python3
"""The closer end-to-end benchmark.

Run from the root of a closer checkout:

    python3 perfbench/run.py --workload switchapp_bug --seed 1 --trace 0
    python3 perfbench/run.py --smoke

The first form builds perfbench/ (a CMake project that compiles the closer
libraries from src/) into $CARGO_TARGET_DIR, or .bench_build when that is
unset, then runs closer_perfbench on one workload for --seconds seconds. It
echoes closer_perfbench's report lines (run context, workload inputs and options,
every metric with its unit and sample count, one line per wrong verdict)
and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, from
untraced jobs; with --trace 1 they are its per_layer list, from a run that
alternates untraced and traced jobs and then probes per-call costs.

--smoke runs every workload at reduced size, one job each, untraced and
traced, and checks each verdict and that every named metric is printed with
its unit. It exits non-zero on the first problem.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Report-only metrics printed next to the BENCHMARK.json lists: the share
# of wrong verdicts (also carried by "attempted"/"failed"), and states per
# second of explore(), which close_corpus never calls.
REPORT_ONLY = {"failed_ratio": "ratio", "states_per_s": "1/s"}
NON_EXPLORING = {"close_corpus"}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds closer_perfbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"closer sources not found under {ROOT / 'src'}")
    out = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not out.is_absolute():
        out = ROOT / out
    build_dir = out / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release",
                      *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir / "closer_perfbench"


def run_bench(exe, workload, seed, seconds, trace, smoke):
    """Runs one closer_perfbench invocation; returns its parsed report."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: closer_perfbench timed out")
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        fail(f"{workload}: closer_perfbench exited with {proc.returncode}")
    report = {"metrics": {}, "attempted": 0, "failed": 0}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if fields[:1] == ["metric"]:
            report["metrics"][fields[1]] = (float(fields[2]), fields[3])
        elif fields[:1] == ["jobs"]:
            counts = dict(f.split("=") for f in fields[1:])
            report["attempted"] = int(counts["attempted"])
            report["failed"] = int(counts["failed"])
    return report


def missing_metrics(report, wanted):
    """Names in wanted ({name: unit}) not printed with that unit."""
    got = report["metrics"]
    return [name for name, unit in wanted.items()
            if name not in got or got[name][1] != unit]


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def metric_units(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def smoke(exe, spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            report = run_bench(exe, workload, 1, 0, trace, smoke=True)
            wanted = metric_units(spec, trace)
            wanted["failed_ratio"] = REPORT_ONLY["failed_ratio"]
            if not trace and workload not in NON_EXPLORING:
                wanted["states_per_s"] = REPORT_ONLY["states_per_s"]
            missing = missing_metrics(report, wanted)
            if missing:
                fail(f"{workload} trace={trace}: missing {missing}")
            if report["attempted"] < 1 or report["failed"]:
                fail(f"{workload} trace={trace}: wrong verdict")
            print(f"smoke ok: {workload} trace={trace} "
                  f"({len(wanted)} metrics, {report['attempted']} jobs)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or pass --smoke)")

    exe = build()
    spec = load_spec()
    if args.smoke:
        smoke(exe, spec)
        return

    report = run_bench(exe, args.workload, args.seed, args.seconds,
                        args.trace, smoke=False)
    wanted = metric_units(spec, args.trace)
    missing = missing_metrics(report, wanted)
    if missing:
        print(f"run.py: metrics not reported: {missing}", file=sys.stderr)
    metrics = {name: {"value": report["metrics"][name][0], "unit": unit}
               for name, unit in wanted.items() if name not in missing}
    print(json.dumps({
        "correct": report["failed"] == 0 and report["attempted"] >= 1
                   and not missing,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
