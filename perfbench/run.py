#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload cold|hot --seed N --seconds S --trace 0|1

Run from the repository root.  Every call configures and builds the
scg_perfbench program (a Release build of ../src plus the files in this
directory) under .bench_build/; after the first, only what changed is
rebuilt.  The program's output is relayed; its last line, the result object,
is checked against BENCHMARK.json and narrowed to the metrics declared there
for the mode: the end-to-end metrics untraced, the per-layer metrics traced.

Exit status: non-zero, with no result line, when the build or the program
fails or a declared metric is missing; non-zero, after the result line,
when a correctness check failed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the program; returns its path or None."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    compile_ = ["cmake", "--build", str(BUILD), "--target", "scg_perfbench",
                "-j", jobs]
    for cmd in (configure, compile_):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    return BUILD / "scg_perfbench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    if exe is None:
        log("build failed")
        return 1
    TRACES.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", str(TRACES)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"scg_perfbench exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        log(f"scg_perfbench exited {proc.returncode} without a result line")
        return 1
    for line in lines[:-1]:
        print(line)

    names = declared_metrics(args.trace)
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        log("scg_perfbench did not report: " + ", ".join(missing))
        return 1
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
