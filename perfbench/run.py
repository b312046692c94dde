#!/usr/bin/env python3
"""Repository benchmark: build the harness from source, run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fleet|repro --seed N \
        --seconds S --trace 0|1

The first run configures and builds `citadel_perfbench` (the library
under src/ plus perfbench/harness/) into .bench_build/perfbench; later
runs only rebuild what changed. Build output goes to stderr. The last
line of stdout is the result object {correct, attempted, failed,
metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1 (which also writes a Chrome trace-event file to
.bench_build/traces/). See perfbench/README.md for the workloads.
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
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
BINARY = BUILD / "citadel_perfbench"

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Environment overrides the library reads itself; any of them would
# silently change what is measured.
REFUSED_EXACT = ("CITADEL_KERNEL", "CITADEL_THREADS", "CITADEL_SIM_STEPPING")
REFUSED_PREFIX = "CITADEL_FLEET_"


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def refuse_overrides():
    for name in sorted(os.environ):
        if name in REFUSED_EXACT or name.startswith(REFUSED_PREFIX):
            die("refusing to run with %s set: it changes what the "
                "benchmark measures; unset it" % name)


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr; fail on error. The
    compiler's temporary files stay inside the build tree."""
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, cwd=ROOT, env=env)
    except subprocess.TimeoutExpired:
        die("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        die("failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("no library sources under %s/src: run from the root of a "
            "full checkout" % ROOT)
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", str(BUILD), "--target",
                "citadel_perfbench", "-j", jobs], BUILD_TIMEOUT_S)


def expected_metrics(trace):
    """{name: unit} the result must carry, from BENCHMARK.json."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    with open(spec) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fleet", "repro"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    refuse_overrides()
    build()

    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(args.seconds), "--trace",
           str(args.trace)]
    if args.trace:
        traces = BUILD_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / ("%s-seed%d.json" % (args.workload, args.seed)))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        die("workload run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        if lines:
            print(lines[-1], file=sys.stderr)
        die("citadel_perfbench exited with %d" % proc.returncode)

    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("malformed result line: " + lines[-1])
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want is not None and want != got:
        die("metrics do not match BENCHMARK.json: missing or changed %s, "
            "extra %s" % (sorted(set(want.items()) - set(got.items())),
                          sorted(set(got.items()) - set(want.items()))))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
