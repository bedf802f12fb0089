#!/usr/bin/env python3
"""Build and run tpbench, the host-time benchmark of the tpnet simulator.

Run from the root of a checkout:

    python3 tpbench/run.py --workload torus-tp-saturated --seed 1 \
        --seconds 50 --trace 0
    python3 tpbench/run.py --self-test

The first call configures and builds tpbench/ (which compiles the
simulator from src/) into $CARGO_TARGET_DIR/tpbench, or
.bench_build/tpbench when that is unset; later calls rebuild
incrementally. The benchmark's stdout is passed through; its last line is
the JSON result, checked here against the metric names BENCHMARK.json
declares for the chosen --trace mode. Any build or run failure exits
nonzero without printing a result.
"""

import argparse
import ctypes
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run spends --seconds timing passes, plus screening, a reference pass
# and the pass that crosses the deadline.
RUN_MARGIN_S = 120
BUILD_TIMEOUT_S = 850
ADDR_NO_RANDOMIZE = 0x0040000
LIBC = ctypes.CDLL(None, use_errno=True)


def fail(msg):
    print(f"tpbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_base():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.normpath(os.path.join(ROOT, base))


def run_step(cmd, timeout, **kw):
    """Run cmd to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout, **kw)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")


def build(target):
    bdir = os.path.join(build_base(), "tpbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        r = run_step(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S,
                     stdout=sys.stderr)
        if r.returncode != 0:
            fail("configure failed")
    r = run_step(["cmake", "--build", bdir, "--target", target, "-j", jobs],
                 BUILD_TIMEOUT_S, stdout=sys.stderr)
    if r.returncode != 0:
        fail(f"build of {target} failed")
    exe = os.path.join(bdir, target)
    if not os.path.exists(exe):
        fail(f"{exe} missing after build")
    return exe


def fixed_layout():
    """Child pre-exec hook: turn off address-space randomization.

    With it on, the heap's placement differs per process and moves
    set-up times between two modes (measured: 0.5 ms vs 0.8 ms to build
    the 16-ary 2-cube), which no number of repetitions inside one run
    can average out.
    """
    if LIBC.personality(ADDR_NO_RANDOMIZE) == -1:
        os.write(2, b"tpbench: cannot disable ASLR; timings will be noisier\n")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's helper tests")
    args = ap.parse_args()

    if args.self_test:
        exe = build("tpbench_tests")
        sys.exit(run_step([exe], RUN_MARGIN_S).returncode)
    if not args.workload:
        fail("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    expected = declared_metrics(args.trace)
    exe = build("tpbench")
    out_dir = os.path.join(build_base(), "tpbench-run")
    r = run_step([exe, "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--out", out_dir],
                 args.seconds + RUN_MARGIN_S, stdout=subprocess.PIPE,
                 text=True, preexec_fn=fixed_layout)
    if r.returncode != 0:
        fail(f"benchmark exited with status {r.returncode}")
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("no JSON result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has the wrong keys")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
