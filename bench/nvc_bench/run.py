#!/usr/bin/env python3
"""Builds nvc_bench from the checkout's sources and runs one workload.

Usage (from the root of a checkout):
  python3 bench/nvc_bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The binary is built under .bench_build/nvc_bench (RelWithDebInfo, through the
repository's own CMakeLists.txt). Each run's full result JSON goes to
.bench_out/results/<workload>-seed<N>[-trace].json. A traced run also writes
its trace files to .bench_out/trace/ and merges its per-layer metrics into
.bench_out/trace/layers.json, with its trace overhead when an untraced run of
the same workload and seed is there to set it against.
The last line of standard output is the result line of nvc_bench.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "nvc_bench")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170
OVERHEAD_METRICS = ("peak_tps", "commit_p50_us")


def build():
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD, "Makefile")):  # configure once
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", BUILD, "--target", "nvc_bench", "-j4"],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(BUILD, "nvc_bench")


def git_sha():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def trace_overhead(traced_path, untraced_path):
    """Traced / untraced value of each OVERHEAD_METRICS entry, or None when
    there is no correct untraced result to set the traced one against."""
    if not os.path.exists(untraced_path):
        return None
    with open(untraced_path) as f:
        untraced = json.load(f)
    with open(traced_path) as f:
        traced = json.load(f)
    if not untraced["correct"]:
        return None
    return {name: traced["end_to_end"][name]["value"] / untraced["end_to_end"][name]["value"]
            for name in OVERHEAD_METRICS}


def merge_layers(path, workload, result_line, overhead):
    layers = {}
    if os.path.exists(path):
        with open(path) as f:
            layers = json.load(f)
    layers[workload] = {"metrics": json.loads(result_line)["metrics"], "trace_overhead": overhead}
    with open(path, "w") as f:
        json.dump(layers, f, indent=1, sort_keys=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: cannot build nvc_bench: {e}", file=sys.stderr)
        return 1

    results = os.path.join(OUT, "results")
    trace_dir = os.path.join(OUT, "trace")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    out_path = os.path.join(results, stem + ("-trace.json" if args.trace else ".json"))
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--out={out_path}", f"--git-sha={git_sha()}"]
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
        cmd.append(f"--trace={trace_dir}")
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: nvc_bench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode == 0 and args.trace and lines:
        overhead = trace_overhead(out_path, os.path.join(results, stem + ".json"))
        if overhead is None:
            lines.insert(-1, f"trace_overhead: no untraced {stem} result to set this run against")
        else:
            lines.insert(-1, "trace_overhead (traced / untraced, same seed): " +
                         ", ".join(f"{k} {v:.3f}" for k, v in overhead.items()))
        merge_layers(os.path.join(trace_dir, "layers.json"), args.workload, lines[-1], overhead)
    if lines:
        print("\n".join(lines))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
