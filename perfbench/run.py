#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the simsub search engine.

    python3 perfbench/run.py --workload serve_socket|scan_paper|batch_pool \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library sources and the simbench program into .bench_build (or
$CARGO_TARGET_DIR); later runs rebuild only what changed. Build output goes
to stderr; the last line of stdout is the run's JSON result. The kernel ISA
tier is pinned (SIMSUB_ISA=avx2) so runs on one machine compare like for
like. Traced runs leave their spans in <build dir>/trace-<workload>-seed<N>.jsonl.

BENCHMARK.json names every metric once. The result line is checked against
it: an end-to-end run must report exactly its end_to_end list, and a traced
run reports its per_layer list, with 0 for a metric of a layer the workload
does not call.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build(build_dir):
    """Configures and builds simbench; returns its path, or None on failure."""
    jobs = str(min(os.cpu_count() or 1, 4))
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", build_dir, "--target", "simbench", "-j", jobs]):
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"run.py: {' '.join(cmd[:2])} failed: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    return os.path.join(build_dir, "simbench")


def complete(result, trace):
    """Checks a result's metrics against BENCHMARK.json and fills in the
    per-layer metrics the workload does not measure. Returns an error or None."""
    with open(SPEC) as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if units.get(name) != metric["unit"]:
            return f"metric {name} ({metric['unit']}) is not in BENCHMARK.json with that unit"
    missing = [name for name in units if name not in metrics]
    if missing and not trace:
        return f"end-to-end metrics missing: {', '.join(missing)}"
    for name in missing:
        metrics[name] = {"value": 0.0, "unit": units[name]}
    result["metrics"] = dict(sorted(metrics.items()))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve_socket", "scan_paper", "batch_pool"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 1

    env = dict(os.environ, SIMSUB_ISA="avx2")
    env.pop("SIMSUB_FAILPOINTS", None)
    workdir = os.path.join(build_dir, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    trace_out = os.path.join(build_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--trace-out", trace_out]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    sys.stderr.write("".join(line + "\n" for line in lines[:-1]))
    if not lines:
        return done.returncode or 1
    result = json.loads(lines[-1])
    error = complete(result, args.trace == 1)
    if error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
