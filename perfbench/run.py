#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: resnet18_partial_bayes, vgg11_opt_latency, serve_multi_tenant.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes the run's spans). The last line of standard
output is the result object {"correct", "attempted", "failed", "metrics"};
the line before it is the run header. Exits 0 only when every checked
output was correct.

The build tree is $CARGO_TARGET_DIR (default .bench_build) under the
repository root; run records land in its results/ and traces/ folders.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("resnet18_partial_bayes", "vgg11_opt_latency", "serve_multi_tenant")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("timed out after %ds: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out


def cmake_cache(cmake_dir):
    values = {}
    try:
        with open(os.path.join(cmake_dir, "CMakeCache.txt")) as cache:
            for line in cache:
                key, sep, value = line.strip().partition("=")
                if sep and not key.startswith(("//", "#")):
                    values[key.split(":")[0]] = value
    except OSError:
        pass
    return values


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    if cmake_cache(cmake_dir).get("CMAKE_HOME_DIRECTORY", HERE) != HERE:
        shutil.rmtree(cmake_dir)  # a tree configured for another checkout
    for step in (["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", cmake_dir, "-j", "4", "--target", "perfbench"]):
        code, out = run(step, BUILD_TIMEOUT_S, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                        text=True)
        if code != 0:
            sys.stderr.write(out[-4000:])
            fail("build failed: " + " ".join(step))
    return os.path.join(cmake_dir, "perfbench"), cmake_cache(cmake_dir)


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        listed = json.load(spec)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in listed}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary, cache = build(build_dir)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    for sub in ("results", "traces"):
        os.makedirs(os.path.join(build_dir, sub), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(build_dir, "traces", tag + ".spans.jsonl")]
    code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = out.strip().splitlines()
    if code != 0 or len(lines) < 2:
        fail("measuring program exited with %d" % code)
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])

    expected = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        fail("metrics differ from BENCHMARK.json: missing %s, unlisted %s, units %s" % (
            missing, extra, sorted(n for n in set(got) & set(expected) if got[n] != expected[n])))

    noise = sorted(v for k, v in record.items() if k.startswith("noise."))
    for flag in noise:
        print("perfbench: NOISE: " + flag, file=sys.stderr)
    header = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "compiler": record["compiler"],
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "BNN_KERNEL_NATIVE": cache.get("BNN_KERNEL_NATIVE", "unknown"),
        "git_sha": git_sha(), "noise_flags": noise,
    }
    with open(os.path.join(build_dir, "results", tag + ".json"), "w") as f:
        json.dump({"header": header, "record": record, "result": result}, f, indent=1)
    print(json.dumps({"header": header}))
    print(lines[-1])
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
