#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

Run from the repository root:

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 20 --trace 0

The script builds the benchmark executable from source with dune, runs
it with the allocator width set to the host's core count and every other
`RA_*` knob removed from the environment, passes its output through, and
appends the result with its provenance to `.perfbench/results.jsonl`
(`--out` picks another file). The last line of standard output is the
result object: `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = "perfbench"
TARGET = "./perfbench/main.exe"
EXE = os.path.join("_build", "default", BENCH_DIR, "main.exe")
BUILD_TIMEOUT_S = 850
RUN_DEADLINE_S = 175


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json in {os.getcwd()}: {e}")


def host_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not on PATH")


def build():
    cmd = dune_command() + ["build", "--root", ".", "--profile", "release", TARGET]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout[-4000:])
        fail("build failed")


def commit_id():
    """The git commit when this is a git checkout, else a digest of the
    sources the benchmark compiles."""
    if os.path.isdir(".git") and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True)
        if proc.returncode == 0:
            dirty = subprocess.run(["git", "status", "--porcelain", "--", "lib", BENCH_DIR],
                                   capture_output=True, text=True).stdout.strip()
            return proc.stdout.strip() + ("+dirty" if dirty else "")
    h = hashlib.sha256()
    for top in ("lib", BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--out", default=os.path.join(".perfbench", "results.jsonl"))
    args = ap.parse_args()

    started = time.time()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (known: {', '.join(names)})", 2)
    build()

    width = host_cores()
    commit = commit_id()
    env = {k: v for k, v in os.environ.items() if not k.startswith("RA_")}
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--width", str(width), "--commit", commit]
    budget = max(10.0, RUN_DEADLINE_S - (time.time() - started))
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {budget:.0f} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result")
    group = "per_layer" if args.trace == "1" else "end_to_end"
    expected = {m["name"] for m in spec[group]}
    if set(result["metrics"]) != expected:
        fail(f"metrics differ from BENCHMARK.json {group}: "
             f"missing {sorted(expected - set(result['metrics']))}, "
             f"extra {sorted(set(result['metrics']) - expected)}")

    provenance = {}
    measured = {}
    failures = []
    body = []
    for line in lines[:-1]:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
            continue
        if line.startswith("measured "):
            measured = json.loads(line[len("measured "):])
        if line.startswith(("failed (", "incorrect: ")):
            failures.append(line)
        body.append(line)
    provenance.update({"nproc": width, "cpu": cpu_model(),
                       "python": sys.version.split()[0]})
    record = {"workload": args.workload, "seed": args.seed, "trace": int(args.trace),
              "seconds": args.seconds, "provenance": provenance,
              "failures": failures, "measured": measured, "result": result}
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    print("provenance " + json.dumps(provenance, sort_keys=True))
    for line in body:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
