#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the perfbench binary from this checkout's sources (perfbench/ is a
CMake package of its own that compiles ../src), runs one workload, attaches
the units BENCHMARK.json declares to the metrics the binary reports (checking
that none is missing), and prints the result JSON as the last line of
standard output.

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --list-metrics   # every metric, unit, meaning
    python3 perfbench/run.py --self-test      # checks BENCHMARK.json/spec.json

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout; scratch files (bundles, Chrome traces of traced runs) go to its
work/ subdirectory.
"""

import argparse
import fcntl
import json
import os
import re
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 170


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(out_dir):
    """Configures and builds the perfbench target; returns the binary."""
    cmake_dir = os.path.join(out_dir, "perfbench")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "perfbench-build.log")
    with open(os.path.join(out_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as out:
            steps = []
            if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
                steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                              "-DCMAKE_BUILD_TYPE=Release"])
            steps.append(["cmake", "--build", cmake_dir, "--target",
                          "perfbench", "-j", str(os.cpu_count() or 4)])
            for step in steps:
                if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT,
                                   cwd=ROOT) != 0:
                    with open(log_path) as failed:
                        log(failed.read()[-4000:])
                    log("perfbench: build failed (see %s)" % log_path)
                    return None
    return os.path.join(cmake_dir, "perfbench")


def run_workload(binary, args, work_dir):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True,
                            start_new_session=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    lines = []
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        lines = out.splitlines()
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("perfbench: %s timed out after %d s" % (args.workload,
                                                   RUN_TIMEOUT_S))
        return None
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        log("perfbench: binary exited with %d" % proc.returncode)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        log("perfbench: last line is not JSON: %r" % lines[-1][:200])
        return None


def attach_units(result, bench, spec, workload, trace):
    """Turns the binary's {name: value} metrics into {name: {value, unit}}
    with the units BENCHMARK.json declares. A per-layer metric the workload
    does not exercise (spec.json "on") reads 0; any other declared metric
    the binary did not report is a problem. Returns the list of problems."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys: %s" % sorted(result)]
    problems = []
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    got = result["metrics"]
    extra = set(got) - {m["name"] for m in declared}
    if extra:
        problems.append("undeclared metrics: %s" % sorted(extra))
    metrics = {}
    for m in declared:
        name = m["name"]
        if name in got:
            value = got[name]
        elif trace and workload not in spec["per_layer"][name]["on"]:
            value = 0
        else:
            problems.append("%s: not reported" % name)
            continue
        if not isinstance(value, (int, float)):
            problems.append("%s: value is not a number" % name)
        metrics[name] = {"value": value, "unit": m["unit"]}
    result["metrics"] = metrics
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    return problems


def self_test():
    """Checks BENCHMARK.json and spec.json against each other. Returns the
    list of problems."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "spec.json"))
    problems = []

    def need(cond, msg):
        if not cond:
            problems.append(msg)

    workloads = [w["name"] for w in bench["workloads"]]
    e2e = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    for name in workloads + e2e + per_layer:
        need(NAME_RE.match(name), "bad name %r" % name)
    for w in bench["workloads"]:
        need(w.get("why") and spec["workloads"].get(w["name"], {})
             .get("rationale"), "%s: records no rationale" % w["name"])
    for name in e2e:
        need(spec["end_to_end"].get(name), "%s: spec.json has no "
             "definition" % name)
    for name in per_layer:
        entry = spec["per_layer"].get(name)
        if entry is None:
            problems.append("%s: spec.json has no entry" % name)
            continue
        need(entry.get("on") and all(w in workloads for w in entry["on"]),
             "%s: must name the workloads it runs on" % name)
        if entry.get("moves"):
            need(all(t in e2e for t in entry["moves"]),
                 "%s: moves an unknown end-to-end metric" % name)
        else:
            need(entry.get("reason"), "%s: names no end-to-end metric it "
                 "should move and gives no reason" % name)
    return problems


def list_metrics():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "spec.json"))
    print("workloads:")
    for w in bench["workloads"]:
        print("  %-15s %s" % (w["name"], w["why"]))
    print("end-to-end metrics (--trace 0):")
    for m in bench["end_to_end"]:
        print("  %-32s %-8s %-6s bound %.2f  %s" % (
            m["name"], m["unit"], m["better"], m["bound"],
            spec["end_to_end"].get(m["name"], "")))
    print("per-layer metrics (--trace 1):")
    for m in bench["per_layer"]:
        entry = spec["per_layer"].get(m["name"], {})
        moves = ("moves %s on %s" % (",".join(entry["moves"]),
                                     ",".join(entry["on"]))
                 if entry.get("moves") else entry.get("reason", ""))
        print("  %-32s %-8s %-6s %s" % (m["name"], m["unit"], m["better"],
                                        moves))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--list-metrics", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        problems = self_test()
        for p in problems:
            log("self-test: " + p)
        print("self-test: %s" % ("FAILED" if problems else "ok"))
        return 1 if problems else 0
    if args.list_metrics:
        list_metrics()
        return 0
    if not args.workload:
        parser.error("--workload is required")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources next to perfbench/")
        return 1
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "spec.json"))
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log("perfbench: unknown workload %r" % args.workload)
        return 1
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    result = run_workload(binary, args, os.path.join(out_dir, "work"))
    if result is None:
        return 1
    problems = attach_units(result, bench, spec, args.workload,
                            args.trace == 1)
    if problems:
        for p in problems:
            log("perfbench: " + p)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
