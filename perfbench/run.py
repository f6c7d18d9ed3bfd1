#!/usr/bin/env python3
"""Builds mcbench from the checkout's sources and runs its workloads.

    python3 perfbench/run.py                       # every workload, one process each
    python3 perfbench/run.py --workload inproc --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check          # short run of everything

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones.  A traced run takes each per-layer metric from the workload it
runs when that workload exercises the layer, and otherwise from a
one-second traced run of the workload that does (see README.md).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
# Per-run directories (sockets, snapshot, journal) go on a memory-backed
# filesystem when there is one: with the journal on the VM's disk, the
# fsync latency of a shared disk decides durable_write's figures.
if os.access("/dev/shm", os.W_OK):
    DEFAULT_RUN_ROOT = "/dev/shm"
else:
    DEFAULT_RUN_ROOT = os.path.join(ROOT, ".bench_run")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")
BINARY = os.path.join(BUILD_DIR, "mcbench")

WORKLOADS = ["inproc", "remote_wait", "durable_write"]
# The workload whose layers each per-layer metric measures; a traced run
# of another workload borrows the metric from a short run of this one.
# Names and units come from BENCHMARK.json.
LAYER_OWNER = {
    "core.": "inproc",
    "server.check_reached_rtt_us": "remote_wait",
    "server.increment_ack_us": "remote_wait",
    "server.open_us": "remote_wait",
    "server.parked_waits_max": "remote_wait",
    "server.": "durable_write",
}


def owner(metric):
    """The first LAYER_OWNER entry that is `metric` or a prefix of it."""
    for key, workload in LAYER_OWNER.items():
        if metric == key or (key.endswith(".") and metric.startswith(key)):
            return workload
    raise KeyError(metric)


def load_metrics():
    """(end-to-end, per-layer) name -> unit maps from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


END_TO_END, PER_LAYER = load_metrics()

# Counts of faults and ratios that read 0 on correct code of this
# version (README.md, "Metrics that may read 0").
MAY_READ_ZERO = {"core.spurious_wakeups", "core.fast_path_ratio"}
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds mcbench; exits 2 on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: library sources (src/) not found next to perfbench/")
        sys.exit(2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "mcbench",
                  "-j", "3"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("run.py: build failed: " + " ".join(cmd))
            sys.exit(2)


# Where per-run directories go (--run-root) and whether load threads
# are pinned (--pin); both only change for the README's reference runs.
OPTIONS = {"run_root": DEFAULT_RUN_ROOT, "pin": 1}


def run_workload(workload, seed, seconds, trace):
    """Runs one workload in its own process inside a fresh run
    directory, which is removed afterwards whatever happens.  Returns
    the parsed result, or None when the process failed."""
    os.makedirs(OPTIONS["run_root"], exist_ok=True)
    run_dir = os.path.join(OPTIONS["run_root"], "mcbench-%s-%d-%d" % (
        workload, os.getpid(), time.monotonic_ns()))
    os.makedirs(run_dir)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0",
           "--pin", str(OPTIONS["pin"])]
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(TRACE_DIR, "%s-seed%d.csv" % (workload, seed))]
    proc = subprocess.Popen(cmd, cwd=run_dir, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("run.py: %s exceeded %ds" % (workload, RUN_TIMEOUT_S))
        return None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.strip()]
    for line in lines[:-1]:
        print(line, flush=True)
    if proc.returncode != 0 or not lines:
        log("run.py: %s exited with %d" % (workload, proc.returncode))
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("run.py: %s printed no result line" % workload)
        return None


def traced(workload, seed, seconds):
    """A traced run of `workload`, completed with the layers it does
    not exercise from one-second traced runs of the workloads that do."""
    result = run_workload(workload, seed, seconds, True)
    if result is None:
        return None
    metrics = {k: v for k, v in result["metrics"].items() if k in PER_LAYER}
    missing = {owner(m) for m in PER_LAYER if m not in metrics}
    for other in WORKLOADS:
        if other not in missing:
            continue
        extra = run_workload(other, seed, 1, True)
        if extra is None:
            return None
        result["correct"] = result["correct"] and extra["correct"]
        result["attempted"] += extra["attempted"]
        result["failed"] += extra["failed"]
        for k, v in extra["metrics"].items():
            if k in PER_LAYER and k not in metrics:
                metrics[k] = v
    result["metrics"] = metrics
    return result


def one(workload, seed, seconds, trace):
    if trace:
        return traced(workload, seed, seconds)
    result = run_workload(workload, seed, seconds, False)
    if result is not None:
        result["metrics"] = {k: v for k, v in result["metrics"].items()
                             if k in END_TO_END}
    return result


def problems(result, trace):
    """Why a result fails the self-check (empty when it passes)."""
    if result is None:
        return ["no result"]
    found = []
    if not result["correct"]:
        found.append("correct is false")
    if result["failed"] != 0:
        found.append("%d ops failed" % result["failed"])
    want = PER_LAYER if trace else END_TO_END
    for name, unit in want.items():
        m = result["metrics"].get(name)
        if m is None:
            found.append("%s missing" % name)
        elif m.get("unit") != unit:
            found.append("%s has unit %r, want %r" % (name, m.get("unit"), unit))
        elif not (m["value"] > 0 or (name in MAY_READ_ZERO and m["value"] == 0)):
            found.append("%s = %r" % (name, m["value"]))
    return found


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--run-root", default=DEFAULT_RUN_ROOT,
                    help="parent of the per-run directories (socket, "
                         "snapshot, journal); default /dev/shm when "
                         "writable, else .bench_run/")
    ap.add_argument("--pin", type=int, choices=[0, 1], default=1,
                    help="0: leave every thread unpinned")
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload for 1 s, untraced and traced, "
                         "and fail unless every metric is there and > 0")
    args = ap.parse_args()
    OPTIONS["run_root"] = os.path.abspath(args.run_root)
    OPTIONS["pin"] = args.pin
    build()

    if args.self_check:
        bad = 0
        for w in WORKLOADS:
            for trace in (False, True):
                r = one(w, args.seed, 1, trace)
                found = problems(r, trace)
                log("self-check %-13s trace=%d: %s" % (
                    w, trace, "ok" if not found else "; ".join(found)))
                bad += bool(found)
        print(json.dumps({"self_check": "fail" if bad else "ok"}))
        sys.exit(1 if bad else 0)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        r = one(w, args.seed, args.seconds, bool(args.trace))
        if r is None:
            sys.exit(1)
        results[w] = r
        for name, m in sorted(r["metrics"].items()):
            print("%-13s %-42s %16.6g %s" % (w, name, m["value"], m["unit"]))

    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps({k: final[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
