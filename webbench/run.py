#!/usr/bin/env python3
"""The webdex benchmark: builds the benchmark binary from source, runs one
workload and prints its metrics.

One run (the last line of standard output is one JSON object):

    python3 webbench/run.py --workload bulk_index --seed 1 --seconds 15 --trace 0

Every workload, every metric by name with its unit, correctness gates
included (end-to-end metrics from untraced runs, then the traced run,
whose serial rounds must repeat the untraced runs' virtual metrics):

    python3 webbench/run.py --all [--seed 1] [--seconds 15]

Parent against change, with identical benchmark code built against both
source trees, in alternating order:

    python3 webbench/run.py --compare PARENT_CHECKOUT

Record a baseline (ten seeds per workload, then a traced run):

    python3 webbench/run.py --baseline webbench/baseline.json --seed 1 --seconds 15

See webbench/README.md for the workloads, the metrics and how to read a
comparison.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk_index", "query_mix", "churn")
# Simulated, deterministic metrics: a change must leave them bit-identical
# unless it means to change what the simulator computes.
VIRTUAL = ("makespan_s", "cost_usd", "query_virt_ms_p50", "query_virt_ms_p99")
RUN_TIMEOUT_S = 175
# Parent/change pairs per workload in compare mode; a gain needs
# PAIRS - 1 wins.
PAIRS = 10


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(src_dir, out_dir):
    """Configures and builds the benchmark against `src_dir`; returns the
    binary's path or None.  A lock keeps concurrent runs from building the
    same tree at once."""
    # The compiler's temporary files stay inside the build tree too.
    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    log_path = os.path.join(out_dir, "build.log")
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as out:
            steps = [
                ["cmake", "-S", HERE, "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=Release", "-DWEBDEX_SRC=" + src_dir],
                ["cmake", "--build", out_dir, "-j", str(min(4, os.cpu_count() or 1))],
            ]
            for step in steps:
                try:
                    code = subprocess.call(step, stdout=out, stderr=subprocess.STDOUT,
                                           cwd=ROOT, env=env, timeout=850)
                except (OSError, subprocess.TimeoutExpired) as err:
                    out.write("%s\n" % err)
                    code = 1
                if code != 0:
                    out.flush()
                    with open(log_path) as f:
                        log(f.read()[-4000:])
                    log("webbench: build failed (log: %s)" % log_path)
                    return None
    binary = os.path.join(out_dir, "webdex_bench")
    return binary if os.path.exists(binary) else None


def spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload; returns the parsed result object or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(out_dir, "spans-%s-%s.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("webbench: %s timed out" % workload)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("webbench: %s exited with %d" % (workload, proc.returncode))
        return None
    return json.loads(lines[-1])


def select(result, names):
    """The contract's result: exactly the metrics named, all present."""
    metrics = {}
    missing = []
    for name in names:
        if name in result["metrics"]:
            metrics[name] = result["metrics"][name]
        else:
            missing.append(name)
    if missing:
        log("webbench: missing metrics: %s" % ", ".join(missing))
        return None
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def one_run(args):
    binary = build(os.path.join(ROOT, "src"), build_dir())
    if binary is None:
        return 1
    result = run_binary(binary, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    key = "per_layer" if args.trace else "end_to_end"
    out = select(result, [m["name"] for m in spec()[key]])
    if out is None:
        return 1
    print(json.dumps(out))
    return 0


def all_runs(args):
    """Every workload, untraced then traced, printed metric by metric."""
    binary = build(os.path.join(ROOT, "src"), build_dir())
    if binary is None:
        return 1
    s = spec()
    ok = True
    for workload in WORKLOADS:
        results = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_binary(binary, workload, args.seed, args.seconds, trace)
            if result is None:
                return 1
            results.append(result)
            out = select(result, [m["name"] for m in s[key]])
            extra = sorted(set(result["metrics"]) - {m["name"] for m in s[key]})
            print("== %s (%s) correct=%s attempted=%d failed=%d error_rate=%.6g" % (
                workload, "traced" if trace else "untraced", result["correct"],
                result["attempted"], result["failed"],
                result["metrics"]["error_rate"]["value"]))
            for name in [m["name"] for m in s[key]] + extra:
                m = result["metrics"].get(name)
                if m is not None:
                    print("  %-40s %18.6f %s" % (name, m["value"], m["unit"]))
            ok = ok and out is not None and result["correct"] and result["failed"] == 0
        # The traced run's rounds are serial; the untraced ones are not.
        untraced, traced = (r["metrics"] for r in results)
        same = all(untraced[name]["value"] == traced[name]["value"] for name in VIRTUAL)
        print("  virtual metrics at %d and 1 host threads: %s" % (
            untraced["threads"]["value"], "identical" if same else "DIFFERENT"))
        ok = ok and same
    return 0 if ok else 1


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def baseline(args):
    """Ten untraced runs per workload, seeds seed..seed+9, plus one traced
    run at `seed`: each end-to-end metric's median, quartiles and spread
    (quartile distance over median), and the per-layer numbers."""
    binary = build(os.path.join(ROOT, "src"), build_dir())
    if binary is None:
        return 1
    s = spec()
    out = {"command": "python3 webbench/run.py --baseline %s --seed %d --seconds %d" % (
               os.path.relpath(args.baseline, ROOT), args.seed, args.seconds),
           "seeds": [args.seed, args.seed + 9], "seconds": args.seconds,
           "cpus": os.cpu_count(), "workloads": {}}
    for workload in WORKLOADS:
        values = {}
        for i in range(10):
            result = run_binary(binary, workload, args.seed + i, args.seconds, 0)
            if result is None or not result["correct"]:
                return 1
            for m in s["end_to_end"]:
                values.setdefault(m["name"], []).append(result["metrics"][m["name"]]["value"])
            out["threads"] = result["metrics"]["threads"]["value"]
        e2e = {}
        for m in s["end_to_end"]:
            q1, med, q3 = quartiles(values[m["name"]])
            e2e[m["name"]] = {"unit": m["unit"], "bound": m["bound"], "median": med,
                              "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / med if med else 0.0}
        traced = run_binary(binary, workload, args.seed, args.seconds, 1)
        if traced is None or not traced["correct"]:
            return 1
        out["workloads"][workload] = {
            "end_to_end": e2e,
            "per_layer": {m["name"]: traced["metrics"][m["name"]] for m in s["per_layer"]},
        }
        log("webbench: baseline of %s done" % workload)
    with open(args.baseline, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


# --- Compare mode -----------------------------------------------------------


def compare(args):
    """Alternating parent/change runs with the same seed per pair, both
    built from this benchmark's code.  A gain needs >= 9 wins in 10 pairs
    and a median difference larger than the parent's quartile spread; a
    metric is a regression when the change's median is worse than the
    parent's by more than its bound; a metric whose spread exceeds its
    bound is unresolved unless every change run beats every parent run;
    virtual metrics must match exactly."""
    parent_root = os.path.abspath(args.compare)
    base = build_dir()
    sides = {
        "parent": build(os.path.join(parent_root, "src"), os.path.join(base, "compare-parent")),
        "change": build(os.path.join(ROOT, "src"), os.path.join(base, "compare-change")),
    }
    if None in sides.values():
        return 1
    s = spec()
    metrics = s["end_to_end"]
    failed = False
    for workload in WORKLOADS:
        values = {"parent": {}, "change": {}}
        for i in range(PAIRS):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_binary(sides[side], workload, seed, args.seconds, 0)
                if result is None or not result["correct"]:
                    log("webbench: %s run of %s (seed %d) failed" % (side, workload, seed))
                    return 1
                for m in metrics:
                    values[side].setdefault(m["name"], []).append(
                        result["metrics"][m["name"]]["value"])
        print("== %s (%d pairs)" % (workload, PAIRS))
        print("  %-20s %-6s %12s %12s %12s %12s %12s %12s  %s" % (
            "metric", "unit", "parent_q1", "parent_med", "parent_q3",
            "change_q1", "change_med", "change_q3", "verdict"))
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            p, c = values["parent"][name], values["change"][name]
            pq1, pmed, pq3 = quartiles(p)
            cq1, cmed, cq3 = quartiles(c)
            better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
            wins = sum(1 for a, b in zip(c, p) if better(a, b))
            spread = (pq3 - pq1) / pmed if pmed else 0.0
            worse = ((pmed - cmed) if higher else (cmed - pmed)) / pmed if pmed else 0.0
            if name in VIRTUAL:
                verdict = "exact" if p == c else "VIRTUAL MISMATCH"
                failed = failed or p != c
            elif spread > m["bound"] and not (
                    all(better(a, b) for a in c for b in p)):
                verdict = "unresolved (spread %.3f > bound)" % spread
            elif wins >= PAIRS - 1 and abs(cmed - pmed) > (pq3 - pq1):
                verdict = "improved (%d/%d wins)" % (wins, PAIRS)
            elif worse > m["bound"]:
                verdict = "REGRESSED (%.1f%% > bound %.0f%%)" % (100 * worse, 100 * m["bound"])
                failed = True
            else:
                verdict = "no change beyond bound"
            print("  %-20s %-6s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g  %s" % (
                name, m["unit"], pq1, pmed, pq3, cq1, cmed, cq3, verdict))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--compare", metavar="PARENT_CHECKOUT")
    parser.add_argument("--baseline", metavar="OUT_JSON",
                        help="record a baseline: 10 seeds per workload plus a traced run")
    args = parser.parse_args()
    start = time.time()
    if args.compare:
        code = compare(args)
    elif args.baseline:
        code = baseline(args)
    elif args.all:
        code = all_runs(args)
    elif args.workload:
        code = one_run(args)
    else:
        parser.print_usage(sys.stderr)
        code = 2
    log("webbench: %.1f s" % (time.time() - start))
    return code


if __name__ == "__main__":
    sys.exit(main())
