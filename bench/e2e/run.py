#!/usr/bin/env python3
"""End-to-end simulator benchmark.

Builds bench/e2e's driver (a program of its own on top of the repository's
library), runs the workloads, checks every output and prints every metric
by name with its unit.

  python3 bench/e2e/run.py [--seed S] [--reps 3]
      The suite: every workload, --reps untraced repetitions round-robin
      (one process each), then one traced round. Prints the end-to-end
      and per-layer tables, runs the cross-run checks and writes
      bench/e2e/out/results.json (input of compare.py).

  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload. The last stdout line is one JSON object:
      {"correct", "attempted", "failed", "metrics"}, with the end-to-end
      metrics when untraced and the per-layer metrics when traced.

  python3 bench/e2e/run.py --selftest
      The unit tests of the metric arithmetic (test_bench.py).

Exits non-zero, naming the field, when a check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import metrics as M

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
BUILD = HERE / "build"
OUT = HERE / "out"
DRIVER = BUILD / "e2e_driver"

WORKLOADS = ["relay_mesh", "relay_mesh_sharded", "publish_dense", "churn_spam"]

# Run length: traffic epochs per workload at REF_SECONDS, about that many
# host seconds of traffic each on a 4-core x86-64 host. --seconds scales
# the epoch count, so a run is a fixed amount of simulated work.
REF_SECONDS = 20
REF_EPOCHS = {"relay_mesh": 4, "relay_mesh_sharded": 4, "publish_dense": 20, "churn_spam": 8}
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def epochs_for(workload, seconds):
    return max(1, round(REF_EPOCHS[workload] * seconds / REF_SECONDS))


def build():
    if not (REPO / "CMakeLists.txt").is_file():
        raise SystemExit(f"run.py: no repository at {REPO} to build the driver from")
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "e2e_driver", "-j", jobs],
                   check=True, stdout=sys.stderr)


def trace_path(workload):
    return OUT / f"TRACE_e2e_{workload}.json"


def run_driver(workload, seed, seconds, traced):
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--epochs", str(epochs_for(workload, seconds)), "--trace", "1" if traced else "0"]
    if traced:
        OUT.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_path(workload))]
    done = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    return json.loads(done.stdout.strip().splitlines()[-1])


def close(a, b, tol=0.01):
    return abs(a - b) <= tol * max(abs(a), abs(b))


def check_run(raw):
    """Problems with one run, each naming the field that moved."""
    problems = [f"{raw['workload']}: checks.{k} = {raw['checks'][k]}"
                for k in M.FAILURE_CHECKS if raw["checks"][k] != 0]
    setup = raw["setup"]
    for rep, total in enumerate(setup["total"]):
        phases = sum(setup[p][rep] for p in ("build", "subscribe", "register", "warmup"))
        if not close(phases, total):
            problems.append(f"{raw['workload']}: setup phases {phases} != setup.total {total}")
    if raw["traced"]:
        layers = M.per_layer(raw)
        if layers["sim.other_s"] < 0:
            problems.append(f"{raw['workload']}: publish + deliver exceed traffic_s")
        problems += check_twin(raw)
        problems += check_trace(raw)
    return problems


def check_twin(raw):
    """A traced run against its untraced twin: tracing changes nothing the
    program does and costs at most TRACE_OVERHEAD_LIMIT."""
    w, twin = raw["workload"], raw["twin"]
    problems = [f"{w}: twin {part}.{k} {v} != traced {raw[part][k]}"
                for part in ("counters", "checks")
                for k, v in twin[part].items() if v != raw[part][k]]
    ratio = M.overhead_ratio(raw)
    if ratio > M.TRACE_OVERHEAD_LIMIT:
        problems.append(f"{w}: trace.overhead_ratio {ratio:.4f} > {M.TRACE_OVERHEAD_LIMIT}")
    return problems


def check_trace(raw):
    """The trace file's setup spans add up to each set-up and its traffic
    spans to the traffic wall time."""
    events = json.loads(trace_path(raw["workload"]).read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    problems = []
    for rep, total in enumerate(raw["setup"]["total"]):
        us = sum(e["dur"] for e in spans
                 if e["name"].startswith("setup.") and e["args"]["rep"] == rep)
        if not close(us / 1e6, total):
            problems.append(f"{raw['workload']}: trace setup spans {us / 1e6} != {total}")
    us = sum(e["dur"] for e in spans if e["name"].startswith("traffic."))
    if not close(us / 1e6, M.traffic_s(raw)):
        problems.append(f"{raw['workload']}: trace traffic spans {us / 1e6} != "
                        f"{M.traffic_s(raw)}")
    return problems


def result_line(raw, problems):
    attempted, failed = M.attempted_failed(raw)
    values = M.per_layer(raw) if raw["traced"] else M.end_to_end(raw)
    names = M.PER_LAYER if raw["traced"] else M.END_TO_END
    return {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in names}}


def single(args):
    build()
    raw = run_driver(args.workload, args.seed, args.seconds, args.trace == 1)
    problems = check_run(raw)
    for p in problems:
        log(f"FAIL {p}")
    print(json.dumps(result_line(raw, problems)))
    return 1 if problems else 0


def print_table(title, rows):
    print(f"\n{title}")
    for workload, name, value, metric, extra in rows:
        print(f"  {workload:<20} {name:<34} {value:>16.6g} {metric.unit:<12} "
              f"{metric.kind:<9}{extra}")


def suite(args):
    build()
    untraced = {w: [] for w in WORKLOADS}
    traced = {}
    rounds = [False] * args.reps + [True]
    for i, is_traced in enumerate(rounds):
        for w in WORKLOADS:
            log(f"[run.py] {w} round {i + 1}/{len(rounds)}{' traced' if is_traced else ''}")
            raw = run_driver(w, args.seed, args.seconds, is_traced)
            if is_traced:
                traced[w] = raw
            else:
                untraced[w].append(raw)

    problems = []
    for w in WORKLOADS:
        for raw in [*untraced[w], traced[w]]:
            problems += check_run(raw)
        # Deterministic counters repeat exactly for a fixed seed: across
        # repetitions, with tracing on, and at any shard count.
        ref = untraced[w][0]["counters"]
        for raw in [*untraced[w][1:], traced[w]]:
            problems += [f"{w}: counters.{k} {ref[k]} != {v} (traced={raw['traced']})"
                         for k, v in raw["counters"].items() if v != ref[k]]
    serial, sharded = untraced["relay_mesh"][0], untraced["relay_mesh_sharded"][0]
    problems += [f"relay_mesh_sharded: counters.{k} {v} != relay_mesh {serial['counters'][k]}"
                 for k, v in sharded["counters"].items() if v != serial["counters"][k]]

    results = {"seed": args.seed, "seconds": args.seconds, "reps": args.reps, "workloads": {}}
    e2e_rows, layer_rows = [], []
    for w in WORKLOADS:
        samples = {m.name: [M.end_to_end(r)[m.name] for r in untraced[w]] for m in M.END_TO_END}
        layers = M.per_layer(traced[w])
        attempted, failed = M.attempted_failed(untraced[w][0])
        entry = {"attempted": attempted, "failed": failed,
                 "failed_ratio": M.failed_ratio(failed, attempted),
                 "publish_samples": len(untraced[w][0]["publish_ms"]),
                 "end_to_end": {}, "per_layer": {}}
        n_pub = f" n={entry['publish_samples']}"
        for m in M.END_TO_END:
            q1, q3 = M.quartiles(samples[m.name])
            entry["end_to_end"][m.name] = {
                "value": M.median(samples[m.name]), "q1": q1, "q3": q3,
                "samples": samples[m.name], "unit": m.unit, "kind": m.kind,
                "better": m.better, "bound": m.bound, "floor": m.floor}
            e2e_rows.append((w, m.name, M.median(samples[m.name]), m,
                             f" IQR {q1:.6g}..{q3:.6g}" + (n_pub if "publish_ms" in m.name else "")))
        for name, value in layers.items():
            m = M.METRICS[name]
            entry["per_layer"][name] = {"value": value, "unit": m.unit, "kind": m.kind,
                                        "better": m.better}
            layer_rows.append((w, name, value, m, n_pub if "publish_ms" in name else ""))
        e2e_rows.append((w, "failed_ratio", entry["failed_ratio"],
                         M.Metric("failed_ratio", "ratio", "count", "lower"),
                         f" ({failed}/{attempted})"))
        results["workloads"][w] = entry

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "results.json").write_text(json.dumps(results, indent=1) + "\n")
    print_table(f"End-to-end (median of {args.reps} untraced runs, seed {args.seed})", e2e_rows)
    print_table("Per layer (one traced run)", layer_rows)
    print(f"\nwrote {OUT / 'results.json'}")
    for p in problems:
        log(f"FAIL {p}")
    print("checks: " + ("all passed" if not problems else f"{len(problems)} failed"))
    return 1 if problems else 0


def selftest():
    import unittest
    suite_ = unittest.defaultTestLoader.discover(str(HERE), pattern="test_bench.py")
    return 0 if unittest.TextTestRunner(verbosity=2).run(suite_).wasSuccessful() else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=REF_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    try:
        return single(args) if args.workload else suite(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
