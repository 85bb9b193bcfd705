#!/usr/bin/env python3
"""Collect and compare sets of perfbench results (standard library only).

Collect a result set — one JSON record per run — from a checkout:

    python3 perfbench/compare.py collect --out base.jsonl --seeds 1,2,3

Compare two sets, one row per workload and metric:

    python3 perfbench/compare.py diff base.jsonl change.jsonl

Virtual-clock and count metrics must be identical seed by seed. Wall-clock
end-to-end metrics compare the median over the seeds of each set against
the bound BENCHMARK.json gives them; per-layer wall figures have no bound
and are shown for information. Exits 1 when an exact metric differs or a
bounded metric got worse by more than its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Metrics that repeat exactly for a seed: the simulation's virtual clock
# and the layers' own counters. Everything else is measured on the wall
# clock (or depends on thread timing) and is compared with a bound.
EXACT = {
    "map_virtual_ms", "map_probes", "stale_virtual_ms.mean",
    "stale_virtual_ms.p90", "ops_ok_frac",
    "simnet.messages", "simnet.wire_traversals",
    "simnet.traversals_per_message",
    "probe.host_probes", "probe.switch_probes", "probe.host_hit_ratio",
    "probe.switch_hit_ratio",
    "mapper.explorations", "mapper.merges", "mapper.pruned",
    "mapper.peak_model_vertices", "mapper.new_switch_ratio",
    "routing.routes", "routing.check_routes.routes_per_tick",
    "analysis.gate.fast", "analysis.gate.escalated",
    "analysis.gate.fast_ratio", "analysis.gate.checker_rejections",
    "analysis.gate.divergences",
    "service.snapshot_bytes", "service.check_period_virtual_ms",
    "service.stale.max_virtual_ms",
    "service.remap.incremental", "service.remap.full",
    "service.remap.escalated", "service.remap.incremental_success_ratio",
    "service.remap.probes",
    "service.catalog.published", "service.catalog.rejected_unsafe",
    "service.catalog.rejected_stale",
}
# Calls per operation repeat exactly where every operation is alike; on the
# churn workload the traced scenarios depend on how many fit in the time.
EXACT_CALLS_EXCEPT = {"now100-churn"}


def is_exact(workload, metric):
    if metric in EXACT:
        return True
    return metric.endswith(".calls") and workload not in EXACT_CALLS_EXCEPT


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}, spec


def load_set(path):
    """{(workload, trace): {seed: result}} from a JSON-lines file."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                key = (rec["workload"], int(rec["trace"]))
                runs.setdefault(key, {})[int(rec["seed"])] = rec["result"]
    return runs


def collect(args):
    _, spec = load_bounds()
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workloads == "all" else args.workloads.split(","))
    seconds = args.seconds or spec["run_seconds"]
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in [int(s) for s in args.seeds.split(",")]:
                done = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(args.trace)],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    sys.exit("perfbench: %s seed %d failed (exit %d)"
                             % (workload, seed, done.returncode))
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": args.trace,
                                      "result": json.loads(lines[-1])}) + "\n")
                out.flush()
                print("%s seed %d done" % (workload, seed), file=sys.stderr)


def diff(args):
    bounds, _ = load_bounds()
    a_runs, b_runs = load_set(args.a), load_set(args.b)
    failures = 0
    header = ("workload", "metric", "unit", "A", "B", "change", "bound",
              "verdict")
    rows = [header]
    for key in sorted(set(a_runs) | set(b_runs)):
        workload, _ = key
        a, b = a_runs.get(key, {}), b_runs.get(key, {})
        names = []
        for result in list(a.values()) + list(b.values()):
            for name in result["metrics"]:
                if name not in names:
                    names.append(name)
        for name in names:
            def values(side):
                return {seed: r["metrics"][name]["value"]
                        for seed, r in side.items() if name in r["metrics"]}
            va, vb = values(a), values(b)
            unit = next(r["metrics"][name]["unit"]
                        for r in list(a.values()) + list(b.values())
                        if name in r["metrics"])
            if not va or not vb:
                rows.append((workload, name, unit, "-", "-", "-", "-",
                             "MISSING"))
                failures += 1
                continue
            ma, mb = statistics.median(va.values()), statistics.median(
                vb.values())
            change = (mb - ma) / ma if ma else (0.0 if mb == ma else
                                               float("inf"))
            bound = "-"
            if is_exact(workload, name):
                common = set(va) & set(vb)
                same = bool(common) and all(va[s] == vb[s] for s in common)
                verdict = "same" if same else "DIFFERENT"
                failures += 0 if same else 1
            elif name in bounds:
                spec = bounds[name]
                bound = "%g" % spec["bound"]
                worse = change if spec["better"] == "lower" else -change
                if worse > spec["bound"]:
                    verdict = "WORSE"
                    failures += 1
                elif worse < -spec["bound"]:
                    verdict = "better"
                else:
                    verdict = "within"
            else:
                verdict = "info"
            rows.append((workload, name, unit, "%.6g" % ma, "%.6g" % mb,
                         "%+.2f%%" % (100 * change), bound, verdict))
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run the benchmark into a result set")
    c.add_argument("--out", required=True)
    c.add_argument("--workloads", default="all")
    c.add_argument("--seeds", default="1,2,3,4,5")
    c.add_argument("--seconds", type=int, default=0,
                   help="default: BENCHMARK.json run_seconds")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    d = sub.add_parser("diff", help="compare two result sets")
    d.add_argument("a")
    d.add_argument("b")
    args = parser.parse_args()
    if args.command == "collect":
        collect(args)
        return 0
    return diff(args)


if __name__ == "__main__":
    sys.exit(main())
