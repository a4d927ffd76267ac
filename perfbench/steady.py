#!/usr/bin/env python3
"""Runs the benchmark over many seeds and reports how steady it is.

    python3 perfbench/steady.py --runs 10 --out perfbench/out/set-a.jsonl \
        [--workloads replay-evict,hybrid-global,chain-faults] [--first-seed 1] \
        [--trace 0]

For each workload, runs `run.py` once per seed (seeds first-seed ..
first-seed + runs - 1), appends every run to --out, then prints, per
end-to-end metric, the median, the quartiles (`statistics.quantiles(n=4)`)
and the spread (q3 - q1) / median against the metric's bound in
BENCHMARK.json, with the spread of the raw, unscaled timing beside it; a
spread at or above a third of its bound is flagged. Runs
whose value of some metric lies outside the quartiles by more than one
inter-quartile range are listed with their noise readings (load average,
steal ticks, run-queue wait, CPU per wall second, and the host-speed
kernel's median against its reference). `--report` re-prints the
report of an existing file without running anything.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["replay-evict", "hybrid-global", "chain-faults"]


def load_bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_records(path):
    records = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            records.append(json.loads(line))
    return records


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"steady.py: {workload} seed {seed} failed ({proc.returncode})")
    return {"info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(records, bench):
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    by_workload = {}
    for r in records:
        if r["info"]["trace"] == 0:
            by_workload.setdefault(r["info"]["workload"], []).append(r)
    worst = 0.0
    for workload, runs in sorted(by_workload.items()):
        print(f"\n## {workload}: {len(runs)} runs, seeds "
              f"{sorted(r['info']['seed'] for r in runs)}")
        failed = [r["info"]["seed"] for r in runs if not r["result"]["correct"]]
        if failed:
            print(f"  INCORRECT runs: seeds {failed}")
        print(f"  {'metric':<22} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'raw':>8} {'bound':>6}  verdict")
        outliers = {}
        for name, m in metrics.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            raw = [r["info"]["raw_timings"] for r in runs]
            raw_spread = ""
            if all(t and name in t for t in raw):
                rq1, rmed, rq3 = quartiles([t[name]["value"] for t in raw])
                raw_spread = f"{(rq3 - rq1) / rmed:.4f}"
            bound = m["bound"]
            if name != "setup_s":
                worst = max(worst, spread / bound)
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread > bound else "over 1/3")
            print(f"  {name:<22} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {raw_spread:>8} {bound:>6}  {flag}")
            iqr = q3 - q1
            for r, v in zip(runs, values):
                if iqr > 0 and (v < q1 - iqr or v > q3 + iqr):
                    outliers.setdefault(r["info"]["seed"], []).append(name)
        print("  noise per run: seed, loadavg before/after, steal ticks, "
              "run-queue wait s, cpu/wall, host kernel p50/reference")
        for r in sorted(runs, key=lambda r: r["info"]["seed"]):
            n = r["info"]["noise"]
            cpu_wall = n["cpu_s"] / n["timed_wall_s"] if n["timed_wall_s"] else 0
            host = n["host_speed"]["kernel_ms.p50"] / n["host_speed"]["reference_ms"]
            mark = f"  outlier in {', '.join(outliers[r['info']['seed']])}" \
                if r["info"]["seed"] in outliers else ""
            print(f"    {r['info']['seed']:>4} {n['loadavg_before']:>5.2f}/"
                  f"{n['loadavg_after']:<5.2f} {n['steal_ticks']:>6} "
                  f"{n['runqueue_wait_s']:>8.3f} {cpu_wall:>6.3f} {host:>6.3f}{mark}")
    print(f"\nlargest spread / bound (setup_s excluded): {worst:.3f}")
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--report", action="store_true",
                    help="only report on the records already in --out")
    args = ap.parse_args()
    bench = load_bench()
    if not args.report:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        for workload in args.workloads.split(","):
            for seed in range(args.first_seed, args.first_seed + args.runs):
                record = run_one(workload, seed, bench["run_seconds"], args.trace)
                with out.open("a") as f:
                    f.write(json.dumps(record) + "\n")
                print(f"{workload} seed {seed}: done", file=sys.stderr)
    report(load_records(args.out), bench)


if __name__ == "__main__":
    main()
