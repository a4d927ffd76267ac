#!/usr/bin/env python3
"""Compares two sets of benchmark results against BENCHMARK.json's bounds.

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl

Each file holds run records as `run.py` and `steady.py` append them (one
JSON object per line with `info` and `result`). For every workload and
metric present on both sides, prints each side's median and quartiles
(`statistics.quantiles(n=4)`) and a verdict:

- `worse`: the new median is worse than the old by more than the bound;
- `improved`: better by more than the bound, or by more than the old
  side's own quartile spread with at least nine tenths of the new runs
  better than the old median;
- `unchanged`: neither;
- `unresolved`: either side's spread, (q3 - q1) / median, is wider than
  the bound, unless every new run beats every old run or the reverse.

Per-layer metrics (traced runs) have no bound; they get `differs` or
`same` only. The exit status is 1 when any end-to-end pairing is `worse`
or `unresolved` — the "two sets agree" test — and 0 otherwise.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """Maps (trace, workload, metric) to the values of every run."""
    values = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        info, result = record["info"], record["result"]
        for name, metric in result["metrics"].items():
            key = (info["trace"], info["workload"], name)
            values.setdefault(key, []).append(metric["value"])
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(old, new, better, bound):
    _, old_med, _ = quartiles(old)
    _, new_med, _ = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    # Relative worsening of the median: positive is worse.
    worse_by = sign * (new_med - old_med) / abs(old_med) if old_med else 0.0
    beats = lambda a, b: sign * (a - b) < 0  # a is better than b
    if all(beats(n, o) for n in new for o in old):
        return "improved", worse_by
    if all(beats(o, n) for n in new for o in old) and worse_by > bound:
        return "worse", worse_by
    if max(spread(old), spread(new)) > bound:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    share = sum(beats(n, old_med) for n in new) / len(new)
    if -worse_by > bound or (-worse_by > spread(old) and share >= 0.9):
        return "improved", worse_by
    return "unchanged", worse_by


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    old, new = load(argv[0]), load(argv[1])
    failing = 0
    print(f"{'workload':<14} {'metric':<26} {'old median [q1, q3]':>36} "
          f"{'new median [q1, q3]':>36} {'better by':>9}  verdict")
    for key in sorted(set(old) & set(new)):
        trace, workload, name = key
        a, b = old[key], new[key]
        qa, qb = quartiles(a), quartiles(b)
        if trace == 0 and name in bounds:
            m = bounds[name]
            v, worse_by = verdict(a, b, m["better"], m["bound"])
            failing += v in ("worse", "unresolved")
            change = f"{-worse_by:+.1%}"
        else:
            v = "same" if sorted(a) == sorted(b) else "differs"
            change = ""
        fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
        print(f"{workload:<14} {name:<26} {fmt(qa):>36} {fmt(qb):>36} {change:>9}  {v}")
    print(f"\n{failing} end-to-end pairing(s) worse or unresolved")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
