#!/usr/bin/env python3
"""Compare benchmark results, or report the spread of one set of runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl   # diff two result files
    python3 perfbench/compare.py --spread RESULTS.jsonl  # run-to-run spread

A result file holds one JSON record per run, as `perfbench/run.py`
appends them. For every workload and end-to-end metric the diff reports:

- `worse` / `better`: the medians differ by more than the metric's bound
  from BENCHMARK.json, and the runs' spread is within the bound;
- `unresolved`: the spread of either side (interquartile range over the
  median) is wider than the bound and the two sides' runs do not
  separate completely;
- `unchanged`: otherwise.

Every timing is judged twice: as reported, at the reference host speed,
and as measured, from the raw values each run stores under `measured`.
The exit status follows the reported values; a metric on which the two
judgements disagree is listed, since a gap between them means either the
host's speed moved or the scaling hides a change.

Exact code-quality counts that moved at all are listed separately, since
a count that repeats exactly moves only when the allocation changed.
Results from different CPUs, core counts, widths or OCaml versions are
refused. Exit status: 0 when nothing got worse, 1 when some metric got
worse, 2 on a usage error or incomparable files.
"""

import argparse
import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
# Counts that repeat exactly on one commit: any move is an allocation change.
EXACT = ("spilled_webs", "spill_cost", "passed_share")
PROVENANCE_KEYS = ("cpu", "nproc", "width", "ocaml")


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def group(runs, raw=False):
    """{workload: {metric: [values]}} over the end-to-end runs, as reported
    or, with [raw], as measured."""
    out = {}
    for r in runs:
        if r.get("trace", 0) != 0:
            continue
        if raw:
            values = r.get("measured", {})
        else:
            values = {name: m["value"] for name, m in r["result"]["metrics"].items()}
        for name, v in values.items():
            out.setdefault(r["workload"], {}).setdefault(name, []).append(v)
    return out


def spread(values):
    """Interquartile range over the median, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worsening(base, new, better):
    """Relative change of the median, signed so that positive is worse."""
    b, n = statistics.median(base), statistics.median(new)
    if b == 0:
        return 0.0 if n == 0 else float("inf")
    d = (n - b) / abs(b)
    return -d if better == "higher" else d


def separated(base, new, better):
    """+1 when every new run is better than every base run, -1 when every
    one is worse, else 0."""
    below, above = max(new) < min(base), min(new) > max(base)
    if better == "lower":
        below, above = above, below
    return 1 if above else -1 if below else 0


def verdict(base, new, metric):
    bound = metric["bound"]
    d = worsening(base, new, metric["better"])
    noise = max(spread(base), spread(new))
    if noise > bound:
        sep = separated(base, new, metric["better"])
        if sep == 1 and -d > bound:
            return "better", d, noise
        if sep == -1 and d > bound:
            return "worse", d, noise
        return "unresolved", d, noise
    if d > bound:
        return "worse", d, noise
    if -d > bound:
        return "better", d, noise
    return "unchanged", d, noise


def provenance_mismatch(base_runs, new_runs):
    def facts(runs):
        return {tuple((k, r["provenance"].get(k)) for k in PROVENANCE_KEYS) for r in runs}
    a, b = facts(base_runs), facts(new_runs)
    if len(a) == 1 and a == b:
        return None
    return f"base runs on {sorted(a)}, new runs on {sorted(b)}"


def compare(base_runs, new_runs, spec):
    """Rows (workload, metric, verdict, worsening, noise, bound, raw verdict,
    raw worsening), notes on exact counts that moved, and the metrics on
    which the reported and the raw verdicts disagree."""
    base, new = group(base_runs), group(new_runs)
    raw_base, raw_new = group(base_runs, raw=True), group(new_runs, raw=True)
    rows, notes, gaps = [], [], []
    for w in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, n = base.get(w, {}).get(name), new.get(w, {}).get(name)
            if not b or not n:
                rows.append((w, name, "missing", 0.0, 0.0, metric["bound"], "missing", 0.0))
                continue
            v, d, noise = verdict(b, n, metric)
            rb, rn = raw_base.get(w, {}).get(name), raw_new.get(w, {}).get(name)
            rv, rd = verdict(rb, rn, metric)[:2] if rb and rn else ("missing", 0.0)
            rows.append((w, name, v, d, noise, metric["bound"], rv, rd))
            if name in EXACT and statistics.median(b) != statistics.median(n):
                notes.append(f"{w} {name}: {statistics.median(b)!r} -> {statistics.median(n)!r}")
            if rv in ("worse", "better") and rv != v:
                gaps.append(f"{w} {name}: {v} as reported, {rv} as measured")
    return rows, notes, gaps


def spread_rows(runs, spec):
    """(workload, metric, median, spread, raw spread, bound, n) for every
    end-to-end metric."""
    g, raw = group(runs), group(runs, raw=True)
    rows = []
    for w in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            values = g.get(w, {}).get(metric["name"], [])
            if values:
                rows.append((w, metric["name"], statistics.median(values), spread(values),
                             spread(raw.get(w, {}).get(metric["name"], [])),
                             metric["bound"], len(values)))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("files", nargs="+")
    ap.add_argument("--spread", action="store_true", help="report one file's spread")
    args = ap.parse_args()
    spec = load_spec()

    if args.spread:
        if len(args.files) != 1:
            ap.error("--spread takes one file")
        print(f"{'workload':<12} {'metric':<14} {'median':>14} {'spread':>8} {'raw':>8} "
              f"{'bound':>6}  n")
        for w, name, med, s, raw, bound, n in spread_rows(load_runs(args.files[0]), spec):
            flag = "" if s <= bound / 3 else ("  over a third of the bound" if s <= bound
                                              else "  OVER BOUND")
            print(f"{w:<12} {name:<14} {med:>14.6g} {s:>8.4f} {raw:>8.4f} {bound:>6}  {n}{flag}")
        return 0

    if len(args.files) != 2:
        ap.error("give two result files")
    base_runs, new_runs = load_runs(args.files[0]), load_runs(args.files[1])
    mismatch = provenance_mismatch(base_runs, new_runs)
    if mismatch:
        print(f"not comparable: {mismatch}", file=sys.stderr)
        return 2
    rows, notes, gaps = compare(base_runs, new_runs, spec)
    print(f"{'workload':<12} {'metric':<14} {'verdict':<10} {'worse by':>9} {'spread':>8} "
          f"{'bound':>6}  {'raw verdict':<11} {'raw worse by':>12}")
    for w, name, v, d, noise, bound, rv, rd in rows:
        print(f"{w:<12} {name:<14} {v:<10} {d:>+9.4f} {noise:>8.4f} {bound:>6}  "
              f"{rv:<11} {rd:>+12.4f}")
    for note in notes:
        print(f"count moved: {note}")
    for gap in gaps:
        print(f"reported and raw disagree: {gap}")
    return 1 if any(r[2] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
