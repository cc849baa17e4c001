#!/usr/bin/env python3
"""Validate a Chrome trace_event file produced by `rralloc --trace`.

Checks, in order:
  1. the file parses as a JSON array of event objects;
  2. every complete ("ph": "X") span nests properly within its
     per-thread (per-domain) track — spans on one tid either disjoint
     or strictly contained, never partially overlapping;
  3. the trace covers the allocator's documented stages. Two shapes:
     the flat pipeline (RA_SCHED=flat, or a single-routine alloc) has an
     `alloc` root with at least one `pass` and `build` / `simplify` /
     `color` spans under it; the task-DAG schedule (RA_SCHED=dag) wraps
     every stage in a `task` span instead — `task` spans plus the same
     stage spans, and at least one `sched.tasks`-family counter sample.
     Under `--heuristic irc` the worklist engine's `coalesce` span
     subsumes `simplify` (simplification and coalescing interleave in
     one loop), so either name satisfies that slot (spill phases appear
     only when something spills in either shape);
  4. when more than one domain participated, at least one pooled `scan`
     or stolen `task` span is tagged with a non-main tid.

Exit status 0 on success; 1 with a message on the first violation.
Usage: check_trace.py TRACE.json
"""

import json
import sys


def fail(msg):
    print(f"check_trace: {msg}", file=sys.stderr)
    sys.exit(1)


def main(path):
    try:
        with open(path) as f:
            events = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path} is not valid JSON: {e}")

    if not isinstance(events, list) or not events:
        fail(f"{path}: expected a non-empty JSON array of events")

    spans = [e for e in events if e.get("ph") == "X"]
    if not spans:
        fail("no complete ('ph':'X') span events in the trace")

    for e in spans:
        for key in ("name", "ts", "dur", "tid"):
            if key not in e:
                fail(f"span event missing {key!r}: {e}")

    # Per-tid nesting: sweep spans in start order; each span must either
    # start after the previous open span ends (sibling) or end within it
    # (child). Partial overlap means the span tree is corrupt. ts/dur are
    # serialized at microsecond %.3f precision, so boundaries can disagree
    # by a few nanoseconds of rounding; EPS absorbs that, nothing more.
    EPS = 5e-3
    by_tid = {}
    for e in spans:
        by_tid.setdefault(e["tid"], []).append(e)
    for tid, track in by_tid.items():
        track.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in track:
            end = e["ts"] + e["dur"]
            while stack and e["ts"] >= stack[-1] - EPS:
                stack.pop()
            if stack and end > stack[-1] + EPS:
                fail(
                    f"tid {tid}: span {e['name']!r} "
                    f"[{e['ts']:.3f}, {end:.3f}] overlaps its enclosing "
                    f"span's end {stack[-1]:.3f} without nesting"
                )
            stack.append(end)

    names = {e["name"] for e in spans}
    dag = "task" in names
    required = (
        ("task", "build", "simplify", "color")
        if dag
        else ("alloc", "pass", "build", "simplify", "color")
    )
    for name in required:
        # the IRC worklist interleaves simplification with coalescing in
        # one loop and spans the whole thing as 'coalesce'; an irc-only
        # trace legitimately has no 'simplify' span
        if name == "simplify" and "coalesce" in names:
            continue
        if name not in names:
            fail(f"no {name!r} span in the trace (have: {sorted(names)})")
    if dag:
        sched_counters = [
            e
            for e in events
            if e.get("ph") == "C" and str(e.get("name", "")).startswith("sched.")
        ]
        if not sched_counters:
            fail("DAG trace ('task' spans) has no 'sched.*' counter samples")

    tids = {e["tid"] for e in spans}
    if len(tids) > 1:
        root = "task" if dag else "alloc"
        main_tid = min(e["tid"] for e in spans if e["name"] == root)
        offloaded = [
            e
            for e in spans
            if e["name"] in ("scan", "task") and e["tid"] != main_tid
        ]
        if not offloaded:
            fail(
                f"{len(tids)} domains emitted spans but no pooled 'scan' or "
                "stolen 'task' span carries a worker tid"
            )

    n_counters = sum(1 for e in events if e.get("ph") == "C")
    print(
        f"check_trace: OK — {len(events)} events, {len(spans)} spans, "
        f"{n_counters} counter samples, {len(tids)} domain track(s), "
        f"phases: {', '.join(sorted(names))}"
    )


if __name__ == "__main__":
    if len(sys.argv) != 2:
        fail("usage: check_trace.py TRACE.json")
    main(sys.argv[1])
