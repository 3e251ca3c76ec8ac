#!/usr/bin/env python3
"""Summarize a klsm_bench Chrome-trace JSON (--trace output) on the
terminal: what ran, where the time went, and what the controllers did.

Sections:

  * per-subsystem event counts — the `cat` buckets the kind table in
    src/trace/trace_event.hpp assigns (dist_lsm, shared_lsm, adapt,
    mm, service, bench), broken down by event name;
  * span latency percentiles — p50/p90/p99/max of the `dur` of every
    ph:"X" event, per name (merge/publish latency distributions);
  * k-controller timeline — every k.grow/k.shrink/k.budget decision
    with its timestamp and k transition;
  * counter summary — min/mean/max of every ph:"C" track the metrics
    sampler exported.

Usage:
    trace_report.py trace.json [trace2.json ...]
    trace_report.py --self-test

Exits nonzero on a malformed document, so CI can use it as a
smoke-level loadability check on top of `check_report.py --trace`.
"""

import json
import sys

K_EVENTS = ("k.grow", "k.shrink", "k.budget")


def percentile(sorted_vals, p):
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1,
              int(p / 100.0 * len(sorted_vals)))
    return sorted_vals[idx]


def analyze(doc, path):
    if not isinstance(doc, dict) or \
            not isinstance(doc.get("traceEvents"), list):
        raise ValueError(f"{path}: not a Chrome-trace document")
    events = doc["traceEvents"]

    by_cat = {}
    spans = {}
    decisions = []
    counters = {}
    for ev in events:
        if not isinstance(ev, dict):
            raise ValueError(f"{path}: non-object trace event")
        ph = ev.get("ph")
        name = ev.get("name", "?")
        if ph == "M":
            continue
        if ph == "C":
            value = ev.get("args", {}).get("value")
            if not isinstance(value, (int, float)):
                raise ValueError(f"{path}: counter {name} without "
                                 f"numeric value")
            counters.setdefault(name, []).append(value)
            continue
        cat = ev.get("cat", "misc")
        by_cat.setdefault(cat, {}).setdefault(name, [0])[0] += 1
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{path}: span {name} with bad dur")
            spans.setdefault(name, []).append(dur)
        if name in K_EVENTS:
            args = ev.get("args", {})
            decisions.append((ev.get("ts", 0), name,
                              args.get("from"), args.get("to")))
    return by_cat, spans, decisions, counters


def report(doc, path):
    by_cat, spans, decisions, counters = analyze(doc, path)
    other = doc.get("otherData", {})
    print(f"== {path} ==")
    print(f"  events: {other.get('recorded_events', '?')} recorded, "
          f"{other.get('dropped_events', '?')} dropped, "
          f"{other.get('threads', '?')} thread(s)")

    print("  events by subsystem:")
    for cat in sorted(by_cat):
        total = sum(n for (n,) in by_cat[cat].values())
        print(f"    {cat:<12} {total:>10}")
        for name in sorted(by_cat[cat]):
            print(f"      {name:<24} {by_cat[cat][name][0]:>8}")

    if spans:
        print("  span durations (us):")
        print(f"    {'name':<24} {'count':>8} {'p50':>9} {'p90':>9} "
              f"{'p99':>9} {'max':>9}")
        for name in sorted(spans):
            vals = sorted(spans[name])
            print(f"    {name:<24} {len(vals):>8} "
                  f"{percentile(vals, 50):>9.2f} "
                  f"{percentile(vals, 90):>9.2f} "
                  f"{percentile(vals, 99):>9.2f} "
                  f"{vals[-1]:>9.2f}")

    if decisions:
        print("  k-controller timeline:")
        for ts, name, k_from, k_to in sorted(decisions):
            print(f"    {ts / 1e3:>10.2f} ms  {name:<10} "
                  f"k: {k_from} -> {k_to}")

    if counters:
        print("  counters:")
        for name in sorted(counters):
            vals = counters[name]
            print(f"    {name:<40} min {min(vals):>12.4g}  "
                  f"mean {sum(vals) / len(vals):>12.4g}  "
                  f"max {max(vals):>12.4g}")


def self_test():
    doc = {
        "traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "ts": 0, "args": {"name": "klsm_bench"}},
            {"name": "dist.publish", "cat": "dist_lsm", "ph": "X",
             "pid": 1, "tid": 0, "ts": 1.0, "dur": 2.5,
             "args": {"merged_blocks": 3}},
            {"name": "dist.publish", "cat": "dist_lsm", "ph": "X",
             "pid": 1, "tid": 1, "ts": 2.0, "dur": 7.5,
             "args": {"merged_blocks": 1}},
            {"name": "dist.spill", "cat": "dist_lsm", "ph": "i",
             "s": "t", "pid": 1, "tid": 0, "ts": 3.0,
             "args": {"level": 2, "items": 128}},
            {"name": "k.grow", "cat": "adapt", "ph": "i", "s": "t",
             "pid": 1, "tid": 0, "ts": 4.0,
             "args": {"from": 256, "to": 512}},
            {"name": "klsm/none/t2 ops_per_sec", "cat": "metrics",
             "ph": "C", "pid": 1, "tid": 0, "ts": 5.0,
             "args": {"value": 1e6}},
        ],
        "otherData": {"recorded_events": 4, "dropped_events": 0,
                      "threads": 2},
    }
    by_cat, spans, decisions, counters = analyze(doc, "<self-test>")
    assert by_cat["dist_lsm"]["dist.publish"][0] == 2
    assert by_cat["dist_lsm"]["dist.spill"][0] == 1
    assert sorted(spans["dist.publish"]) == [2.5, 7.5]
    assert percentile([2.5, 7.5], 50) == 7.5
    assert percentile([2.5, 7.5], 99) == 7.5
    assert percentile([], 99) == 0.0
    assert decisions == [(4.0, "k.grow", 256, 512)]
    assert counters["klsm/none/t2 ops_per_sec"] == [1e6]
    # Malformed documents must raise, not half-report.
    for bad in ({}, {"traceEvents": 3},
                {"traceEvents": [{"ph": "X", "name": "x"}]},
                {"traceEvents": [{"ph": "C", "name": "c",
                                  "args": {}}]}):
        try:
            analyze(bad, "<bad>")
        except ValueError:
            pass
        else:
            raise AssertionError(f"malformed doc accepted: {bad!r}")
    report(doc, "<self-test>")
    print("trace_report self-test OK")


def main(argv):
    if not argv:
        print(__doc__)
        return 2
    if argv[0] == "--self-test":
        self_test()
        return 0
    for path in argv:
        with open(path) as f:
            doc = json.load(f)
        report(doc, path)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (ValueError, AssertionError, json.JSONDecodeError) as e:
        print(f"trace_report FAIL: {e}", file=sys.stderr)
        sys.exit(1)
