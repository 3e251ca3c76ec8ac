#!/usr/bin/env python3
"""Validate klsm_bench JSON reports and Chrome-trace files.

One validator per record block, run on every record that carries the
block; the report's meta decides which blocks each record must carry
(BLOCKS).  The schema and every invariant checked here are documented
in one place: README "Report validation".

Usage:
    check_report.py report.json [report2.json ...] [--min-samples N]
    check_report.py --trace trace.json [trace2.json ...]
    check_report.py --bench path/to/klsm_bench SCENARIO [--smoke]
    check_report.py --self-test

--min-samples N requires every `timeseries` block to hold >= N rows.
--bench runs one acceptance scenario through the real binary and
validates its output: memory, churn, service, workloads or trace (see
SCENARIOS).  `churn --smoke` runs the soak at smoke scale, where the
RSS-plateau verdict is not enforced.  --self-test checks the validators
against synthetic records and needs no klsm_bench.

A failed check prints `FAIL: <where>: <what>` to stderr and exits 1.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter

FAMILY = ("klsm", "dlsm", "numa_klsm")      # structures with pools
DYNAMIC_K = ("klsm", "numa_klsm")           # structures --adaptive drives
POLICIES = ("none", "bind", "firsttouch")
RECLAIM_POLICIES = ("none", "freelist", "shrink", "full")
ARRIVALS = ("steady", "poisson", "spike", "diurnal")
OPS = ("insert", "delete_min")
PERCENTILES = ("min", "p50", "p90", "p99", "p999", "max")
POOL_COUNTERS = ("chunks bytes reuse_hits fresh_allocs growth_beyond_bound "
                 "bound_chunks prefaulted_chunks freelist_hits "
                 "freelist_drops reclaimed_chunks released_bytes "
                 "shrink_events reactivated_chunks huge_chunks thp_chunks")
TRACE_PHASES = ("X", "i", "I", "C", "M", "b", "e")   # Chrome-trace
EXPORTER_PHASES = ("X", "i", "C", "M")               # what we emit


class Invalid(Exception):
    """A failed check; str() is `<where>: <what>`."""


def need(ok, where, what):
    if not ok:
        raise Invalid(f"{where}: {what}")


def is_num(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def is_count(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


KINDS = {
    "count": (is_count, "a non-negative integer"),
    "num": (lambda v: is_num(v) and v >= 0, "a non-negative number"),
    "frac": (lambda v: is_num(v) and 0 <= v <= 1, "a number in [0, 1]"),
    "bool": (lambda v: isinstance(v, bool), "a bool"),
    "name": (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "items": (lambda v: isinstance(v, list) and v != [], "a non-empty list"),
}


def fields(where, obj, kind, names):
    """Each of the space-separated `names` in `obj` is of `kind`."""
    need(isinstance(obj, dict), where, f"{obj!r} is not an object")
    test, desc = KINDS[kind]
    for name in names.split():
        value = obj.get(name)
        need(test(value), f"{where}.{name}", f"{value!r} is not {desc}")


def pairs(where, entries):
    """A list of [non-negative int, non-negative int] pairs."""
    need(isinstance(entries, list), where, f"{entries!r} is not a list")
    for e in entries:
        need(isinstance(e, list) and len(e) == 2 and all(map(is_count, e)),
             where, f"entry {e!r} is not a pair of non-negative integers")


# ---- per-record block validators: (where, block, record, meta) ----

def histogram(where, op):
    """One op kind of `latency` or `service.intended` / `.completion`."""
    fields(where, op, "count", "count dropped_intervals")
    fields(where, op, "num", "mean " + " ".join(PERCENTILES))
    if op["count"] > 0:
        for lo, hi in zip(PERCENTILES, PERCENTILES[1:]):
            need(op[lo] <= op[hi], f"{where}.{hi}",
                 f"{op[hi]} below {lo} {op[lo]} (percentiles must be "
                 f"monotone)")
    pairs(f"{where}.buckets", op.get("buckets"))


def latency(where, lat, rec, meta):
    need(lat.get("unit") == "ns", f"{where}.unit", f"{lat.get('unit')!r}")
    fields(where, lat, "count", "sample_stride sub_bucket_bits")
    for op in OPS:
        histogram(f"{where}.{op}", lat.get(op))


def adaptation(where, a, rec, meta):
    fields(where, a, "count",
           "k_min k_max ticks shards k_initial k_final k_max_seen")
    fields(where, a, "items", "k_trajectory")
    fields(where, a, "list", "shard_decisions")
    fields(where, a, "dict", "contention")
    traj = a["k_trajectory"]
    pairs(f"{where}.k_trajectory", traj)
    need(traj[0][0] == 0, f"{where}.k_trajectory", "must start at tick 0")
    for (prev, _), (tick, _) in zip(traj, traj[1:]):
        need(tick > prev, f"{where}.k_trajectory",
             f"tick {tick} after {prev} (ticks must be monotone)")
    for _, k in traj:
        need(a["k_min"] <= k <= a["k_max"], f"{where}.k_trajectory",
             f"k {k} outside [k_min, k_max]")
    need(a["k_max_seen"] == max(k for _, k in traj), f"{where}.k_max_seen",
         f"{a['k_max_seen']} is not the trajectory's max")
    contention = f"{where}.contention"
    fields(contention, a["contention"], "count",
           "publishes publish_retries shared_hits local_hits spies")
    fields(contention, a["contention"], "num", "fail_rate_ewma")
    need(len(a["shard_decisions"]) == a["shards"],
         f"{where}.shard_decisions", f"{len(a['shard_decisions'])} logs "
         f"for {a['shards']} shards")
    if rec["structure"] == "klsm":      # the adaptor also drives buffering
        fields(where, a, "dict", "buffer")
        buf = a["buffer"]
        fields(f"{where}.buffer", buf, "count", "initial final max_seen")
        need(buf["initial"] == meta.get("insert_buffer"),
             f"{where}.buffer.initial", f"{buf['initial']} != the "
             f"insert_buffer meta {meta.get('insert_buffer')!r}")
        need(buf["max_seen"] >= buf["initial"], f"{where}.buffer.max_seen",
             "below buffer.initial")


def pool(where, p, resident_queried):
    fields(where, p, "count", POOL_COUNTERS)
    fields(where, p, "frac", "reuse_hit_rate freelist_hit_rate")
    # Gauges never exceed what exists; a chunk is huge or THP, not both.
    for part in ("bound_chunks", "prefaulted_chunks", "reclaimed_chunks"):
        need(p[part] <= p["chunks"], f"{where}.{part}", "exceeds chunks")
    need(p["released_bytes"] <= p["bytes"], f"{where}.released_bytes",
         "exceeds bytes")
    need(p["huge_chunks"] + p["thp_chunks"] <= p["chunks"],
         f"{where}.huge_chunks", "huge + thp chunks exceed chunks")
    need(p["chunks"] == 0 or p["bytes"] > 0, f"{where}.bytes",
         "0 although chunks were allocated")
    if resident_queried:
        pairs(f"{where}.resident_nodes", p.get("resident_nodes"))
        need(p.get("resident_unknown_pages", 0) >= 0,
             f"{where}.resident_unknown_pages", "negative")
    else:
        need("resident_nodes" not in p, f"{where}.resident_nodes",
             "present without resident_queried")


def memory(where, mem, rec, meta):
    need(mem.get("policy") == meta.get("numa_alloc"), f"{where}.policy",
         f"{mem.get('policy')!r} disagrees with the numa_alloc meta")
    fields(where, mem, "bool", "resident_queried")
    fields(where, mem, "dict", "pools")
    pools = mem["pools"]
    fields(f"{where}.pools", pools, "dict", "items dist_blocks shared_blocks")
    for name in ("items", "dist_blocks", "shared_blocks"):
        pool(f"{where}.pools.{name}", pools[name], mem["resident_queried"])
    # The paper's four-blocks-per-level bound is structural for the
    # DistLSM pools; the shared pools' safety valve is exempt.
    need(pools["dist_blocks"]["growth_beyond_bound"] == 0,
         f"{where}.pools.dist_blocks.growth_beyond_bound",
         "the DistLSM pool grew beyond four blocks per level")
    # Block pools allocate one block per allocating acquire.
    for name in ("dist_blocks", "shared_blocks"):
        p = pools[name]
        need(p["chunks"] == p["fresh_allocs"], f"{where}.pools.{name}.chunks",
             f"{p['chunks']} != fresh_allocs {p['fresh_allocs']}")


def memory_timeline(where, tl, rec, meta):
    fields(where, tl, "bool", "rss_reliable plateau_ok")
    fields(where, tl, "count", "shrink_events rss_high_water_bytes "
           "steady_rss_high_water_bytes final_rss_bytes "
           "pool_high_water_bytes")
    fields(where, tl, "num", "plateau_tolerance plateau_ratio")
    fields(where, tl, "items", "samples phases")
    need(tl["steady_rss_high_water_bytes"] <= tl["rss_high_water_bytes"],
         f"{where}.steady_rss_high_water_bytes",
         "exceeds rss_high_water_bytes")
    samples = tl["samples"]
    for i, s in enumerate(samples):
        sw = f"{where}.samples[{i}]"
        fields(sw, s, "count", "t_ns rss_bytes pool_bytes released_bytes "
               "reclaimed_chunks shrink_events freelist_hits phase")
        need(s["released_bytes"] <= s["pool_bytes"], f"{sw}.released_bytes",
             "exceeds pool_bytes")
        if i:
            for field in ("t_ns", "shrink_events"):    # both cumulative
                need(s[field] >= samples[i - 1][field], f"{sw}.{field}",
                     "went backwards")
    need(tl["shrink_events"] == samples[-1]["shrink_events"],
         f"{where}.shrink_events", "disagrees with the last sample")
    prev_end = 0
    for i, p in enumerate(tl["phases"]):
        pw = f"{where}.phases[{i}]"
        fields(pw, p, "name", "name")
        fields(pw, p, "bool", "bursty")
        fields(pw, p, "count", "index insert_percent start_t_ns end_t_ns "
               "inserts deletes failed_deletes")
        need(p["index"] == i, f"{pw}.index", "phase indices must be dense")
        need(p["start_t_ns"] <= p["end_t_ns"], f"{pw}.end_t_ns",
             "phase window inverted")
        need(p["start_t_ns"] >= prev_end, f"{pw}.start_t_ns",
             "overlaps the previous phase")
        prev_end = p["end_t_ns"]


def service(where, svc, rec, meta):
    need(svc.get("arrival") == meta.get("arrival"), f"{where}.arrival",
         f"{svc.get('arrival')!r} disagrees with the arrival meta")
    fields(where, svc, "num", "nominal_rate offered_rate achieved_rate "
           "duration_s mean_lateness_ns")
    fields(where, svc, "count", "scheduled_ops completed_ops late_ops "
           "late_grace_ns max_lateness_ns backlog_max sub_bucket_bits")
    need(svc.get("unit") == "ns", f"{where}.unit", f"{svc.get('unit')!r}")
    # Catch-up semantics: every scheduled arrival is served, always.
    need(svc["completed_ops"] == svc["scheduled_ops"],
         f"{where}.completed_ops", f"{svc['completed_ops']} != "
         f"scheduled_ops {svc['scheduled_ops']} (the harness shed load)")
    for field in ("late_ops", "backlog_max"):
        need(svc[field] <= svc["scheduled_ops"], f"{where}.{field}",
             "exceeds scheduled_ops")
    if svc["late_ops"] > 0:
        need(svc["max_lateness_ns"] >= svc["late_grace_ns"],
             f"{where}.max_lateness_ns", "late ops within the grace window")
        need(svc["mean_lateness_ns"] <= svc["max_lateness_ns"],
             f"{where}.mean_lateness_ns", "exceeds max_lateness_ns")
    for which in ("intended", "completion"):
        fields(where, svc, "dict", which)
        for op in OPS:
            histogram(f"{where}.{which}.{op}", svc[which].get(op))
    for op in OPS:
        intended, completion = svc["intended"][op], svc["completion"][op]
        need(intended["count"] == completion["count"],
             f"{where}.intended.{op}.count",
             f"{intended['count']} != completion {completion['count']}")
        # Arrival <= op start, so each intended sample dominates its
        # completion twin: the coordinated-omission signal.
        for pct in PERCENTILES if intended["count"] else ():
            need(intended[pct] >= completion[pct],
                 f"{where}.intended.{op}.{pct}",
                 f"{intended[pct]} below completion {completion[pct]}")


def slo(where, s, rec, meta):
    need(s.get("metric") == "intended_p99_ns", f"{where}.metric",
         f"{s.get('metric')!r}")
    fields(where, s, "num", "p99_threshold_ns offered_rate achieved_rate "
           "observed_p99_ns")
    fields(where, s, "bool", "latency_ok rate_ok pass")
    fraction = s.get("min_achieved_fraction")
    need(is_num(fraction) and 0 < fraction <= 1,
         f"{where}.min_achieved_fraction", f"{fraction!r} outside (0, 1]")
    need(s["pass"] == (s["latency_ok"] and s["rate_ok"]), f"{where}.pass",
         "disagrees with latency_ok && rate_ok")
    intended = rec["service"]["intended"]
    worst = max((intended[op]["p99"] for op in OPS
                 if intended[op]["count"] > 0), default=0)
    need(s["observed_p99_ns"] == worst, f"{where}.observed_p99_ns",
         f"{s['observed_p99_ns']} != the worst intended p99 {worst}")
    if "sustainable_rate" in s:
        fields(where, s, "num", "sustainable_rate")
        fields(where, s, "items", "probes")
        best = max((r for r, ok in s["probes"] if ok), default=0)
        need(s["sustainable_rate"] == best, f"{where}.sustainable_rate",
             f"{s['sustainable_rate']} != the best passing probe {best}")


def bnb(where, b, rec, meta):
    fields(where, b, "count", "items capacity optimum best expanded "
           "wasted_expansions pruned_pops pushed failed_pops")
    fields(where, b, "bool", "match")
    fields(where, b, "num", "time_to_optimum_s")
    # Relaxation may only waste work, never lose the optimum.
    need(b["match"] and b["best"] == b["optimum"], f"{where}.best",
         f"{b['best']} != optimum {b['optimum']} (or match is false)")
    need(b["wasted_expansions"] <= b["expanded"],
         f"{where}.wasted_expansions", "exceeds expanded")
    need(b["pushed"] == b["expanded"] + b["pruned_pops"], f"{where}.pushed",
         f"{b['pushed']} != expanded + pruned_pops "
         f"{b['expanded'] + b['pruned_pops']} (the drain leaked work)")
    # The record-level scalars mirror the block (which is printed at
    # lower float precision, so the time check is approximate).
    need(rec.get("expanded") == b["expanded"], f"{where}.expanded",
         f"disagrees with the record's {rec.get('expanded')!r}")
    t, rec_t = b["time_to_optimum_s"], rec.get("time_to_optimum_s")
    need(is_num(rec_t) and abs(rec_t - t) <= 1e-4 + 1e-3 * max(rec_t, t),
         f"{where}.time_to_optimum_s",
         f"{t} disagrees with the record's {rec_t!r}")


def des(where, d, rec, meta):
    fields(where, d, "count", "lps population target_events committed "
           "scheduled failed_pops violations lookahead mean_delay max_lag "
           "virtual_time")
    fields(where, d, "frac", "violation_fraction budget")
    fields(where, d, "bool", "budget_ok")
    need(d["committed"] >= d["target_events"], f"{where}.committed",
         f"{d['committed']} below target_events {d['target_events']}")
    need(d["violations"] <= d["committed"], f"{where}.violations",
         "exceeds committed")
    fraction = d["violations"] / d["committed"] if d["committed"] else 0
    need(abs(d["violation_fraction"] - fraction) < 1e-6,
         f"{where}.violation_fraction",
         f"{d['violation_fraction']} != violations/committed {fraction}")
    need(d["budget_ok"] == (d["violation_fraction"] <= d["budget"]),
         f"{where}.budget_ok", "disagrees with violation_fraction <= budget")
    need(d["violations"] == 0 or d["max_lag"] > 0, f"{where}.max_lag",
         "0 although violations were recorded")
    eps = rec.get("events_per_sec")
    need(is_num(eps) and eps > 0, f"{where}.events_per_sec", f"{eps!r}")


def timeseries(where, ts, rec, meta):
    fields(where, ts, "num", "requested_interval_ms interval_ms")
    need(ts["interval_ms"] > 0, f"{where}.interval_ms", "not positive")
    need(ts["interval_ms"] <= ts["requested_interval_ms"] + 1e-9,
         f"{where}.interval_ms", "exceeds requested_interval_ms")
    fields(where, ts, "items", "columns")
    fields(where, ts, "list", "samples")
    columns = ts["columns"]
    for c, col in enumerate(columns):
        fields(f"{where}.columns[{c}]", col, "name", "name")
        need(col.get("kind") in ("counter", "gauge"),
             f"{where}.columns[{c}].kind", f"{col.get('kind')!r}")
    prev = None
    for r, row in enumerate(ts["samples"]):
        rw = f"{where}.samples[{r}]"
        need(isinstance(row, list) and len(row) == len(columns) + 1, rw,
             f"row is not [t, one value per {len(columns)} columns]")
        need(all(map(is_num, row)) and row[0] >= 0, rw,
             "non-finite value or negative timestamp")
        if prev is not None:
            need(row[0] > prev[0], rw, f"t {row[0]} not after {prev[0]}")
            for c, col in enumerate(columns):
                need(col["kind"] == "gauge" or row[c + 1] >= prev[c + 1],
                     f"{rw}.{col['name']}", f"counter went backwards "
                     f"({prev[c + 1]} -> {row[c + 1]})")
        prev = row


def workload_is(name):
    return lambda meta, rec: rec["workload"] == name


# block -> (does a record carry it, given the meta?, validator).  A
# record carries each block exactly when its rule says so.
BLOCKS = {
    "latency": (lambda meta, rec: meta.get("latency_sample", 0) > 0
                and rec["workload"] != "churn", latency),
    "adaptation": (lambda meta, rec: meta.get("adaptive") is True
                   and rec["structure"] in DYNAMIC_K
                   and rec["workload"] != "churn", adaptation),
    "memory": (lambda meta, rec: meta.get("alloc_stats") is True
               and rec["structure"] in FAMILY, memory),
    "memory_timeline": (workload_is("churn"), memory_timeline),
    "service": (workload_is("service"), service),
    "slo": (workload_is("service"), slo),
    "bnb": (workload_is("bnb"), bnb),
    "des": (workload_is("des"), des),
    "timeseries": (lambda meta, rec: meta.get("metrics_interval_ms", 0) > 0
                   and rec["workload"] != "sssp", timeseries),
}
# A meta switch that is on must show up in at least one record.
SWITCHES = {"alloc_stats": "memory", "adaptive": "adaptation",
            "metrics_interval_ms": "timeseries"}


def validate(report, path, min_samples=0):
    """Check one klsm_bench report; returns {block: records carrying it}."""
    fields(path, report, "name", "benchmark")
    fields(path, report, "items", "records")
    selection = report["benchmark"].split(",")
    need(report.get("numa_alloc") in POLICIES, f"{path}.numa_alloc",
         f"{report.get('numa_alloc')!r}")
    need(report.get("reclaim") in RECLAIM_POLICIES, f"{path}.reclaim",
         f"{report.get('reclaim')!r}")
    if "service" in selection:
        need(report.get("arrival") in ARRIVALS, f"{path}.arrival",
             f"{report.get('arrival')!r}")
    seen = Counter()
    for i, rec in enumerate(report["records"]):
        where = f"{path}:records[{i}]"
        fields(where, rec, "name", "structure workload")
        where += f"({rec['structure']})"
        need(rec["workload"] in selection, f"{where}.workload",
             f"{rec['workload']!r} not in the benchmark meta {selection}")
        for name, (rule, check) in BLOCKS.items():
            wanted = bool(rule(report, rec))
            need((name in rec) == wanted, f"{where}.{name}", "missing"
                 if wanted else "present although the meta asks for none")
            if wanted:
                fields(where, rec, "dict", name)
                check(f"{where}.{name}", rec[name], rec, report)
                seen[name] += 1
        if "timeseries" in rec:
            n = len(rec["timeseries"]["samples"])
            need(n >= min_samples, f"{where}.timeseries.samples",
                 f"{n} rows < required {min_samples}")
    for wl in selection:
        need(any(r["workload"] == wl for r in report["records"]), path,
             f"no {wl} records")
    for switch, block in SWITCHES.items():
        need(not report.get(switch) or seen[block], path,
             f"{switch} is on but no record carries {block}")
    return seen


def check_trace(doc, path):
    """Check one Chrome-trace file; returns (span+instant, counter) counts."""
    fields(path, doc, "items", "traceEvents")
    fields(path, doc, "dict", "otherData")
    fields(f"{path}.otherData", doc["otherData"], "count",
           "recorded_events dropped_events threads")
    last_ts = None
    counts = Counter()
    for i, ev in enumerate(doc["traceEvents"]):
        where = f"{path}:traceEvents[{i}]"
        fields(where, ev, "name", "name")
        ph = ev.get("ph")
        need(ph in TRACE_PHASES, f"{where}.ph", f"{ph!r} invalid")
        need(ph in EXPORTER_PHASES, f"{where}.ph",
             f"{ph!r} is Chrome-trace but not what the exporter emits")
        fields(where, ev, "count", "pid tid")
        fields(where, ev, "num", "ts")
        if ph == "M":
            continue
        need(last_ts is None or ev["ts"] >= last_ts, f"{where}.ts",
             f"{ev['ts']} < previous {last_ts} (events must be time-sorted)")
        last_ts = ev["ts"]
        if ph == "X":
            fields(where, ev, "num", "dur")
        elif ph == "i":
            need(ev.get("s") in ("t", "p", "g"), f"{where}.s",
                 f"instant scope {ev.get('s')!r} invalid")
        else:
            args = ev.get("args")
            need(isinstance(args, dict) and is_num(args.get("value")),
                 f"{where}.args.value", "counter without a numeric value")
        counts[ph] += 1
    spans = counts["X"] + counts["i"]
    need(spans == doc["otherData"]["recorded_events"],
         f"{path}.otherData.recorded_events",
         f"{doc['otherData']['recorded_events']} but {spans} span/instant "
         f"events exported")
    return spans, counts["C"]


def soak_verdicts(report, path, enforce_plateau):
    """The churn soak's gates beyond schema validity."""
    for i, rec in enumerate(report["records"]):
        if rec["structure"] not in FAMILY:
            continue
        tl = rec["memory_timeline"]
        where = f"{path}:records[{i}].memory_timeline"
        need(tl["shrink_events"] >= 1, f"{where}.shrink_events",
             "the soak must observe at least one shrink event")
        need(not (enforce_plateau and tl["rss_reliable"]) or tl["plateau_ok"],
             f"{where}.plateau_ok", f"final RSS {tl['final_rss_bytes']} is "
             f"{tl['plateau_ratio']:.2f}x the steady-phase high-water "
             f"{tl['steady_rss_high_water_bytes']} (tolerance "
             f"{tl['plateau_tolerance']})")


# ---- --bench acceptance scenarios ----

def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise Invalid(f"{path}: {e}")


def run(bench, args, label):
    """Run klsm_bench with --json-out - and parse its stdout.  The bench's
    stderr is shown only when the bench itself fails."""
    cmd = [bench, *args, "--json-out", "-"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise Invalid(f"{label}: `{' '.join(cmd)}` exited {proc.returncode}")
    # Stdout purity: exactly one JSON document, even with tracing on.
    text = proc.stdout.strip()
    need(text.startswith("{") and text.endswith("}"), label,
         "stdout is not a single JSON object")
    try:
        return json.loads(text)
    except ValueError as e:
        raise Invalid(f"{label}: stdout is not JSON ({e})")


def accept(bench, label, args, blocks, min_samples=0):
    """Run, validate, and require each of `blocks` in some record."""
    report = run(bench, args, label)
    seen = validate(report, label, min_samples)
    for block in blocks.split():
        need(seen[block], label, f"no record carries {block}")
    print(f"OK: {label}: {len(report['records'])} record(s)")
    return report


def bench_memory(bench, smoke):
    accept(bench, "<memory run>", ["--structure", "numa_klsm", "--pin",
           "compact", "--smoke", "--alloc-stats", "--numa-alloc", "bind"],
           "memory latency")


def bench_churn(bench, smoke):
    # Smoke miniatures are too small for a meaningful RSS plateau
    # (process overheads dominate); the shrink-event gate still applies.
    args = ["--workload", "churn", "--structure", "klsm", "--threads", "4",
            "--alloc-stats"] + (["--smoke"] if smoke else [])
    report = accept(bench, "<churn run>", args, "memory memory_timeline")
    soak_verdicts(report, "<churn run>", enforce_plateau=not smoke)


def bench_service(bench, smoke):
    accept(bench, "<service run>", ["--workload", "service", "--structure",
           "klsm,numa_klsm", "--arrival", "poisson", "--rate", "500000",
           "--smoke"], "service slo latency")


def klsm_block(report, workload):
    for r in report["records"]:
        if r["structure"] == "klsm" and r["workload"] == workload:
            return r[workload]
    raise Invalid(f"k-sensitivity probe: no klsm {workload} record")


def bench_workloads(bench, smoke):
    for sel, structures in (("bnb", "klsm,multiqueue"),
                            ("des", "klsm,multiqueue"), ("bnb,des", "klsm")):
        label = f"<{sel} run>"
        report = accept(bench, label, ["--smoke", "--workload", sel,
                        "--structure", structures], sel.replace(",", " "))
        need(report["benchmark"] == sel, f"{label}.benchmark",
             f"{report['benchmark']!r}, expected {sel!r}")
    # Relaxation must be visible: at k=4096 the klsm must expand more bnb
    # nodes and commit more des violations than at k=16.  One seed can be
    # noisy (scheduling quanta on a few CPUs drive the interleaving), so
    # the direction has to hold for one of three seeds; equality across
    # all of them means k does not reach the workloads.
    for seed in ("1", "7", "13"):
        tight, loose = (accept(bench, f"<k={k} seed {seed}>", ["--smoke",
                        "--workload", "bnb,des", "--structure", "klsm",
                        "--k", k, "--seed", seed], "bnb des")
                        for k in ("16", "4096"))
        bnb_t, bnb_l = (klsm_block(r, "bnb")["expanded"]
                        for r in (tight, loose))
        des_t, des_l = (klsm_block(r, "des")["violation_fraction"]
                        for r in (tight, loose))
        print(f"  seed {seed}: bnb expanded {bnb_t} -> {bnb_l}, des "
              f"violation fraction {des_t:.4f} -> {des_l:.4f}")
        if bnb_l > bnb_t and des_l > des_t:
            return
    raise Invalid("k-sensitivity probe: k=16 and k=4096 are "
                  "indistinguishable for every seed")


def bench_trace(bench, smoke):
    with tempfile.TemporaryDirectory() as tmp:
        # Smoke throughput runs ~50 ms; the driver clamps the sampling
        # period so the series still carries >= 10 rows.  The adaptive
        # quality run exercises the controller-decision and online-rank
        # probes.
        for name, extra, blocks, min_samples in (
                ("throughput", ["--metrics-interval", "50ms"], "", 10),
                ("quality", ["--adaptive", "--metrics-interval", "2ms"],
                 "adaptation", 2)):
            label, out = f"<traced {name} run>", os.path.join(tmp, name)
            report = accept(bench, label, ["--workload", name, "--structure",
                            "klsm", "--threads", "2", "--smoke", *extra,
                            "--trace", "--trace-out", out],
                            "timeseries " + blocks, min_samples)
            need(report.get("trace") is True, f"{label}.trace",
                 "meta flag missing")
            spans, counters = check_trace(load(out), f"<{name} trace>")
            need(spans > 0, f"<{name} trace>", "no events recorded")
            need(name != "throughput" or counters > 0, f"<{name} trace>",
                 "metrics sampling on but no counter tracks exported")
            print(f"OK: <{name} trace>: {spans} events, {counters} counter "
                  f"points")


SCENARIOS = {"memory": bench_memory, "churn": bench_churn,
             "service": bench_service, "workloads": bench_workloads,
             "trace": bench_trace}


def main(argv):
    try:
        return dispatch(argv)
    except Invalid as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1


def dispatch(argv):
    if argv == ["--self-test"]:
        return self_test()
    if argv[:1] == ["--bench"] and len(argv) >= 3 and argv[2] in SCENARIOS \
            and set(argv[3:]) <= {"--smoke"}:
        SCENARIOS[argv[2]](argv[1], "--smoke" in argv[3:])
        return 0
    if argv[:1] == ["--trace"] and len(argv) > 1:
        for path in argv[1:]:
            spans, counters = check_trace(load(path), path)
            print(f"OK: {path}: {spans} events, {counters} counter points")
        return 0
    min_samples, paths = 0, list(argv)
    if "--min-samples" in paths:
        i = paths.index("--min-samples")
        if i + 1 < len(paths) and paths[i + 1].isdigit():
            min_samples = int(paths.pop(i + 1))
            paths.pop(i)
    if not paths or any(p.startswith("--") for p in paths):
        print(__doc__, file=sys.stderr)
        return 2
    for path in paths:
        seen = validate(load(path), path, min_samples)
        print(f"OK: {path}: {', '.join(sorted(seen))}")
    return 0


# ---- --self-test: the validators against synthetic records ----

DROP = object()      # a mutation value: delete the key / list entry


def hist(base):
    """A valid per-op histogram of four samples from `base` ns."""
    return {"count": 4, "mean": base + 2, "min": base, "p50": base + 1,
            "p90": base + 2, "p99": base + 3, "p999": base + 3,
            "max": base + 4, "dropped_intervals": 0,
            "buckets": [[base, 1], [base + 4, 3]]}


def samples():
    """One small valid report per shape, plus a trace document."""
    lat = {"unit": "ns", "sample_stride": 4, "sub_bucket_bits": 5,
           "insert": hist(10), "delete_min": hist(10)}
    meta = {"numa_alloc": "bind", "reclaim": "full", "latency_sample": 4,
            "insert_buffer": 16, "adaptive": False, "alloc_stats": False,
            "metrics_interval_ms": 0}
    pool = {**dict.fromkeys(POOL_COUNTERS.split(), 0), "chunks": 2,
            "bytes": 4096, "fresh_allocs": 2, "thp_chunks": 1,
            "reuse_hit_rate": 0.5, "freelist_hit_rate": 0.0,
            "resident_nodes": [[0, 1]]}
    mem = {"policy": "bind", "resident_queried": True,
           "pools": dict.fromkeys(("items", "dist_blocks", "shared_blocks"),
                                  pool)}
    adapt = {"k_min": 16, "k_max": 4096, "ticks": 3, "shards": 1,
             "k_initial": 256, "k_final": 128, "k_max_seen": 256,
             "k_trajectory": [[0, 256], [2, 128]], "shard_decisions": [{}],
             "contention": {"publishes": 9, "publish_retries": 1,
                            "shared_hits": 5, "local_hits": 7, "spies": 0,
                            "fail_rate_ewma": 0.1},
             "buffer": {"initial": 16, "final": 8, "max_seen": 17}}
    series = {"requested_interval_ms": 50, "interval_ms": 10,
              "columns": [{"name": "ops", "kind": "counter"},
                          {"name": "k", "kind": "gauge"}],
              "samples": [[0, 0, 256], [0.01, 5, 128], [0.02, 9, 200]]}
    sample = {"t_ns": 1, "rss_bytes": 800, "pool_bytes": 400,
              "released_bytes": 100, "reclaimed_chunks": 1,
              "shrink_events": 1, "freelist_hits": 3, "phase": 0}
    phase = {"index": 0, "name": "steady", "insert_percent": 50,
             "bursty": False, "start_t_ns": 0, "end_t_ns": 10,
             "inserts": 5, "deletes": 5, "failed_deletes": 0}
    timeline = {"rss_reliable": True, "plateau_ok": True,
                "shrink_events": 2, "rss_high_water_bytes": 900,
                "steady_rss_high_water_bytes": 800, "final_rss_bytes": 850,
                "pool_high_water_bytes": 400, "plateau_tolerance": 0.25,
                "plateau_ratio": 1.06,
                "samples": [sample, {**sample, "t_ns": 2,
                                     "shrink_events": 2}],
                "phases": [phase, {**phase, "index": 1, "start_t_ns": 10,
                                   "end_t_ns": 20}]}
    svc = {"arrival": "poisson", "nominal_rate": 1000, "offered_rate": 990,
           "achieved_rate": 990, "duration_s": 0.05,
           "mean_lateness_ns": 2000, "scheduled_ops": 50,
           "completed_ops": 50, "late_ops": 2, "late_grace_ns": 1000,
           "max_lateness_ns": 3000, "backlog_max": 3, "unit": "ns",
           "sub_bucket_bits": 5, "intended": dict.fromkeys(OPS, hist(20)),
           "completion": dict.fromkeys(OPS, hist(10))}
    slo = {"metric": "intended_p99_ns", "p99_threshold_ns": 50000,
           "min_achieved_fraction": 0.9, "offered_rate": 990,
           "achieved_rate": 990, "observed_p99_ns": 23, "latency_ok": True,
           "rate_ok": True, "pass": True, "sustainable_rate": 2000,
           "probes": [[1000, True], [2000, True], [4000, False]]}
    bnb_block = {"items": 30, "capacity": 100, "optimum": 77, "best": 77,
                 "match": True, "expanded": 10, "wasted_expansions": 3,
                 "pruned_pops": 5, "pushed": 15, "failed_pops": 1,
                 "time_to_optimum_s": 0.001}
    des_block = {"lps": 4, "population": 64, "target_events": 100,
                 "committed": 100, "scheduled": 164, "failed_pops": 0,
                 "violations": 5, "lookahead": 0, "mean_delay": 3,
                 "max_lag": 7, "virtual_time": 1000,
                 "violation_fraction": 0.05, "budget": 0.1,
                 "budget_ok": True}
    trace = {"traceEvents": [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0, "ts": 0},
        {"name": "dist.merge", "ph": "X", "pid": 1, "tid": 0, "ts": 1,
         "dur": 2},
        {"name": "k.shrink", "ph": "i", "s": "t", "pid": 1, "tid": 0,
         "ts": 2},
        {"name": "ops_per_sec", "ph": "C", "pid": 1, "tid": 0, "ts": 3,
         "args": {"value": 5}}],
        "otherData": {"recorded_events": 2, "dropped_events": 0,
                      "threads": 1}}
    reports = {
        "throughput": {**meta, "benchmark": "throughput", "adaptive": True,
                       "alloc_stats": True, "metrics_interval_ms": 10,
                       "records": [
                           {"workload": "throughput", "structure": "klsm",
                            "latency": lat, "adaptation": adapt,
                            "memory": mem, "timeseries": series},
                           {"workload": "throughput", "structure": "heap",
                            "latency": lat, "timeseries": series}]},
        "churn": {**meta, "benchmark": "churn", "alloc_stats": True,
                  "records": [{"workload": "churn", "structure": "klsm",
                               "memory": mem,
                               "memory_timeline": timeline}]},
        "service": {**meta, "benchmark": "service", "arrival": "poisson",
                    "records": [{"workload": "service", "structure": "klsm",
                                 "latency": lat, "service": svc,
                                 "slo": slo}]},
        "bnb,des": {**meta, "benchmark": "bnb,des", "records": [
            {"workload": "bnb", "structure": "klsm", "latency": lat,
             "expanded": 10, "time_to_optimum_s": 0.001, "bnb": bnb_block},
            {"workload": "des", "structure": "klsm", "latency": lat,
             "events_per_sec": 1e6, "des": des_block}]},
        "trace": trace}
    return json.loads(json.dumps(reports))     # no shared sub-objects


def check_sample(name, doc):
    if name == "trace":
        check_trace(doc, name)
        return
    validate(doc, name)
    if name == "churn":
        soak_verdicts(doc, name, enforce_plateau=True)


R0, R1 = "records.0.", "records.1."
MEM, POOL = R0 + "memory.", R0 + "memory.pools.items."
TL, SVC = R0 + "memory_timeline.", R0 + "service."
ADAPT, SERIES = R0 + "adaptation.", R0 + "timeseries."
# (sample, {dotted path: new value}, text the rejection must contain):
# one entry per check, every cross-field invariant included.
MUTATIONS = [
    ("throughput", {R0 + "latency.insert.p90": 9}, "insert.p90: 9 below"),
    ("throughput", {R0 + "latency.delete_min.buckets": [[1]]}, "buckets"),
    ("throughput", {R0 + "latency.insert.count": -1}, "insert.count"),
    ("throughput", {R0 + "latency.unit": "us"}, "latency.unit"),
    ("throughput", {ADAPT + "k_trajectory": [[1, 256]]}, "tick 0"),
    ("throughput", {ADAPT + "k_trajectory.1.0": 0}, "monotone"),
    ("throughput", {ADAPT + "k_trajectory.1.1": 8}, "outside [k_min"),
    ("throughput", {ADAPT + "k_max_seen": 512}, "k_max_seen"),
    ("throughput", {ADAPT + "shard_decisions": []}, "shard_decisions"),
    ("throughput", {ADAPT + "contention.spies": DROP}, "contention.spies"),
    ("throughput", {ADAPT + "buffer.initial": 8}, "buffer.initial"),
    ("throughput", {ADAPT + "buffer.max_seen": 4}, "buffer.max_seen"),
    ("throughput", {ADAPT + "buffer": DROP}, "adaptation.buffer"),
    ("throughput", {MEM + "policy": "none"}, "memory.policy"),
    ("throughput", {MEM + "pools.dist_blocks.chunks": 3},
     "dist_blocks.chunks: 3 != fresh_allocs"),
    ("throughput", {MEM + "pools.shared_blocks.fresh_allocs": 5},
     "shared_blocks.chunks: 2 != fresh_allocs"),
    ("throughput", {MEM + "pools.dist_blocks.growth_beyond_bound": 1},
     "growth_beyond_bound"),
    ("throughput", {MEM + "pools.shared_blocks": DROP}, "shared_blocks"),
    ("throughput", {POOL + "bound_chunks": 3}, "items.bound_chunks"),
    ("throughput", {POOL + "prefaulted_chunks": 3}, "prefaulted_chunks"),
    ("throughput", {POOL + "reclaimed_chunks": 3}, "reclaimed_chunks"),
    ("throughput", {POOL + "released_bytes": 5000}, "released_bytes"),
    ("throughput", {POOL + "huge_chunks": 2}, "huge + thp"),
    ("throughput", {POOL + "bytes": 0}, "items.bytes"),
    ("throughput", {POOL + "reuse_hit_rate": 1.5}, "reuse_hit_rate"),
    ("throughput", {POOL + "resident_nodes": [[0]]}, "resident_nodes"),
    ("throughput", {POOL + "resident_unknown_pages": -1},
     "resident_unknown_pages"),
    ("throughput", {MEM + "resident_queried": False},
     "resident_nodes: present"),
    ("throughput", {R1 + "memory": {}}, "(heap).memory: present"),
    ("throughput", {R0 + "memory": DROP}, "memory: missing"),
    ("throughput", {"alloc_stats": False}, "memory: present"),
    ("throughput", {R0 + "latency": DROP}, "latency: missing"),
    ("throughput", {"metrics_interval_ms": 0}, "timeseries: present"),
    ("throughput", {"numa_alloc": "interleave"}, "numa_alloc"),
    ("throughput", {"reclaim": "lru"}, "reclaim"),
    ("throughput", {"records": []}, "records"),
    ("throughput", {"records.1": 5}, "records[1]: 5 is not an object"),
    ("throughput", {SERIES + "interval_ms": 60}, "interval_ms: exceeds"),
    ("throughput", {SERIES + "interval_ms": 0}, "interval_ms: not positive"),
    ("throughput", {SERIES + "samples.0.0": -1}, "samples[0]: non-finite"),
    ("throughput", {SERIES + "samples.1": [0.01, 5]}, "samples[1]: row"),
    ("throughput", {SERIES + "samples.1.0": 0}, "samples[1]: t 0 not"),
    ("throughput", {SERIES + "samples.2.1": 4}, "samples[2].ops: counter"),
    ("throughput", {SERIES + "columns.0.kind": "rate"}, "columns[0].kind"),
    ("service", {"adaptive": True, R0 + "structure": "heap"},
     "adaptive is on"),
    ("service", {R0 + "workload": "throughput"}, ".workload"),
    ("service", {"arrival": "burst"}, "service.arrival"),
    ("service", {SVC + "arrival": "steady"}, "service.arrival"),
    ("service", {SVC + "unit": "us"}, "service.unit"),
    ("service", {SVC + "completed_ops": 49}, "completed_ops"),
    ("service", {SVC + "late_ops": 51}, "late_ops"),
    ("service", {SVC + "backlog_max": 51}, "backlog_max"),
    ("service", {SVC + "max_lateness_ns": 500}, "max_lateness_ns"),
    ("service", {SVC + "mean_lateness_ns": 4000}, "mean_lateness_ns"),
    ("service", {SVC + "intended.insert.count": 5},
     "intended.insert.count"),
    ("service", {SVC + "completion.insert.max": 30}, "intended.insert.max"),
    ("service", {R0 + "slo.pass": False}, "slo.pass"),
    ("service", {R0 + "slo.observed_p99_ns": 99}, "observed_p99_ns"),
    ("service", {R0 + "slo.sustainable_rate": 4000}, "sustainable_rate"),
    ("service", {R0 + "slo.probes": []}, "slo.probes"),
    ("service", {R0 + "slo.min_achieved_fraction": 0},
     "min_achieved_fraction"),
    ("service", {R0 + "slo.metric": "p99"}, "slo.metric"),
    ("bnb,des", {R1[:-1]: DROP}, "no des records"),
    ("bnb,des", {R0 + "bnb.best": 70}, "bnb.best"),
    ("bnb,des", {R0 + "bnb.match": False}, "bnb.best"),
    ("bnb,des", {R0 + "bnb.wasted_expansions": 11}, "wasted_expansions"),
    ("bnb,des", {R0 + "bnb.pushed": 16}, "bnb.pushed"),
    ("bnb,des", {R0 + "expanded": 11}, "bnb.expanded"),
    ("bnb,des", {R0 + "time_to_optimum_s": 0.5}, "time_to_optimum_s"),
    ("bnb,des", {R1 + "des.committed": 99}, "des.committed"),
    ("bnb,des", {R1 + "des.violations": 101}, "des.violations"),
    ("bnb,des", {R1 + "des.violation_fraction": 0.07},
     "violation_fraction"),
    ("bnb,des", {R1 + "des.budget_ok": False}, "budget_ok"),
    ("bnb,des", {R1 + "des.max_lag": 0}, "max_lag"),
    ("bnb,des", {R1 + "events_per_sec": 0}, "events_per_sec"),
    ("churn", {TL + "steady_rss_high_water_bytes": 1000},
     "steady_rss_high_water_bytes"),
    ("churn", {TL + "samples.1.t_ns": 0}, "samples[1].t_ns"),
    ("churn", {TL + "samples.1.shrink_events": 0},
     "samples[1].shrink_events"),
    ("churn", {TL + "samples.0.released_bytes": 500},
     "samples[0].released_bytes"),
    ("churn", {TL + "shrink_events": 3}, "shrink_events: disagrees"),
    ("churn", {TL + "samples": []}, "memory_timeline.samples"),
    ("churn", {TL + "phases.1.index": 2}, "phases[1].index"),
    ("churn", {TL + "phases.1.end_t_ns": 8}, "phases[1].end_t_ns"),
    ("churn", {TL + "phases.1.start_t_ns": 5}, "phases[1].start_t_ns"),
    ("churn", {TL + "plateau_ok": False}, "plateau_ok"),
    ("churn", {TL + "shrink_events": 0, TL + "samples.0.shrink_events": 0,
               TL + "samples.1.shrink_events": 0}, "at least one shrink"),
    ("churn", {R0 + "workload": "throughput"}, ".workload"),
    ("trace", {"traceEvents.2.ts": 0.5}, "traceEvents[2].ts"),
    ("trace", {"otherData.recorded_events": 3}, "recorded_events"),
    ("trace", {"traceEvents.1.ph": "B"}, "traceEvents[1].ph"),
    ("trace", {"traceEvents.1.ph": "b"}, "not what the exporter emits"),
    ("trace", {"traceEvents.1.dur": -1}, "traceEvents[1].dur"),
    ("trace", {"traceEvents.2.s": "x"}, "traceEvents[2].s"),
    ("trace", {"traceEvents.3.args": {}}, "traceEvents[3].args.value"),
    ("trace", {"traceEvents": []}, "traceEvents"),
    ("trace", {"traceEvents.1": 5}, "traceEvents[1]: 5 is not an object"),
]


def mutate(doc, path, value):
    *parents, last = (int(k) if k.isdigit() else k for k in path.split("."))
    for key in parents:
        doc = doc[key]
    if value is DROP:
        del doc[last]
    else:
        doc[last] = value


def self_test():
    failures = []
    for name, doc in samples().items():
        try:
            check_sample(name, doc)
        except Invalid as e:
            failures.append(f"valid {name} sample rejected: {e}")
    for name, changes, expected in MUTATIONS:
        doc = samples()[name]
        for path, value in changes.items():
            mutate(doc, path, value)
        try:
            check_sample(name, doc)
            failures.append(f"{name} {changes}: accepted")
        except Invalid as e:
            if expected not in str(e):
                failures.append(f"{name} {changes}: `{e}` does not name "
                                f"{expected!r}")
    try:
        validate(samples()["throughput"], "t", min_samples=4)
        failures.append("--min-samples 4 accepted a 3-row timeseries")
    except Invalid as e:
        if "3 rows < required 4" not in str(e):
            failures.append(f"--min-samples: {e}")
    # End to end through main(): exit codes and the one-line FAIL format.
    with tempfile.TemporaryDirectory() as tmp:
        bad = samples()["service"]
        mutate(bad, SVC + "completed_ops", 49)
        for doc, args, want_rc in ((samples()["service"], [], 0), (bad, [], 1),
                                   (None, ["--min-samples"], 2)):
            path = os.path.join(tmp, "report.json")
            with open(path, "w") as f:
                json.dump(doc, f)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = main([path, *args])
            lines = err.getvalue().splitlines()
            if rc != want_rc or rc == 1 and (
                    len(lines) != 1 or not lines[0].startswith("FAIL: ")):
                failures.append(f"main({args}) exited {rc}: {lines[:2]}")
    for failure in failures:
        print(f"self-test FAIL: {failure}")
    print(f"self-test: {len(samples())} valid samples, {len(MUTATIONS)} "
          f"mutations, {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
