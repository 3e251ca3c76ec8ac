#!/usr/bin/env python3
"""Repository benchmark entry point (see README.md next to this file).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Builds perfbench/ (and the library
units it needs from src/) with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs the benchmark binary, checks that it
reported every metric BENCHMARK.json names with the declared unit, and
prints two lines: the full record (metrics, per-repetition samples,
provenance, counters) and, last, the summary

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer ones
(--trace 1).  Exits non-zero without a summary when the build or the run
fails.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_LIMIT_S = 700  # the first build in a checkout; later ones are no-ops
RUN_LIMIT_S = 170    # one measured run
# Workloads klsm_perf runs that BENCHMARK.json leaves out, because the
# library's outputs on them are wrong (README.md, "Workloads").  They run
# and report like the others, "correct": false included.
UNGATED_WORKLOADS = ["sssp_er1m"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    target = target.resolve()
    if ROOT not in target.parents and target != ROOT:
        target = ROOT / ".bench_build"
    return target / "perfbench"


def run_bounded(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out: {' '.join(map(str, cmd))}")
    return proc.returncode, out, err


def build(targets, deadline):
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", "4", "--target"]
                 + targets)
    with open(log, "w") as fh:
        for cmd in steps:
            rc, _, _ = run_bounded(cmd, deadline - time.monotonic(),
                                   stdout=fh, stderr=subprocess.STDOUT)
            if rc != 0:
                fh.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log: {log})")
    return bdir


def source_digest():
    """sha256 over the library and benchmark sources: provenance that
    survives checkouts without git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def select_metrics(record, trace):
    """The declared metrics, in declared order; every one must be present
    with its declared unit and a finite value."""
    got = record.get("metrics", {})
    out, problems = {}, []
    for m in declared_metrics(trace):
        name, unit = m["name"], m["unit"]
        entry = got.get(name)
        if entry is None:
            problems.append(f"missing metric {name}")
        elif entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, "
                            f"declared {unit!r}")
        elif not isinstance(entry.get("value"), (int, float)) or \
                not math.isfinite(entry["value"]):
            problems.append(f"{name}: value {entry.get('value')!r}")
        else:
            out[name] = {"value": entry["value"], "unit": unit}
    return out, problems


def run_binary(bdir, args, deadline):
    cmd = [str(bdir / "klsm_perf"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    rc, out, err = run_bounded(cmd, deadline - time.monotonic(),
                               stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
    sys.stderr.write(err)
    lines = [l for l in out.splitlines() if l.strip()]
    if rc != 0 or not lines:
        fail(f"klsm_perf exited with status {rc}")
    return json.loads(lines[-1])


def benchmark(args):
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail("library sources (src/) not found next to perfbench/")
    bdir = build(["klsm_perf"], time.monotonic() + BUILD_LIMIT_S)
    record = run_binary(bdir, args, time.monotonic() + RUN_LIMIT_S)
    metrics, problems = select_metrics(record, args.trace)
    if problems:
        fail("; ".join(problems))
    record["provenance"].update({"git_sha": git_sha(),
                                 "source_sha256": source_digest(),
                                 "seed": args.seed,
                                 "traced": bool(args.trace)})
    print(json.dumps(record, sort_keys=True))
    attempted, failed = int(record["attempted"]), int(record["failed"])
    print(json.dumps({"correct": attempted > 0 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def self_test():
    """The benchmark's own tests: the check logic against broken queues
    and corrupted results (perfbench_selftest), then every workload at
    full size but the shortest run (two repetitions) in both modes,
    which must report every declared metric with its unit.  The ungated
    workloads run too; only their metrics are checked, not their
    outputs."""
    deadline = time.monotonic() + 600
    bdir = build(["klsm_perf", "perfbench_selftest"], deadline)
    rc, _, _ = run_bounded([str(bdir / "perfbench_selftest")],
                           deadline - time.monotonic())
    if rc != 0:
        fail("perfbench_selftest failed")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] + UNGATED_WORKLOADS
    for name in names:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=7, seconds=1,
                                      trace=trace)
            record = run_binary(bdir, args, deadline)
            _, problems = select_metrics(record, trace)
            if problems:
                fail(f"{name} trace={trace}: " + "; ".join(problems))
            if record["attempted"] < 1:
                fail(f"{name} trace={trace}: no checks attempted")
            print(f"ok  {name} trace={trace} "
                  f"({len(declared_metrics(trace))} metrics)")
    print("perfbench self-test passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
    elif not args.workload:
        ap.error("--workload is required")
    else:
        benchmark(args)


if __name__ == "__main__":
    main()
