#!/usr/bin/env bash
# CI smoke stage: run every example binary, `klsm_bench --smoke` for
# every structure x workload, and a pinning-policy pass, failing on the
# first nonzero exit.  JSON reports are kept under $REPORT_DIR so CI
# can upload them as workflow artifacts.
#
#   scripts/smoke.sh [build-dir] [report-dir] \
#       [--memory-only|--service-only|--soak-only|--workloads-only]
#   (defaults: build, <build-dir>/smoke-reports)
#
# --memory-only runs the memory-placement section instead — what the CI
# `memory-placement` job invokes (in parallel with the smoke job), so
# the sweep and its schema validator have exactly one definition and
# run exactly once per pipeline.  --service-only does the same for the
# open-loop service section (the CI `service-smoke` job), --soak-only
# for the churn/reclamation section (the CI `soak-smoke` job), and
# --workloads-only for the bnb/des application workloads (the CI
# `workload-smoke` job).
set -euo pipefail

BUILD_DIR="${1:-build}"
REPORT_DIR="${2:-$BUILD_DIR/smoke-reports}"
MODE="${3:-full}"
if [[ ! -x "$BUILD_DIR/bench/klsm_bench" ]]; then
    echo "error: $BUILD_DIR/bench/klsm_bench not found; build first" >&2
    exit 2
fi
# Without python3 no report could be validated, so refuse to run
# rather than pass with every check skipped.
if ! command -v python3 > /dev/null; then
    echo "error: python3 not found; the smoke stage validates every" \
         "report with it" >&2
    exit 2
fi
SCRIPTS="$(dirname "$0")"
mkdir -p "$REPORT_DIR"

# Validate reports with scripts/check_report.py: every record block a
# report carries, and every block its meta requires (README "Report
# validation").
check_report() {
    python3 "$SCRIPTS/check_report.py" "$@" > /dev/null
}

# Memory placement: node-bound pools behind --numa-alloc, telemetry
# behind --alloc-stats.  On a single-node runner `bind` exercises the
# documented fallback path end to end.  Run ONLY via --memory-only (the
# dedicated CI memory-placement job, in parallel with the smoke job) —
# appending it to the full flow too would execute the identical sweep
# twice per pipeline.
memory_section() {
    echo "== memory placement: --numa-alloc x --alloc-stats =="
    # The CI memory-placement sweep: every structure under the bind
    # policy; the validator checks the k-LSM family's memory objects
    # and that the others emit none.
    local json="$REPORT_DIR/memory-bind-all.json"
    "$BUILD_DIR/bench/klsm_bench" --smoke --workload throughput \
        --structure klsm,dlsm,multiqueue,linden,spraylist,heap,centralized,hybrid,numa_klsm \
        --threads 1,2 --alloc-stats --numa-alloc bind \
        --json-out "$json" > /dev/null
    check_report "$json"
    echo "smoke OK: memory bind, all structures"
    # Every policy through the placement-aware structures.
    for mp in none bind firsttouch; do
        json="$REPORT_DIR/memory-$mp.json"
        "$BUILD_DIR/bench/klsm_bench" --smoke --workload throughput \
            --structure klsm,dlsm,numa_klsm --threads 2 \
            --alloc-stats --numa-alloc "$mp" \
            --json-out "$json" > /dev/null
        check_report "$json"
        echo "smoke OK: memory policy=$mp"
    done
    # The acceptance shape: numa_klsm pinned compact, bind, telemetry.
    json="$REPORT_DIR/memory-accept.json"
    "$BUILD_DIR/bench/klsm_bench" --structure numa_klsm --pin compact \
        --smoke --alloc-stats --numa-alloc bind \
        --json-out "$json" > /dev/null
    check_report "$json"
    echo "smoke OK: memory acceptance shape"
}

# Open-loop service mode: arrival-driven traffic with SLO verdicts.
# Run ONLY via --service-only (the dedicated CI service-smoke job, in
# parallel with the smoke job), mirroring the memory section's split.
service_section() {
    echo "== service mode: arrival processes x SLO verdicts =="
    # Every arrival process through the k-LSM family.
    local json
    for a in steady poisson spike diurnal; do
        json="$REPORT_DIR/service-$a.json"
        "$BUILD_DIR/bench/klsm_bench" --smoke --workload service \
            --structure klsm,numa_klsm --arrival "$a" --rate 200000 \
            --threads 2 --json-out "$json" > /dev/null
        check_report "$json"
        echo "smoke OK: service arrival=$a"
    done
    # The ISSUE's acceptance shape: poisson at 500k ops/s.
    json="$REPORT_DIR/service-accept.json"
    "$BUILD_DIR/bench/klsm_bench" --workload service \
        --structure klsm,numa_klsm --arrival poisson --rate 500000 \
        --smoke --json-out "$json" > /dev/null
    check_report "$json"
    echo "smoke OK: service acceptance shape"
    # Identity diff through compare_bench's service path: the SLO
    # verdict and achieved-rate machinery must hold on a self-compare.
    python3 "$SCRIPTS/compare_bench.py" \
        "$json" "$json" > /dev/null
    echo "smoke OK: service self-diff clean"
    # The sustainable-rate search with a latency objective: probes must
    # converge and emit the sustainable_rate + probes fields.
    json="$REPORT_DIR/service-sustainable.json"
    "$BUILD_DIR/bench/klsm_bench" --smoke --workload service \
        --structure klsm --arrival poisson --rate 100000 --threads 2 \
        --find-sustainable --slo-p99-us 50000 \
        --json-out "$json" > /dev/null
    check_report "$json"
    echo "smoke OK: service --find-sustainable"
}

# Churn soak: the reclamation tier under phase-shifted workloads.  Run
# ONLY via --soak-only (the dedicated CI soak-smoke job), mirroring the
# other sections' split.  Everything here is at --smoke scale: the
# schema and shrink-event gates are enforced, the RSS-plateau verdict is
# not (process overheads dominate a miniature run); the real-duration
# plateau enforcement lives in the nightly soak.
soak_section() {
    echo "== churn soak: reclamation policies x structures =="
    # Every reclamation policy through the k-LSM family.  `none` must
    # keep the seed behavior (no freelist, no shrink); the schema
    # checker verifies the counters stay zero-consistent either way.
    local json
    for rp in none freelist shrink full; do
        json="$REPORT_DIR/churn-$rp.json"
        "$BUILD_DIR/bench/klsm_bench" --smoke --workload churn \
            --structure klsm,dlsm,numa_klsm --threads 2 \
            --reclaim "$rp" --alloc-stats --json-out "$json" > /dev/null
        check_report "$json"
        echo "smoke OK: churn reclaim=$rp"
    done
    # Churn must also run green on the non-pool baselines (no timeline
    # enforcement; they have no pools to shrink).
    json="$REPORT_DIR/churn-baselines.json"
    "$BUILD_DIR/bench/klsm_bench" --smoke --workload churn \
        --structure linden,heap --threads 2 --json-out "$json" \
        > /dev/null
    check_report "$json"
    echo "smoke OK: churn baselines"
    # Huge-page request with graceful decay: on runners without
    # hugetlbfs reservations this exercises the THP-madvise and plain
    # fallbacks end to end.
    json="$REPORT_DIR/churn-huge.json"
    "$BUILD_DIR/bench/klsm_bench" --smoke --workload churn \
        --structure klsm --threads 2 --huge-pages --alloc-stats \
        --json-out "$json" > /dev/null
    check_report "$json"
    echo "smoke OK: churn --huge-pages"
    # The acceptance shape through the enforcing checker (schema +
    # shrink events; plateau stays advisory at smoke scale).
    check_report --bench "$BUILD_DIR/bench/klsm_bench" churn --smoke
    echo "smoke OK: churn acceptance gates"
    # Identity diff through compare_bench's churn path: the RSS
    # high-water and plateau machinery must hold on a self-compare.
    python3 "$SCRIPTS/compare_bench.py" \
        "$REPORT_DIR/churn-full.json" "$REPORT_DIR/churn-full.json" \
        > /dev/null
    echo "smoke OK: churn self-diff clean"
}

# Application workloads: branch-and-bound and discrete-event
# simulation through the registry.  Run ONLY via --workloads-only (the
# dedicated CI workload-smoke job), mirroring the other sections'
# split.
workloads_section() {
    echo "== application workloads: bnb + des =="
    # The ISSUE's acceptance shapes: each workload through the paper's
    # queue and the engineered rival.
    local json
    for w in bnb des; do
        json="$REPORT_DIR/workload-$w.json"
        "$BUILD_DIR/bench/klsm_bench" --workload "$w" \
            --structure klsm,multiqueue --smoke \
            --json-out "$json" > /dev/null
        check_report "$json"
        echo "smoke OK: workload $w"
    done
    # Combined selection: one report, records attributed per workload.
    json="$REPORT_DIR/workload-combined.json"
    "$BUILD_DIR/bench/klsm_bench" --workload bnb,des \
        --structure klsm,heap --threads 1,2 --smoke \
        --json-out "$json" > /dev/null
    check_report "$json"
    echo "smoke OK: workload bnb,des combined"
    # Adaptive k through both searches: the controller must move k and
    # emit the full adaptation schema while the workloads run.
    for w in bnb des; do
        json="$REPORT_DIR/workload-adaptive-$w.json"
        "$BUILD_DIR/bench/klsm_bench" --smoke --workload "$w" \
            --structure klsm --threads 2 --adaptive \
            --k-min 16 --k-max 4096 --json-out "$json" > /dev/null
        check_report "$json"
        echo "smoke OK: adaptive $w"
    done
    # Identity diff through compare_bench's bnb/des paths: the
    # match/budget verdict machinery must hold on a self-compare.
    python3 "$SCRIPTS/compare_bench.py" \
        "$REPORT_DIR/workload-combined.json" \
        "$REPORT_DIR/workload-combined.json" > /dev/null
    echo "smoke OK: workload self-diff clean"
    # klsm vs multiqueue head-to-head inside each report.
    python3 "$SCRIPTS/compare_bench.py" --head-to-head \
        "$REPORT_DIR/workload-bnb.json" > /dev/null
    python3 "$SCRIPTS/compare_bench.py" --head-to-head \
        "$REPORT_DIR/workload-des.json" > /dev/null
    echo "smoke OK: workload head-to-head"
}

if [[ "$MODE" == "--memory-only" ]]; then
    memory_section
    echo "memory placement stage passed (reports in $REPORT_DIR)"
    exit 0
fi
if [[ "$MODE" == "--service-only" ]]; then
    service_section
    echo "service stage passed (reports in $REPORT_DIR)"
    exit 0
fi
if [[ "$MODE" == "--soak-only" ]]; then
    soak_section
    echo "soak stage passed (reports in $REPORT_DIR)"
    exit 0
fi
if [[ "$MODE" == "--workloads-only" ]]; then
    workloads_section
    echo "workloads stage passed (reports in $REPORT_DIR)"
    exit 0
fi

echo "== examples =="
"$BUILD_DIR/examples/quickstart" > /dev/null
"$BUILD_DIR/examples/task_scheduler" > /dev/null
"$BUILD_DIR/examples/sssp_shortest_paths" 500 4 256 > /dev/null
"$BUILD_DIR/examples/branch_and_bound" > /dev/null
echo "examples OK"

echo "== klsm_bench --smoke =="
for s in klsm dlsm multiqueue linden spraylist heap centralized hybrid \
         numa_klsm; do
    for w in throughput quality sssp; do
        json="$REPORT_DIR/$s-$w.json"
        "$BUILD_DIR/bench/klsm_bench" --smoke --workload "$w" \
            --structure "$s" --threads 1,2 --json-out "$json" > /dev/null
        check_report "$json"
        echo "smoke OK: $s/$w"
    done
done

echo "== klsm_bench --smoke pinning policies =="
# Every placement policy, on the structures that care most about
# placement; on a single-node runner this exercises the topology
# fallback path end to end.
for p in none compact scatter numa_fill; do
    json="$REPORT_DIR/pin-$p.json"
    "$BUILD_DIR/bench/klsm_bench" --smoke --workload throughput \
        --structure klsm,numa_klsm --threads 2 --pin "$p" \
        --json-out "$json" > /dev/null
    check_report "$json"
    echo "smoke OK: pin=$p"
done
# The acceptance shape: a multi-policy sweep in one invocation.
json="$REPORT_DIR/pin-sweep.json"
"$BUILD_DIR/bench/klsm_bench" --smoke --workload throughput \
    --structure numa_klsm --pin compact,scatter --threads 1,2 \
    --json-out "$json" > /dev/null
check_report "$json"
echo "smoke OK: pin sweep"

echo "== adaptive relaxation: one sweep per workload =="
# Adaptive k (src/adapt/): the controller must run green on every
# workload and emit schema-complete k_trajectory + contention objects.
for w in throughput quality sssp; do
    json="$REPORT_DIR/adaptive-$w.json"
    "$BUILD_DIR/bench/klsm_bench" --smoke --workload "$w" \
        --structure klsm,numa_klsm --threads 2 --adaptive \
        --k-min 16 --k-max 4096 --json-out "$json" > /dev/null
    check_report "$json"
    echo "smoke OK: adaptive $w"
done
# The acceptance shape (--benchmark alias included): adaptive vs the
# same structure fixed, diffed advisorily as a whole sweep.
json="$REPORT_DIR/adaptive-accept.json"
"$BUILD_DIR/bench/klsm_bench" --benchmark throughput \
    --structure klsm,numa_klsm --adaptive --k-min 16 --k-max 4096 \
    --threads 1,2 --smoke --json-out "$json" > /dev/null
check_report "$json"
python3 "$SCRIPTS/compare_bench.py" \
    "$REPORT_DIR/klsm-throughput.json" "$json" \
    --warn-only --sweep > /dev/null
echo "smoke OK: adaptive acceptance sweep"

echo "== buffered handles: engineered multiqueue vs buffered k-LSM =="
# The PR-8 acceptance shape: both rivals in one report, insert buffers
# and the MultiQueue handle buffers on.  The quality workload enforces
# the extended bound rho = (T+1)*k + T*buffer_total internally (it
# fails the run on violation), and compare_bench's head-to-head mode
# diffs the klsm-vs-multiqueue pairs within the single report.
json="$REPORT_DIR/buffered-quality.json"
"$BUILD_DIR/bench/klsm_bench" --smoke --workload quality \
    --structure klsm,multiqueue --threads 2 \
    --insert-buffer 16 --peek-cache 4 --mq-stickiness 8 --mq-buffer 16 \
    --json-out "$json" > /dev/null
check_report "$json"
echo "smoke OK: buffered quality (extended rho enforced)"
json="$REPORT_DIR/buffered-throughput.json"
"$BUILD_DIR/bench/klsm_bench" --smoke --workload throughput \
    --structure klsm,multiqueue --threads 1,2 \
    --insert-buffer 16 --peek-cache 4 --mq-stickiness 8 --mq-buffer 16 \
    --json-out "$json" > /dev/null
check_report "$json"
echo "smoke OK: buffered throughput"
python3 "$SCRIPTS/compare_bench.py" --head-to-head \
    "$REPORT_DIR/buffered-quality.json" > /dev/null
python3 "$SCRIPTS/compare_bench.py" --head-to-head \
    "$REPORT_DIR/buffered-throughput.json" > /dev/null
echo "smoke OK: klsm-vs-multiqueue head-to-head"
# Adaptive with the buffer knob engaged: the adaptation object must
# carry the buffer {initial, final, max_seen} block, starting at the
# configured --insert-buffer depth.
json="$REPORT_DIR/buffered-adaptive.json"
"$BUILD_DIR/bench/klsm_bench" --smoke --workload throughput \
    --structure klsm --threads 2 --adaptive --k-min 16 --k-max 4096 \
    --insert-buffer 16 --json-out "$json" > /dev/null
check_report "$json"
echo "smoke OK: adaptive buffer knob"

echo "== pinned sweeps: compact + scatter across every workload =="
# ROADMAP's pinned-CI item: keep the placement paths exercised on every
# push, for all three workloads, not just throughput.
for w in throughput quality sssp; do
    json="$REPORT_DIR/pin-sweep-$w.json"
    "$BUILD_DIR/bench/klsm_bench" --smoke --workload "$w" \
        --structure klsm,numa_klsm --pin compact,scatter --threads 2 \
        --json-out "$json" > /dev/null
    check_report "$json"
    echo "smoke OK: pinned sweep $w"
done
echo "smoke stage passed (reports in $REPORT_DIR)"
