#pragma once

// Long-horizon churn soak harness (ROADMAP "Churn-proof memory").
//
// Compresses hours of resident-service life into op counts: a fixed
// program of phases that shift the key range, flip the insert/delete
// imbalance, and drain in bursts — the access patterns that make
// grow-only pools fatal at day scale.  Between phases the harness
// quiesces the queue (workers joined), forces a shrink pass
// (quiescent_shrink, where the structure supports it), and records a
// boundary sample; inside phases a ticker thread samples RSS and pool
// counters on a wall-clock cadence.  The resulting
// mm::reclaim::memory_timeline carries the enforced soak verdicts: at
// least one shrink event, and final RSS on a plateau relative to the
// steady phase (not the cumulative peak).
//
// Phase program (key bases spread the phases across disjoint ranges, so
// surge-phase items go cold — whole chunks of them — once the range
// shifts):
//
//   0 steady  50/50  base A     — the plateau reference
//   1 surge   85/15  base B     — pools grow hot
//   2 drain   10/90  bursty     — surge items die in bulk
//   3 steady  50/50  base C     — back to equilibrium; RSS must return
//
// Threads re-spawn per phase, which quiesces the queue at every
// boundary *and* exercises thread-id slot recycling under the pools —
// the same churn mm/epoch.cpp is hardened against.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "harness/run_workers.hpp"
#include "harness/workload.hpp"
#include "klsm/pq_concept.hpp"
#include "mm/alloc_stats.hpp"
#include "mm/reclaim/timeline.hpp"
#include "util/rng.hpp"
#include "util/thread_id.hpp"

namespace klsm {

struct churn_phase_spec {
    const char *name;
    unsigned insert_percent; ///< op mix; for bursty phases, burst mix
    std::uint64_t key_base;
    /// Bursty phases run homogeneous micro-bursts (burst_len ops of
    /// pure insert or pure delete) instead of per-op coin flips; the
    /// burst schedule still honors insert_percent, so a 10% bursty
    /// phase is one insert burst followed by nine delete bursts.
    bool bursty;
};

struct churn_params {
    unsigned threads = 4;
    /// Operations per thread per phase — the op-count scale knob that
    /// stands in for wall-clock soak duration.
    std::uint64_t ops_per_phase = 50000;
    std::uint64_t key_range = std::uint64_t{1} << 20;
    std::uint64_t prefill = 20000;
    std::uint64_t seed = 1;
    /// Burst length for bursty phases (ops per burst half-cycle).
    std::uint64_t burst_len = 256;
    /// In-phase sampling cadence for the memory timeline.
    double sample_interval_s = 0.05;
    /// Pinning and progress slots.  Progress slots carry cumulative
    /// tallies across phases: each respawned worker resumes publishing
    /// from its slot's pre-phase value.  The phase ticker samples the
    /// memory timeline, so `latency` and `on_adapt_tick` are unused.
    run_hooks hooks;
};

/// The four-phase program described in the header comment.  Key bases
/// sit key_range apart so phases occupy disjoint ranges.
inline std::vector<churn_phase_spec>
default_churn_phases(std::uint64_t key_range) {
    return {
        {"steady", 50, 0 * key_range, false},
        {"surge", 85, 1 * key_range, false},
        {"drain", 10, 2 * key_range, true},
        {"steady2", 50, 3 * key_range, false},
    };
}

struct churn_result {
    std::uint64_t inserts = 0;
    std::uint64_t deletes = 0;
    std::uint64_t failed_deletes = 0;
    double elapsed_s = 0.0;
    std::uint64_t pin_failures = 0;
    mm::reclaim::memory_timeline timeline;

    std::uint64_t total_ops() const { return inserts + deletes; }
};

namespace detail {

/// Pool counters folded into the scalar fields one timeline sample
/// carries.  Works on any structure; queues without memory_stats report
/// zeros (the timeline then only tracks RSS).
template <typename PQ>
void fill_pool_fields(PQ &q, mm::reclaim::timeline_sample &s) {
    if constexpr (pool_backed<PQ>) {
        const mm::memory_stats m = q.memory_stats(false);
        mm::pool_alloc_snapshot all = m.items;
        all.merge(m.dist_blocks);
        all.merge(m.shared_blocks);
        s.pool_bytes = all.bytes;
        s.released_bytes = all.released_bytes;
        s.reclaimed_chunks = all.reclaimed_chunks;
        s.shrink_events = all.shrink_events;
        s.freelist_hits = all.freelist_hits;
    }
}

} // namespace detail

/// Run the churn program against `q`.  The queue must be otherwise
/// idle; the caller owns prefill-free construction.
template <typename PQ>
churn_result run_churn(PQ &q, const churn_params &params) {
    using clock = std::chrono::steady_clock;
    check_thread_capacity(params.threads);
    const std::vector<churn_phase_spec> program =
        default_churn_phases(params.key_range);

    churn_result out;
    out.timeline.rss_reliable = mm::reclaim::rss_sampling_reliable();
    const auto start = clock::now();
    const auto now_ns = [&start] {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                clock::now() - start)
                .count());
    };

    // Samples come from the per-phase ticker thread *and* from the main
    // thread at boundaries; the mutex orders them (never contended
    // inside the workers' hot loop — sampling is wall-clock paced).
    std::mutex timeline_mutex;
    std::atomic<std::uint32_t> current_phase{0};
    const auto take_sample = [&] {
        mm::reclaim::timeline_sample s;
        s.t_ns = now_ns();
        s.rss_bytes = mm::reclaim::current_rss_bytes();
        s.phase = current_phase.load(std::memory_order_relaxed);
        detail::fill_pool_fields(q, s);
        std::lock_guard<std::mutex> lock(timeline_mutex);
        out.timeline.samples.push_back(s);
    };

    // Prefill in the steady phase's key range so the prefill population
    // participates in the steady-state equilibrium.
    if (params.prefill > 0) {
        xoroshiro128 rng{params.seed ^ 0x9e3779b97f4a7c15ULL};
        for (std::uint64_t i = 0; i < params.prefill; ++i)
            q.insert(static_cast<typename PQ::key_type>(
                         program[0].key_base + rng.bounded(params.key_range)),
                     typename PQ::value_type{});
    }
    std::uint64_t pin_failures = 0;
    // Spawn the full worker complement for one phase, run `ops` ops per
    // worker, join.  Used for the unrecorded warm-up and every recorded
    // phase alike; `sample` (if set) ticks every sample_interval_s
    // while the workers run.
    const auto spawn_phase = [&](const churn_phase_spec &phase,
                                 std::uint64_t ops, std::uint32_t pi,
                                 std::atomic<std::uint64_t> &inserts,
                                 std::atomic<std::uint64_t> &deletes,
                                 std::atomic<std::uint64_t> &failed,
                                 std::function<void()> sample) {
        run_hooks hooks = params.hooks;
        hooks.on_adapt_tick = std::move(sample);
        hooks.adapt_tick_s = params.sample_interval_s;
        const auto worker = [&](unsigned t, start_gate &go) {
            xoroshiro128 rng{params.seed + 104729 * (t + 1) +
                             7919 * (pi + 1)};
            const op_mix mix{phase.insert_percent};
            std::uint64_t my_ins = 0, my_del = 0, my_failed = 0;
            typename PQ::key_type key;
            typename PQ::value_type value{};
            auto h = pq_handle(q);
            // Progress slots accumulate across respawns: pick up
            // this slot's tallies from the previous phases.
            trace::progress_counters *const prog = hooks.progress;
            const std::uint64_t base_ops =
                prog != nullptr ? prog->ops_of(t) : 0;
            const std::uint64_t base_failed =
                prog != nullptr ? prog->failed_of(t) : 0;
            go.wait();
            for (std::uint64_t op = 0; op < ops; ++op) {
                const bool do_insert =
                    phase.bursty
                        ? ((op / params.burst_len) % 10) * 10 <
                              phase.insert_percent
                        : mix.is_insert(rng);
                if (do_insert) {
                    h.insert(static_cast<typename PQ::key_type>(
                                 phase.key_base +
                                 rng.bounded(params.key_range)),
                             value);
                    ++my_ins;
                } else if (h.try_delete_min(key, value)) {
                    ++my_del;
                } else {
                    ++my_failed;
                }
                if (prog != nullptr)
                    prog->publish(t,
                                  base_ops + my_ins + my_del + my_failed,
                                  base_failed + my_failed);
            }
            // Flush before the phase boundary's quiescent shrink and
            // boundary sample: every counted op must be visible.
            h.flush();
            inserts.fetch_add(my_ins, std::memory_order_relaxed);
            deletes.fetch_add(my_del, std::memory_order_relaxed);
            failed.fetch_add(my_failed, std::memory_order_relaxed);
        };
        pin_failures +=
            run_workers(params.threads, hooks, worker).pin_failures;
    };

    // Warm-up: an unrecorded mini steady phase with the full worker
    // complement.  It pre-creates everything whose *first use*
    // permanently raises RSS — worker stacks, malloc arenas, the
    // structure's per-thread state — so the recorded steady phase
    // measures the warm process and the plateau reference is not an
    // artifact of process start-up.
    {
        std::atomic<std::uint64_t> wi{0}, wd{0}, wf{0};
        spawn_phase(program[0],
                    std::max<std::uint64_t>(params.ops_per_phase / 4, 512),
                    static_cast<std::uint32_t>(program.size()), wi, wd,
                    wf, {});
        if constexpr (pool_backed<PQ>)
            q.quiescent_shrink();
    }
    take_sample();

    for (std::uint32_t pi = 0; pi < program.size(); ++pi) {
        const churn_phase_spec &phase = program[pi];
        current_phase.store(pi, std::memory_order_relaxed);
        mm::reclaim::timeline_phase_mark mark;
        mark.name = phase.name;
        mark.index = pi;
        mark.insert_percent = phase.insert_percent;
        mark.bursty = phase.bursty;
        mark.start_t_ns = now_ns();

        std::atomic<std::uint64_t> inserts{0}, deletes{0}, failed{0};
        // In-phase sampling from the scaffold's ticker.  Counter reads
        // are owner-relaxed atomics — safe mid-run; the ticker never
        // walks regions or chunk state.  Once spawn_phase returns the
        // ticker is joined and the main thread is the only sampler.
        spawn_phase(phase, params.ops_per_phase, pi, inserts, deletes,
                    failed, take_sample);

        mark.end_t_ns = now_ns();
        mark.inserts = inserts.load();
        mark.deletes = deletes.load();
        mark.failed_deletes = failed.load();
        out.inserts += mark.inserts;
        out.deletes += mark.deletes;
        out.failed_deletes += mark.failed_deletes;
        out.timeline.phases.push_back(mark);

        // Phase boundary: the queue is quiescent (workers joined), so
        // force the shrink tier to release everything that went cold —
        // this is where the surge memory comes back.
        if constexpr (pool_backed<PQ>)
            q.quiescent_shrink();
        if constexpr (requires { q.release_memory(); })
            q.release_memory();
        take_sample();
    }

    out.elapsed_s =
        std::chrono::duration<double>(clock::now() - start).count();
    out.pin_failures = pin_failures;
    out.timeline.finalize(/*steady_phase=*/0);
    return out;
}

} // namespace klsm
