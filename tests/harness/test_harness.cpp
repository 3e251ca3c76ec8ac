#include "harness/quality.hpp"
#include "harness/run_workers.hpp"
#include "harness/throughput.hpp"
#include "harness/workload.hpp"

#include "baselines/spin_heap.hpp"
#include "graph/erdos_renyi.hpp"
#include "graph/parallel_sssp.hpp"
#include "klsm/k_lsm.hpp"
#include "topo/pinning.hpp"
#include "util/thread_id.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace klsm {
namespace {

TEST(Workload, PrefillInsertsExactCount) {
    spin_heap<std::uint32_t, std::uint64_t> q;
    prefill_queue(q, 10000, 1, 32, 4);
    EXPECT_EQ(q.size_hint(), 10000u);
}

TEST(Workload, PrefillSingleThreaded) {
    spin_heap<std::uint32_t, std::uint64_t> q;
    prefill_queue(q, 500, 2, 32, 1);
    EXPECT_EQ(q.size_hint(), 500u);
}

TEST(Workload, PrefillRespectsKeyBits) {
    spin_heap<std::uint32_t, std::uint64_t> q;
    prefill_queue(q, 1000, 3, 8, 2);
    std::uint32_t k;
    std::uint64_t v;
    while (q.try_delete_min(k, v))
        EXPECT_LT(k, 256u);
}

TEST(RunWorkers, EveryWorkerIndexRunsOnceInsideTheWindow) {
    constexpr unsigned threads = 4;
    std::vector<std::atomic<unsigned>> runs(threads);
    std::vector<std::uint64_t> release(threads, 0);
    std::atomic<bool> window_open{false};
    const auto window = [&] {
        window_open.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    };
    const worker_run run = run_workers(
        threads, run_hooks{},
        [&](unsigned t, start_gate &go) {
            release[t] = go.wait();
            runs[t].fetch_add(1);
            // Still running once the window opens: the join cannot
            // come before window().
            while (!window_open.load())
                std::this_thread::yield();
        },
        window);
    for (unsigned t = 0; t < threads; ++t) {
        EXPECT_EQ(runs[t].load(), 1u) << "worker " << t;
        // One release stamp, shared by every worker and the result.
        EXPECT_EQ(release[t], run.start_ns) << "worker " << t;
    }
    EXPECT_NE(run.start_ns, 0u);
    EXPECT_EQ(run.pin_failures, 0u);
    EXPECT_GE(run.elapsed_s, 0.02) << "window() runs before the join";
}

TEST(RunWorkers, FailedPinsAreCountedAndWorkersStillRun) {
    constexpr unsigned threads = 3;
    run_hooks hooks;
    hooks.pin_cpus = {100000}; // far past the last CPU: setaffinity fails
    std::atomic<unsigned> ran{0};
    const worker_run run =
        run_workers(threads, hooks, [&](unsigned, start_gate &go) {
            go.wait();
            ran.fetch_add(1);
        });
    EXPECT_EQ(run.pin_failures, threads);
    EXPECT_EQ(ran.load(), threads);
}

TEST(RunWorkers, AdaptTickFiresWhileWorkersRun) {
    run_hooks hooks;
    std::atomic<unsigned> ticks{0};
    hooks.on_adapt_tick = [&] { ticks.fetch_add(1); };
    hooks.adapt_tick_s = 0.001;
    std::atomic<bool> seen{false};
    run_workers(2, hooks, [&](unsigned t, start_gate &go) {
        go.wait();
        if (t != 0)
            return;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (ticks.load() == 0 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        seen.store(ticks.load() > 0);
    });
    EXPECT_TRUE(seen.load()) << "no tick while a worker was running";
}

TEST(RunWorkers, DefaultHooksNeitherPinNorCapture) {
    const run_hooks hooks{};
    EXPECT_TRUE(hooks.pin_cpus.empty());
    EXPECT_EQ(hooks.latency, nullptr);
    EXPECT_FALSE(hooks.on_adapt_tick);
    EXPECT_EQ(hooks.progress, nullptr);
#if defined(__linux__)
    cpu_set_t caller;
    ASSERT_EQ(sched_getaffinity(0, sizeof(caller), &caller), 0);
    std::atomic<unsigned> same_mask{0};
#endif
    const worker_run run =
        run_workers(2, hooks, [&](unsigned, start_gate &go) {
            go.wait();
#if defined(__linux__)
            cpu_set_t mine;
            if (sched_getaffinity(0, sizeof(mine), &mine) == 0 &&
                CPU_EQUAL(&mine, &caller))
                same_mask.fetch_add(1);
#endif
        });
    EXPECT_EQ(run.pin_failures, 0u);
#if defined(__linux__)
    EXPECT_EQ(same_mask.load(), 2u) << "a worker was pinned";
#endif
}

TEST(Throughput, CountsAreConsistent) {
    spin_heap<std::uint32_t, std::uint64_t> q;
    prefill_queue(q, 1000, 4);
    throughput_params params;
    params.threads = 2;
    params.duration_s = 0.1;
    auto res = run_throughput(q, params);
    EXPECT_GT(res.total_ops, 0u);
    EXPECT_EQ(res.total_ops,
              res.inserts + res.deletes + res.failed_deletes);
    EXPECT_GE(res.elapsed_s, 0.1);
    EXPECT_GT(res.ops_per_sec(), 0.0);
    EXPECT_GT(res.ops_per_thread_per_sec(2), 0.0);
}

TEST(Throughput, FiftyFiftyMixIsRoughlyBalanced) {
    spin_heap<std::uint32_t, std::uint64_t> q;
    prefill_queue(q, 100000, 5);
    throughput_params params;
    params.threads = 1;
    params.duration_s = 0.2;
    auto res = run_throughput(q, params);
    // With a large prefill, deletes rarely fail; insert/delete counts
    // should be within a few percent of each other.
    const double ratio = static_cast<double>(res.inserts) /
                         static_cast<double>(res.deletes + 1);
    EXPECT_GT(ratio, 0.8);
    EXPECT_LT(ratio, 1.25);
    EXPECT_LT(res.failed_deletes, res.total_ops / 100);
}

TEST(Quality, ExactQueueHasZeroRankError) {
    spin_heap<std::uint32_t, std::uint64_t> q;
    quality_params params;
    params.prefill = 2000;
    params.ops_per_thread = 3000;
    params.threads = 2;
    auto res = measure_rank_error(q, params);
    EXPECT_GT(res.deletes, 0u);
    EXPECT_EQ(res.rank_max, 0u) << "an exact queue never skips keys";
    EXPECT_EQ(res.mean_rank(), 0.0);
}

TEST(Quality, KLsmRankErrorWithinRho) {
    constexpr std::size_t k = 8;
    constexpr unsigned threads = 3;
    k_lsm<std::uint32_t, std::uint64_t> q{k};
    quality_params params;
    params.prefill = 2000;
    params.ops_per_thread = 4000;
    params.threads = threads;
    auto res = measure_rank_error(q, params);
    EXPECT_GT(res.deletes, 0u);
    // The prefill runs on the main thread, so it counts toward T
    // (rank_error_bound = (threads + 1) * k).
    EXPECT_LE(res.rank_max, rank_error_bound(threads, k))
        << "observed rank error beyond the rho = T*k guarantee";
}

TEST(Quality, LargerKGivesLargerObservedRankError) {
    auto run = [](std::size_t k) {
        k_lsm<std::uint32_t, std::uint64_t> q{k};
        quality_params params;
        params.prefill = 5000;
        params.ops_per_thread = 5000;
        params.threads = 2;
        return measure_rank_error(q, params).mean_rank();
    };
    const double small = run(0);
    const double large = run(1024);
    EXPECT_LE(small, large + 0.001)
        << "k = 0 should be at least as exact as k = 1024";
    EXPECT_GT(large, 0.5) << "k = 1024 should show measurable relaxation";
}

TEST(ThreadCapacity, HarnessesFailFastInsteadOfTerminating) {
    // Requesting more worker threads than the thread-id registry can
    // seat used to throw inside a worker std::thread, which terminates
    // the whole process with no diagnostic.  Every harness now rejects
    // the run up front, on the calling thread.
    spin_heap<std::uint32_t, std::uint64_t> q;

    throughput_params tp;
    tp.threads = max_registered_threads;
    EXPECT_THROW(run_throughput(q, tp), std::invalid_argument);

    quality_params qp;
    qp.threads = max_registered_threads + 7;
    EXPECT_THROW(measure_rank_error(q, qp), std::invalid_argument);

    erdos_renyi_params gp;
    gp.nodes = 10;
    gp.edge_probability = 0.3;
    const graph g = make_erdos_renyi(gp);
    sssp_state state{g.num_nodes()};
    spin_heap<std::uint64_t, std::uint32_t> pq;
    EXPECT_THROW(
        parallel_sssp(pq, g, 0, max_registered_threads, state),
        std::invalid_argument);
}

TEST(ThreadCapacity, BoundaryIsOneBelowTheRegistrySize) {
    EXPECT_NO_THROW(check_thread_capacity(0));
    EXPECT_NO_THROW(check_thread_capacity(1));
    EXPECT_NO_THROW(check_thread_capacity(max_registered_threads - 1));
    EXPECT_THROW(check_thread_capacity(max_registered_threads),
                 std::invalid_argument);
    try {
        check_thread_capacity(max_registered_threads);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        // The message must name the limit so users know what to change.
        EXPECT_NE(std::string(e.what()).find(
                      std::to_string(max_registered_threads)),
                  std::string::npos);
    }
}

TEST(Throughput, PinnedWorkersMatchUnpinnedSemantics) {
    // Pinning must not change what the benchmark computes, only where
    // it runs: counts stay consistent with every policy order.
    spin_heap<std::uint32_t, std::uint64_t> q;
    prefill_queue(q, 1000, 6);
    throughput_params params;
    params.threads = 2;
    params.duration_s = 0.05;
    params.hooks.pin_cpus =
        topo::cpu_order(topo::topology::system(), topo::pin_policy::compact);
    ASSERT_FALSE(params.hooks.pin_cpus.empty());
    const auto res = run_throughput(q, params);
    EXPECT_GT(res.total_ops, 0u);
    EXPECT_EQ(res.total_ops,
              res.inserts + res.deletes + res.failed_deletes);
}

TEST(Throughput, LatencyCaptureCountsMatchSampling) {
    spin_heap<std::uint32_t, std::uint64_t> q;
    prefill_queue(q, 5000, 7);
    throughput_params params;
    params.threads = 2;
    params.duration_s = 0.1;
    stats::latency_recorder_set recs{params.threads, 2};
    params.hooks.latency = &recs;
    const auto res = run_throughput(q, params);
    const auto ins = recs.merged(stats::op_kind::insert);
    const auto del = recs.merged(stats::op_kind::delete_min);
    EXPECT_GT(ins.count(), 0u);
    EXPECT_GT(del.count(), 0u);
    // Stride 2 samples every second attempt of each kind; failed deletes
    // consume a sampling tick without recording, hence <=.
    EXPECT_LE(ins.count(), res.inserts / 2 + params.threads);
    EXPECT_LE(del.count(), (res.deletes + res.failed_deletes) / 2 +
                               params.threads);
    EXPECT_GE(ins.count(), res.inserts / 2 - params.threads);
    // Real operations take measurable time; percentile ordering holds.
    EXPECT_GT(ins.mean(), 0.0);
    EXPECT_LE(ins.percentile(50), ins.percentile(99));
    EXPECT_LE(ins.percentile(99), ins.max());
}

TEST(Throughput, NullLatencySetMatchesSeedBehavior) {
    // The default (no recorder set) path must keep working untouched.
    spin_heap<std::uint32_t, std::uint64_t> q;
    prefill_queue(q, 1000, 8);
    throughput_params params;
    params.threads = 2;
    params.duration_s = 0.05;
    EXPECT_EQ(params.hooks.latency, nullptr);
    const auto res = run_throughput(q, params);
    EXPECT_GT(res.total_ops, 0u);
}

TEST(Quality, LatencyCaptureSeparatesOpKinds) {
    k_lsm<std::uint32_t, std::uint64_t> q{64};
    quality_params params;
    params.prefill = 1000;
    params.ops_per_thread = 2000;
    params.threads = 2;
    stats::latency_recorder_set recs{params.threads, 1};
    params.hooks.latency = &recs;
    const auto res = measure_rank_error(q, params);
    const auto ins = recs.merged(stats::op_kind::insert);
    const auto del = recs.merged(stats::op_kind::delete_min);
    EXPECT_GT(ins.count(), 0u);
    EXPECT_GT(del.count(), 0u);
    // Stride 1 on successful deletes only: recorded deletes can never
    // exceed the harness's delete count.
    EXPECT_LE(del.count(), res.deletes);
    EXPECT_GT(ins.mean(), 0.0);
}

TEST(Sssp, LatencyCaptureRecordsInsertsAndPops) {
    erdos_renyi_params gp;
    gp.nodes = 300;
    gp.edge_probability = 0.1;
    gp.seed = 5;
    const graph g = make_erdos_renyi(gp);
    sssp_state state{g.num_nodes()};
    spin_heap<std::uint64_t, std::uint32_t> pq;
    stats::latency_recorder_set recs{2, 1};
    run_hooks hooks;
    hooks.latency = &recs;
    const auto stats_out = parallel_sssp(pq, g, 0, 2, state, hooks);
    const auto ins = recs.merged(stats::op_kind::insert);
    const auto del = recs.merged(stats::op_kind::delete_min);
    EXPECT_GT(ins.count(), 0u);
    EXPECT_GT(del.count(), 0u);
    // Every successful pop is an expansion or a stale skip; only
    // successful pops are recorded.
    EXPECT_LE(del.count(), stats_out.expansions + stats_out.stale_pops);
    // Every queue entry except the seed came from a recorded insert.
    EXPECT_LE(ins.count(),
              stats_out.expansions + stats_out.stale_pops);
}

TEST(Quality, HistogramSumsToDeletes) {
    k_lsm<std::uint32_t, std::uint64_t> q{64};
    quality_params params;
    params.prefill = 1000;
    params.ops_per_thread = 2000;
    params.threads = 2;
    auto res = measure_rank_error(q, params);
    std::uint64_t total = 0;
    for (auto h : res.histogram)
        total += h;
    EXPECT_EQ(total, res.deletes);
}

} // namespace
} // namespace klsm
