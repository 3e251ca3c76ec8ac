#pragma once

// The one worker scaffold every harness runs its threads through
// (throughput, quality, churn, open_loop, bnb, des, parallel_sssp).
//
// run_workers does the shared work once: check the thread-id capacity,
// spawn `threads` workers, pin each (counting failures), hold them at
// one start barrier, run the optional periodic hook for the window, and
// join.  A harness supplies only what differs: the per-thread body,
// and, where it needs one, a main-thread window between the release
// and the join (throughput's sleep-then-stop).
//
// Each worker does its per-thread setup (rng, pq_handle, tallies)
// first and then calls go.wait(), so setup never lands in the timed
// window.  Every worker must call go.wait() exactly once.  An exception
// escaping a worker terminates the process, as it would from any
// std::thread: the other workers' stop conditions (a shared count, an
// empty frontier) could never be met without it, so there is no safe
// way to carry on.

#include <atomic>
#include <barrier>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "topo/pinning.hpp"
#include "trace/progress.hpp"
#include "util/thread_id.hpp"
#include "util/ticker.hpp"
#include "util/timer.hpp"

namespace klsm {

namespace stats {
class latency_recorder_set;
}

/// The optional hooks every harness accepts.  A default-constructed
/// value pins nothing, captures nothing, ticks nothing and publishes
/// no progress.
struct run_hooks {
    /// Placement order from topo::cpu_order: worker t pins itself to
    /// pin_cpus[t % size()] before the start barrier.  Empty: no pinning.
    std::vector<std::uint32_t> pin_cpus;
    /// Optional per-op latency capture (src/stats/): worker t records
    /// into latency->slot(t).  Null or stride-0: no capture, and the
    /// hot loop pays only a branch.  Must be sized for the run's threads.
    stats::latency_recorder_set *latency = nullptr;
    /// Optional periodic hook, typically queue_adaptor::tick
    /// (src/adapt/): a ticker thread calls it every `adapt_tick_s`
    /// seconds while the workers run.
    std::function<void()> on_adapt_tick;
    double adapt_tick_s = 0.005;
    /// Optional mid-run progress slots for the metrics sampler
    /// (src/trace/): worker t relaxed-stores its cumulative op and
    /// failed-delete tallies into slot t.  Null: the hot loop pays only
    /// a branch.
    trace::progress_counters *progress = nullptr;
};

/// The start barrier as a worker sees it: the workers and the main
/// thread all arrive, and the barrier's completion step stamps the
/// release time once, before anyone is let go.  So every worker shares
/// one start stamp with no straggler skew.
class start_gate {
public:
    explicit start_gate(unsigned workers)
        : sync_(static_cast<std::ptrdiff_t>(workers) + 1,
                stamp{&start_ns_}) {}

    /// Block until every worker and the main thread have arrived;
    /// returns the release stamp (now_ns() units).
    std::uint64_t wait() {
        sync_.arrive_and_wait();
        return start_ns_.load(std::memory_order_acquire);
    }

private:
    struct stamp {
        std::atomic<std::uint64_t> *at;
        void operator()() noexcept {
            at->store(now_ns(), std::memory_order_release);
        }
    };

    std::atomic<std::uint64_t> start_ns_{0};
    std::barrier<stamp> sync_;
};

struct worker_run {
    /// From the main thread reaching the start barrier to the last join.
    double elapsed_s = 0;
    /// Workers whose pinning failed (restricted cpuset, stale cpu id):
    /// they ran unpinned.  Nonzero means the run's placement label lies.
    std::uint64_t pin_failures = 0;
    /// The release stamp every worker's go.wait() returned.
    std::uint64_t start_ns = 0;
};

/// Run `worker(t, go)` on `threads` spawned threads, t = 0..threads-1,
/// and `window()` on the calling thread between the release and the
/// join.  The ticker runs from before the release until after the join.
template <typename Worker, typename Window>
worker_run run_workers(unsigned threads, const run_hooks &hooks,
                       Worker &&worker, Window &&window) {
    check_thread_capacity(threads);
    std::atomic<std::uint64_t> pin_failures{0};
    start_gate go{threads};
    worker_run out;
    std::vector<std::thread> ts;
    ts.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        ts.emplace_back([&, t] {
            if (!hooks.pin_cpus.empty() &&
                !topo::pin_self(hooks.pin_cpus[t % hooks.pin_cpus.size()]))
                pin_failures.fetch_add(1, std::memory_order_relaxed);
            worker(t, go);
        });
    }
    periodic_ticker ticker{hooks.on_adapt_tick, hooks.adapt_tick_s};
    wall_timer timer;
    out.start_ns = go.wait(); // release the workers
    window();
    for (auto &th : ts)
        th.join();
    out.elapsed_s = timer.elapsed_s();
    out.pin_failures = pin_failures.load();
    return out;
}

template <typename Worker>
worker_run run_workers(unsigned threads, const run_hooks &hooks,
                       Worker &&worker) {
    return run_workers(threads, hooks, std::forward<Worker>(worker),
                       [] {});
}

} // namespace klsm
