#pragma once

// Parallel label-correcting SSSP (paper Section 6):
//
//   "a label-correcting version of Dijkstra's algorithm, which is
//    parallelized in a straightforward manner using a concurrent
//    priority queue.  It uses a lazy deletion scheme in connection with
//    reinsertion of keys instead of an explicit decrease-key operation."
//
// Each thread pops (distance, node) entries; entries whose distance
// exceeds the node's current tentative distance are stale and skipped.
// Relaxations CAS the tentative-distance array and reinsert.  Because
// relaxed queues may return out-of-order minima, nodes can be expanded
// more than once ("additional iterations"), which the harness reports
// exactly as the paper does.
//
// Termination: `pending` counts queue entries plus entries currently
// being expanded; when it reaches zero the queue is empty and no
// expansion can produce new work.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"
#include "harness/run_workers.hpp"
#include "klsm/item.hpp"
#include "stats/latency_recorder.hpp"
#include "util/backoff.hpp"

namespace klsm {

struct sssp_stats {
    std::uint64_t expansions = 0; ///< non-stale pops (node expansions)
    std::uint64_t stale_pops = 0; ///< lazy-deleted entries skipped
    std::uint64_t settled = 0;    ///< reachable nodes
    /// Workers whose pinning failed and therefore ran unpinned.
    std::uint64_t pin_failures = 0;
};

/// Shared tentative-distance state; also serves as the lazy-deletion
/// oracle for the k-LSM (an item is expired iff a strictly smaller
/// distance is already recorded for its node).
class sssp_state {
public:
    explicit sssp_state(std::uint32_t nodes)
        : dist_(std::make_unique<std::atomic<std::uint64_t>[]>(nodes)),
          nodes_(nodes) {
        for (std::uint32_t i = 0; i < nodes; ++i)
            dist_[i].store(sssp_unreached, std::memory_order_relaxed);
    }

    /// In-flight entry counter for termination detection.  Every queue
    /// entry decrements it exactly once: on a stale pop, after an
    /// expansion, or via the lazy-deletion notification below.
    std::atomic<std::int64_t> &pending() { return pending_; }

    void entry_dropped() {
        pending_.fetch_sub(1, std::memory_order_acq_rel);
    }

    std::uint64_t dist(std::uint32_t node) const {
        return dist_[node].load(std::memory_order_relaxed);
    }

    /// CAS-relax: record `nd` for `node` if it improves; returns true if
    /// this call made an improvement.
    bool relax(std::uint32_t node, std::uint64_t nd) {
        std::uint64_t cur = dist_[node].load(std::memory_order_relaxed);
        while (nd < cur) {
            if (dist_[node].compare_exchange_weak(
                    cur, nd, std::memory_order_acq_rel,
                    std::memory_order_relaxed))
                return true;
        }
        return false;
    }

    const std::atomic<std::uint64_t> *raw() const { return dist_.get(); }
    std::uint32_t num_nodes() const { return nodes_; }

    std::vector<std::uint64_t> snapshot() const {
        std::vector<std::uint64_t> out(nodes_);
        for (std::uint32_t i = 0; i < nodes_; ++i)
            out[i] = dist_[i].load(std::memory_order_relaxed);
        return out;
    }

private:
    std::unique_ptr<std::atomic<std::uint64_t>[]> dist_;
    std::atomic<std::int64_t> pending_{0};
    std::uint32_t nodes_;
};

/// The lazy-deletion policy plugged into k_lsm for SSSP (Section 4.5).
struct sssp_lazy {
    sssp_state *state = nullptr;

    bool operator()(const std::uint64_t &key,
                    const item<std::uint64_t, std::uint32_t> *it) const {
        return state->dist(it->value()) < key;
    }

    /// The queue lazily deleted one entry: keep the termination counter
    /// balanced.
    void dropped() const { state->entry_dropped(); }
};

/// Run label-correcting SSSP on `pq` with `threads` workers.  The queue
/// must be empty; keys are distances, values are node ids.  `hooks`
/// pins the workers, captures per-op insert and successful-pop
/// latencies, and runs the adaptive tick; its progress slots are
/// unused.
template <typename PQ>
sssp_stats parallel_sssp(PQ &pq, const graph &g, graph::node_id source,
                         unsigned threads, sssp_state &state,
                         const run_hooks &hooks = {}) {
    std::atomic<std::int64_t> &pending = state.pending();
    std::atomic<std::uint64_t> expansions{0};
    std::atomic<std::uint64_t> stale{0};

    state.relax(source, 0);
    // `pending` is raised before any worker starts, so no worker can
    // observe 0 before the seed entry exists.
    pending.store(1, std::memory_order_release);

    const auto worker = [&](unsigned t, start_gate &go) {
        stats::latency_recorder_set *const latency = hooks.latency;
        go.wait();
        // The seed entry must be inserted by a *worker*: queues with
        // thread-private buffers (hybrid_k_pq) can only pop entries from
        // the inserting thread until they spill.
        if (t == 0)
            pq.insert(0, source);
        std::uint64_t d;
        graph::node_id u;
        exp_backoff backoff;
        for (;;) {
            stats::op_sample pop_sample{latency, t,
                                        stats::op_kind::delete_min};
            if (!pq.try_delete_min(d, u)) {
                if (pending.load(std::memory_order_acquire) == 0)
                    return;
                backoff();
                continue;
            }
            pop_sample.commit();
            backoff.reset();
            if (d > state.dist(u)) {
                // Stale entry (lazy deletion).
                stale.fetch_add(1, std::memory_order_relaxed);
                pending.fetch_sub(1, std::memory_order_acq_rel);
                continue;
            }
            expansions.fetch_add(1, std::memory_order_relaxed);
            const auto neighbors = g.neighbors(u);
            const auto weights = g.weights(u);
            for (std::size_t i = 0; i < neighbors.size(); ++i) {
                const std::uint64_t nd = d + weights[i];
                if (state.relax(neighbors[i], nd)) {
                    pending.fetch_add(1, std::memory_order_acq_rel);
                    stats::op_sample ins_sample{latency, t,
                                                stats::op_kind::insert};
                    pq.insert(nd, neighbors[i]);
                    ins_sample.commit();
                }
            }
            pending.fetch_sub(1, std::memory_order_acq_rel);
        }
    };
    const worker_run run = run_workers(threads, hooks, worker);

    sssp_stats out;
    out.expansions = expansions.load();
    out.stale_pops = stale.load();
    out.pin_failures = run.pin_failures;
    for (std::uint32_t i = 0; i < state.num_nodes(); ++i)
        out.settled += (state.dist(i) != sssp_unreached);
    return out;
}

} // namespace klsm
