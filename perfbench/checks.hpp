#pragma once

// Correctness checks the benchmark applies to every run's outputs, kept
// apart from the workloads so the self-test can feed them broken queues
// and corrupted results.
//
//   * drain_queue — empty a quiescent queue, counting items; a leading
//     single-threaded part measures each delete's rank error (how many
//     smaller keys were still queued; always 0 for an exact queue).
//   * check_tally — attempted / failed check counts; a run's
//     error_fraction is failed / attempted.
//   * conservation — the drained count must equal the count the
//     harness says is resident; each lost or duplicated item is one
//     failed check.
//   * distance_mismatches — SSSP distances against the Dijkstra
//     reference, one check per node.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "klsm/pq_concept.hpp"

namespace perfbench {

struct check_tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void add(std::uint64_t checks, std::uint64_t failures) {
        attempted += checks;
        failed += failures;
    }
    double error_fraction() const {
        return attempted ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
    }
};

struct drain_result {
    std::uint64_t items = 0;
    std::uint64_t lead_items = 0; ///< deleted by the caller alone, first
    /// Sum over those lead deletes of the rank error: how many items
    /// still in the queue had a smaller key (0 for an exact queue).
    double lead_rank_error = 0;
    double seconds = 0; ///< the multi-threaded part
};

/// Delete until `consecutive_failures` attempts in a row fail (the
/// relaxed interface allows a spurious failure on a non-empty queue) or
/// `limit` keys came out; appends each deleted key to `keys`.
template <typename PQ>
void drain_loop(PQ &q, std::vector<typename PQ::key_type> &keys,
                unsigned consecutive_failures,
                std::size_t limit = std::numeric_limits<std::size_t>::max()) {
    typename PQ::key_type key{};
    typename PQ::value_type value{};
    unsigned fails = 0;
    while (fails < consecutive_failures && keys.size() < limit) {
        if (!q.try_delete_min(key, value)) {
            ++fails;
            continue;
        }
        fails = 0;
        keys.push_back(key);
    }
}

/// Sum of rank errors of `lead` (keys in the order one thread deleted
/// them from a quiescent queue) given `later` (every key deleted after
/// the lead, in any order): for each lead key, the number of keys deleted
/// after it that are smaller.  O(n log n) with a Fenwick tree over the
/// sorted keys.
template <typename K>
double rank_error_sum(const std::vector<K> &lead, const std::vector<K> &later) {
    std::vector<K> sorted(lead);
    sorted.insert(sorted.end(), later.begin(), later.end());
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::uint32_t> tree(sorted.size() + 1, 0);
    auto pos = [&](const K &k) {
        return static_cast<std::size_t>(
            std::lower_bound(sorted.begin(), sorted.end(), k) -
            sorted.begin());
    };
    auto add = [&](std::size_t i) {
        for (++i; i < tree.size(); i += i & (0 - i))
            ++tree[i];
    };
    auto smaller = [&](std::size_t i) { // inserted keys at positions < i
        std::uint64_t n = 0;
        for (; i > 0; i -= i & (0 - i))
            n += tree[i];
        return n;
    };
    for (const K &k : later)
        add(pos(k));
    double total = 0;
    for (std::size_t i = lead.size(); i-- > 0;) {
        const std::size_t p = pos(lead[i]);
        total += static_cast<double>(smaller(p));
        add(p);
    }
    return total;
}

/// Empty a quiescent queue: the calling thread first deletes up to
/// `lead` keys alone (their rank errors are measured), then `threads`
/// workers drain the rest (timed), then the caller sweeps once more for
/// anything left.
template <klsm::relaxed_priority_queue PQ>
drain_result drain_queue(PQ &q, unsigned threads, std::size_t lead = 0) {
    using K = typename PQ::key_type;
    std::vector<K> first;
    if (lead > 0)
        drain_loop(q, first, 8, lead);
    std::vector<std::vector<K>> per(threads);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < threads; ++t)
        ts.emplace_back([&q, &per, t] { drain_loop(q, per[t], 3); });
    for (auto &t : ts)
        t.join();
    drain_result out;
    out.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    std::vector<K> rest;
    drain_loop(q, rest, 8);
    for (const auto &keys : per)
        rest.insert(rest.end(), keys.begin(), keys.end());
    out.lead_items = first.size();
    out.items = first.size() + rest.size();
    if (lead > 0)
        out.lead_rank_error = rank_error_sum(first, rest);
    return out;
}

/// Items lost or duplicated: |drained - expected|.
inline std::uint64_t conservation_failures(std::uint64_t expected,
                                           std::uint64_t drained) {
    return drained > expected ? drained - expected : expected - drained;
}

/// Nodes whose distance differs from the reference.
template <typename Dist>
std::uint64_t distance_mismatches(const Dist &got,
                                  const std::vector<std::uint64_t> &want) {
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < want.size(); ++i)
        bad += got[i] != want[i];
    return bad;
}

} // namespace perfbench
