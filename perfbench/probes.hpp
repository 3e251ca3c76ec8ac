#pragma once

// Layer probes: each one drives a single layer of the k-LSM through its
// public functions, sized to the resident set of the workload that asks
// for it (not the 4096-item micro cases), and times batches of calls so
// the clock reads stay out of the per-call cost.
//
//   item_pool   allocate + take, with `resident` live items in the pool
//   block       merge_from of two half-full blocks, every level up to
//               the largest the workload's resident set reaches
//   dist_lsm    dist_lsm_local::insert / find_min at the DistLSM's own
//               resident size (it holds at most k items in the k-LSM)
//   shared_lsm  shared_lsm::insert of spill-sized (k + 1 item) blocks and
//               find_min, with `resident` items in the shared LSM
//
// Probes run on the calling thread, on structures of their own.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "klsm/block.hpp"
#include "klsm/dist_lsm.hpp"
#include "klsm/item.hpp"
#include "klsm/shared_lsm.hpp"
#include "mm/item_pool.hpp"
#include "util/rng.hpp"
#include "util/thread_id.hpp"

namespace perfbench {

namespace detail {
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/// `n` random keys in decreasing order (a block's sort order).
template <typename K>
std::vector<K> decreasing_keys(std::size_t n, klsm::xoroshiro128 &rng) {
    std::vector<K> keys(n);
    for (auto &k : keys)
        k = static_cast<K>(rng());
    std::sort(keys.begin(), keys.end(),
              [](const K &a, const K &b) { return b < a; });
    return keys;
}
} // namespace detail

/// ns per allocate+take pair on a pool holding `resident` live items.
template <typename K, typename V>
double probe_item_pool(std::size_t resident, std::size_t ops,
                       std::uint64_t seed) {
    klsm::item_pool<K, V> pool;
    klsm::xoroshiro128 rng{seed};
    std::vector<klsm::item_ref<K, V>> live;
    live.reserve(resident);
    for (std::size_t i = 0; i < resident; ++i)
        live.push_back(pool.allocate(static_cast<K>(rng()), V{}));
    auto cycle = [&] {
        const std::size_t i = rng.bounded(resident);
        live[i].take();
        live[i] = pool.allocate(static_cast<K>(rng()), V{});
    };
    for (std::size_t i = 0; i < ops / 4; ++i) // warm the sweep cursor
        cycle();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < ops; ++i)
        cycle();
    return detail::seconds_since(t0) * 1e9 / static_cast<double>(ops);
}

/// ns per item merged, averaged with equal weight over levels
/// 1..max_level (each level merges 2^max_level items in total).
template <typename K, typename V>
double probe_block_merge(std::uint32_t max_level, std::uint64_t seed) {
    klsm::item_pool<K, V> pool;
    klsm::xoroshiro128 rng{seed};
    const std::size_t top = std::size_t{1} << max_level;
    const std::vector<K> keys = detail::decreasing_keys<K>(top, rng);
    std::vector<klsm::item_ref<K, V>> refs;
    refs.reserve(top);
    for (const K &k : keys)
        refs.push_back(pool.allocate(k, V{}));

    double total_ns = 0;
    double total_items = 0;
    for (std::uint32_t level = 1; level <= max_level; ++level) {
        const std::uint32_t half = std::uint32_t{1} << (level - 1);
        klsm::block<K, V> a(level - 1), b(level - 1), dst(level);
        // Interleave the sorted run so the merge alternates sources.
        a.reuse_begin(level - 1);
        b.reuse_begin(level - 1);
        for (std::uint32_t i = 0; i < 2 * half; ++i)
            (i % 2 == 0 ? a : b).append(refs[i]);
        a.seal();
        b.seal();
        const std::size_t reps = std::max<std::size_t>(1, top / (2 * half));
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t r = 0; r < reps; ++r) {
            dst.reuse_begin(level);
            dst.merge_from(a, a.filled(), b, b.filled());
            dst.seal();
        }
        total_ns += detail::seconds_since(t0) * 1e9;
        total_items += static_cast<double>(reps) * 2.0 * half;
    }
    return total_ns / total_items;
}

struct two_ns {
    double insert_ns = 0;
    double find_min_ns = 0;
};

/// dist_lsm_local insert and find_min(+take) at a resident size that
/// swings between local/2 and local items; spills (never expected at
/// this size) are consumed by taking every spilled item.
template <typename K, typename V>
two_ns probe_dist_lsm(std::size_t local, double budget_s,
                      std::uint64_t seed) {
    klsm::dist_lsm_local<K, V> d;
    klsm::xoroshiro128 rng{seed};
    const std::uint32_t tid = klsm::thread_index();
    const klsm::no_lazy lazy{};
    auto spill = [](klsm::block<K, V> *b, std::uint32_t filled) {
        for (std::uint32_t i = 0; i < filled; ++i)
            b->load_entry(i).take();
    };
    auto insert = [&] {
        d.insert(static_cast<K>(rng()), V{}, tid, local, lazy, spill);
    };
    const std::size_t batch = std::max<std::size_t>(1, local / 2);
    for (std::size_t i = 0; i < batch; ++i)
        insert();
    double ins_ns = 0, fm_ns = 0, ins_n = 0, fm_n = 0;
    const auto start = std::chrono::steady_clock::now();
    while (detail::seconds_since(start) < budget_s) {
        auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < batch; ++i)
            insert();
        ins_ns += detail::seconds_since(t0) * 1e9;
        ins_n += static_cast<double>(batch);
        t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < batch; ++i) {
            klsm::item_ref<K, V> ref = d.find_min();
            if (ref.empty())
                break;
            ref.take();
            fm_n += 1;
        }
        fm_ns += detail::seconds_since(t0) * 1e9;
    }
    return {ins_ns / ins_n, fm_ns / fm_n};
}

/// shared_lsm insert of one spill-sized block (per call) and find_min
/// (+take) per item, with about `resident` items in the shared LSM.
template <typename K, typename V>
two_ns probe_shared_lsm(std::size_t resident, std::size_t k,
                        double budget_s, std::uint64_t seed) {
    klsm::shared_lsm<K, V> s(k);
    klsm::item_pool<K, V> items;
    klsm::xoroshiro128 rng{seed};
    const std::uint32_t tid = klsm::thread_index();
    const auto spill_items = static_cast<std::uint32_t>(k + 1);
    const std::uint32_t level = klsm::block<K, V>::level_for(spill_items);
    klsm::block<K, V> src(level);
    auto build = [&] {
        const std::vector<K> keys =
            detail::decreasing_keys<K>(spill_items, rng);
        src.reuse_begin(level);
        for (const K &key : keys)
            src.append(items.allocate(key, V{}));
        src.seal();
    };
    for (std::size_t n = 0; n < resident; n += spill_items) {
        build();
        s.insert(&src, src.filled());
    }
    double ins_ns = 0, fm_ns = 0, ins_n = 0, fm_n = 0;
    const auto start = std::chrono::steady_clock::now();
    while (detail::seconds_since(start) < budget_s) {
        build();
        auto t0 = std::chrono::steady_clock::now();
        s.insert(&src, src.filled());
        ins_ns += detail::seconds_since(t0) * 1e9;
        ins_n += 1;
        t0 = std::chrono::steady_clock::now();
        for (std::uint32_t i = 0; i < spill_items; ++i) {
            klsm::item_ref<K, V> ref = s.find_min(tid);
            if (ref.empty())
                break;
            ref.take();
            fm_n += 1;
        }
        fm_ns += detail::seconds_since(t0) * 1e9;
    }
    return {ins_ns / ins_n, fm_ns / fm_n};
}

} // namespace perfbench
