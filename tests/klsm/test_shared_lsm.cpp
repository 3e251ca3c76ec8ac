#include "klsm/shared_lsm.hpp"

#include "mm/item_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace klsm {
namespace {

using shared_t = shared_lsm<std::uint32_t, std::uint64_t>;
using block_t = block<std::uint32_t, std::uint64_t>;
using pool_t = item_pool<std::uint32_t, std::uint64_t>;

/// Build a standalone sealed source block (as a DistLSM spill would).
struct source_block {
    explicit source_block(pool_t &pool, std::vector<std::uint32_t> keys,
                          std::uint32_t tid = 0)
        : blk(block_t::level_for(static_cast<std::uint32_t>(keys.size()))) {
        std::sort(keys.rbegin(), keys.rend());
        blk.reuse_begin(blk.capacity_pow());
        for (auto k : keys)
            blk.append(pool.allocate(k, k));
        blk.bloom_insert(tid);
        blk.seal();
    }
    block_t blk;
};

TEST(SharedLsm, EmptyFindMin) {
    shared_t s{4};
    EXPECT_TRUE(s.find_min(0).empty());
    EXPECT_EQ(s.item_count_estimate(), 0u);
}

TEST(SharedLsm, InsertThenFindSingleBlock) {
    pool_t items;
    shared_t s{4};
    source_block src{items, {30, 10, 20}};
    s.insert(&src.blk, src.blk.filled());
    EXPECT_EQ(s.item_count_estimate(), 3u);
    auto ref = s.find_min(0);
    ASSERT_FALSE(ref.empty());
    // k = 4: any of the 3 keys is a legal candidate.
    EXPECT_TRUE(ref.key == 10 || ref.key == 20 || ref.key == 30);
}

TEST(SharedLsm, KZeroAlwaysReturnsExactMin) {
    pool_t items;
    shared_t s{0};
    source_block a{items, {50, 40}};
    source_block b{items, {35, 45}};
    s.insert(&a.blk, a.blk.filled());
    s.insert(&b.blk, b.blk.filled());
    for (int i = 0; i < 20; ++i) {
        auto ref = s.find_min(0);
        ASSERT_FALSE(ref.empty());
        EXPECT_EQ(ref.key, 35u) << "k=0 must always surface the minimum";
    }
}

TEST(SharedLsm, CandidatesStayWithinKPlus1Smallest) {
    pool_t items;
    constexpr std::size_t k = 3;
    shared_t s{k};
    std::vector<std::uint32_t> keys;
    for (std::uint32_t i = 0; i < 40; ++i)
        keys.push_back(i);
    source_block src{items, keys};
    s.insert(&src.blk, src.blk.filled());
    for (int i = 0; i < 200; ++i) {
        auto ref = s.find_min(0);
        ASSERT_FALSE(ref.empty());
        EXPECT_LE(ref.key, k) << "candidate outside the k+1 smallest";
    }
}

TEST(SharedLsm, RandomSelectionSpreadsOverCandidates) {
    pool_t items;
    shared_t s{7};
    std::vector<std::uint32_t> keys;
    for (std::uint32_t i = 0; i < 64; ++i)
        keys.push_back(i);
    source_block src{items, keys, /*tid=*/55};
    s.insert(&src.blk, src.blk.filled());
    std::map<std::uint32_t, int> histogram;
    for (int i = 0; i < 500; ++i)
        ++histogram[s.find_min(0).key]; // tid 0 has no own items
    EXPECT_GE(histogram.size(), 3u)
        << "relaxed selection should hit several of the 8 candidates";
}

TEST(SharedLsm, DeleteDrainsInRelaxedOrder) {
    pool_t items;
    constexpr std::size_t k = 2;
    shared_t s{k};
    std::vector<std::uint32_t> keys;
    for (std::uint32_t i = 0; i < 30; ++i)
        keys.push_back(i);
    source_block src{items, keys};
    s.insert(&src.blk, src.blk.filled());

    std::vector<bool> deleted(30, false);
    for (int step = 0; step < 30; ++step) {
        item_ref<std::uint32_t, std::uint64_t> ref;
        do {
            ref = s.find_min(0);
            ASSERT_FALSE(ref.empty()) << "step " << step;
        } while (!ref.take());
        ASSERT_LT(ref.key, 30u);
        ASSERT_FALSE(deleted[ref.key]);
        // Rank among remaining keys must be <= k.
        std::size_t rank = 0;
        for (std::uint32_t j = 0; j < ref.key; ++j)
            rank += deleted[j] ? 0 : 1;
        EXPECT_LE(rank, k);
        deleted[ref.key] = true;
    }
    EXPECT_TRUE(s.find_min(0).empty()) << "drained shared LSM is empty";
    EXPECT_EQ(s.item_count_estimate(), 0u);
}

TEST(SharedLsm, MultipleInsertsMergeLevels) {
    pool_t items;
    shared_t s{1};
    std::vector<std::unique_ptr<source_block>> sources;
    for (std::uint32_t i = 0; i < 20; ++i) {
        sources.push_back(
            std::make_unique<source_block>(items,
                                           std::vector<std::uint32_t>{i}));
        s.insert(&sources.back()->blk, 1);
    }
    EXPECT_EQ(s.item_count_estimate(), 20u);
    item_ref<std::uint32_t, std::uint64_t> ref;
    do {
        ref = s.find_min(0);
        ASSERT_FALSE(ref.empty());
    } while (!ref.take());
    EXPECT_LE(ref.key, 1u);
}

TEST(SharedLsm, LocalOrderingPrefersOwnMinimum) {
    pool_t items;
    // Large k so the random candidate is usually NOT the global minimum.
    shared_t s{63};
    std::vector<std::uint32_t> keys;
    for (std::uint32_t i = 0; i < 64; ++i)
        keys.push_back(i);
    source_block src{items, keys, /*tid=*/7};
    s.insert(&src.blk, src.blk.filled());
    // Thread 7 contributed every key, so its own minimum (0) must always
    // win the comparison against the random candidate.
    for (int i = 0; i < 50; ++i) {
        auto ref = s.find_min(/*tid=*/7);
        ASSERT_FALSE(ref.empty());
        EXPECT_EQ(ref.key, 0u);
    }
}

TEST(SharedLsm, TwoArraysPerThreadSuffice) {
    pool_t items;
    shared_t s{2};
    std::vector<std::unique_ptr<source_block>> sources;
    for (std::uint32_t i = 0; i < 200; ++i) {
        sources.push_back(std::make_unique<source_block>(
            items, std::vector<std::uint32_t>{i, i + 1000}));
        s.insert(&sources.back()->blk, 2);
        if (i % 3 == 0) {
            auto ref = s.find_min(0);
            if (!ref.empty())
                ref.take();
        }
    }
    EXPECT_EQ(s.extra_array_allocations(), 0u)
        << "paper bound of two BlockArrays per thread violated";
}

/// Single-threaded mix of block inserts, find_min+take and external
/// takes of arbitrary published items, against a multiset of the alive
/// keys.  External takes leave dead entries inside and outside the
/// candidate ranges, so many find_min calls consolidate by trimming only
/// and resume the pivot walk from the old pivots.  Each phase runs at
/// one k (set_relaxation between phases).  Every find_min result must
/// rank <= bound among the alive keys, where bound is the current k,
/// except that after k is lowered the published pivots keep the old k
/// until the next insert recomputes them.
void run_resume_mix(const std::vector<std::size_t> &phases,
                    std::uint64_t seed) {
    pool_t items;
    shared_t s{phases.front()};
    xoroshiro128 rng{seed};
    std::multiset<std::uint32_t> alive;
    std::vector<item_ref<std::uint32_t, std::uint64_t>> published;
    constexpr std::uint32_t own_tid = 0, other_tid = 5;
    constexpr int steps_per_phase = 3000;
    std::size_t bound = phases.front();

    const auto checked_delete = [&] {
        for (;;) {
            auto ref = s.find_min(own_tid);
            if (ref.empty())
                return false;
            const auto it = alive.find(ref.key);
            if (it == alive.end()) {
                ADD_FAILURE() << "find_min returned a key not alive: "
                              << ref.key;
                return false;
            }
            const auto rank = static_cast<std::size_t>(
                std::distance(alive.begin(), alive.lower_bound(ref.key)));
            EXPECT_LE(rank, bound)
                << "key " << ref.key << " with " << alive.size()
                << " alive, k=" << s.relaxation();
            if (ref.take()) {
                alive.erase(it);
                return true;
            }
        }
    };

    for (const std::size_t k : phases) {
        s.set_relaxation(k);
        bound = std::max(bound, k);
        for (int step = 0; step < steps_per_phase; ++step) {
            // No inserts early in a phase: a lowered k must then take
            // effect through find_min's own consolidations.
            const std::uint64_t op = rng.bounded(10);
            const std::uint64_t insert_below =
                step < steps_per_phase / 8 ? 0 : alive.size() < 1500 ? 4 : 1;
            if (op < insert_below) {
                std::vector<std::uint32_t> keys(1 + rng.bounded(32));
                for (auto &key : keys)
                    key = static_cast<std::uint32_t>(rng.bounded(1u << 16));
                source_block src{items, keys, other_tid};
                for (std::uint32_t i = 0; i < src.blk.filled(); ++i)
                    published.push_back(src.blk.load_entry(i));
                alive.insert(keys.begin(), keys.end());
                s.insert(&src.blk, src.blk.filled());
                bound = k; // the insert's fresh walk used the current k
            } else if (op < 7) {
                if (!checked_delete()) {
                    ASSERT_TRUE(alive.empty());
                }
            } else if (!published.empty()) {
                const std::size_t i = rng.bounded(published.size());
                const auto ref = published[i];
                published[i] = published.back();
                published.pop_back();
                if (ref.take())
                    alive.erase(alive.find(ref.key));
            }
            if (::testing::Test::HasFailure())
                return;
        }
    }
    while (checked_delete()) {
    }
    EXPECT_TRUE(alive.empty()) << alive.size() << " keys lost";
    EXPECT_TRUE(s.find_min(own_tid).empty());
}

TEST(SharedLsm, ResumedPivotsKeepRankBound) {
    for (const std::size_t k : {0, 1, 16, 256}) {
        SCOPED_TRACE("k=" + std::to_string(k));
        run_resume_mix({k}, 100 + k);
    }
}

TEST(SharedLsm, ResumedPivotsFollowRelaxationChanges) {
    run_resume_mix({64, 8, 64}, 7); // down 64->8, then up 8->64
}

TEST(SharedLsm, ConcurrentInsertDeleteConservation) {
    constexpr int threads = 4;
    constexpr std::uint32_t per_thread = 3000;
    shared_t s{16};
    std::atomic<std::uint64_t> deletes{0};
    // Pools and source blocks must outlive every thread: items stay
    // referenced by the shared LSM until the final drain.
    pool_t items_by_thread[threads];
    std::vector<std::unique_ptr<source_block>> sources_by_thread[threads];
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t) {
        ts.emplace_back([&, t] {
            pool_t &items = items_by_thread[t];
            auto &sources = sources_by_thread[t];
            const std::uint32_t tid = thread_index();
            for (std::uint32_t i = 0; i < per_thread; ++i) {
                sources.push_back(std::make_unique<source_block>(
                    items,
                    std::vector<std::uint32_t>{
                        static_cast<std::uint32_t>(t) * per_thread + i},
                    tid));
                s.insert(&sources.back()->blk, 1);
                auto ref = s.find_min(tid);
                if (!ref.empty() && ref.take())
                    deletes.fetch_add(1);
            }
            // Drain whatever is left visible to this thread.
            for (;;) {
                auto ref = s.find_min(tid);
                if (ref.empty())
                    break;
                if (ref.take())
                    deletes.fetch_add(1);
            }
        });
    }
    for (auto &t : ts)
        t.join();
    // Every inserted item is deleted exactly once; nothing is lost or
    // duplicated.
    EXPECT_EQ(deletes.load(), std::uint64_t{threads} * per_thread);
    EXPECT_TRUE(s.find_min(thread_index()).empty());
}

} // namespace
} // namespace klsm
