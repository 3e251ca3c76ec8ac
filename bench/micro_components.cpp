// Micro-benchmarks (google-benchmark) for the design choices DESIGN.md
// calls out: versioned item allocation/reuse, block two-way merges,
// Bloom-filter local-ordering checks, stamped-pointer CAS, DistLSM
// insert/merge chains, spying, and single-thread k-LSM operation costs
// across k.  These quantify the component costs behind Figure 3's
// single-thread ordering (DLSM ~ binary heap >> k-LSM(0)).

#include <benchmark/benchmark.h>

#include "baselines/binary_heap.hpp"
#include "klsm/block.hpp"
#include "klsm/dist_lsm.hpp"
#include "klsm/k_lsm.hpp"
#include "mm/item_pool.hpp"
#include "util/rng.hpp"
#include "util/stamped_ptr.hpp"

namespace {

using namespace klsm;
using bench_key = std::uint32_t;
using bench_val = std::uint32_t;

void BM_item_pool_alloc_take(benchmark::State &state) {
    item_pool<bench_key, bench_val> pool;
    std::uint32_t i = 0;
    for (auto _ : state) {
        auto ref = pool.allocate(i++, 0);
        benchmark::DoNotOptimize(ref.it);
        ref.take();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_item_pool_alloc_take);

void BM_block_merge(benchmark::State &state) {
    const auto n = static_cast<std::uint32_t>(state.range(0));
    const std::uint32_t pow = block<bench_key, bench_val>::level_for(n);
    item_pool<bench_key, bench_val> pool;
    block<bench_key, bench_val> a{pow}, b{pow}, dst{pow + 1};
    a.reuse_begin(pow);
    b.reuse_begin(pow);
    for (std::uint32_t i = n; i-- > 0;) {
        a.append(pool.allocate(2 * i, 0));
        b.append(pool.allocate(2 * i + 1, 0));
    }
    a.seal();
    b.seal();
    for (auto _ : state) {
        dst.reuse_begin(pow + 1);
        dst.merge_from(a, a.filled(), b, b.filled());
        dst.seal();
        benchmark::DoNotOptimize(dst.filled());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 2 * n);
}
BENCHMARK(BM_block_merge)->Arg(64)->Arg(1024)->Arg(16384);

void BM_bloom_check(benchmark::State &state) {
    block<bench_key, bench_val> b{0};
    b.reuse_begin(0);
    for (std::uint32_t tid = 0; tid < 8; ++tid)
        b.bloom_insert(tid);
    b.seal();
    std::uint32_t tid = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(b.bloom_may_contain(tid));
        tid = (tid + 1) & 63;
    }
}
BENCHMARK(BM_bloom_check);

void BM_stamped_ptr_cas(benchmark::State &state) {
    struct alignas(2048) target {
        int x;
    };
    static target t;
    atomic_stamped_ptr<target> cell;
    std::uint64_t version = 0;
    cell.store({&t, version});
    for (auto _ : state) {
        const stamped_ptr<target> expected{&t, version};
        ++version;
        benchmark::DoNotOptimize(
            cell.compare_exchange(expected, {&t, version}));
    }
}
BENCHMARK(BM_stamped_ptr_cas);

void BM_dist_lsm_insert(benchmark::State &state) {
    dist_lsm_local<bench_key, bench_val> dist;
    xoroshiro128 rng{7};
    auto no_spill = [](block<bench_key, bench_val> *, std::uint32_t) {};
    std::size_t pending = 0;
    for (auto _ : state) {
        dist.insert(static_cast<bench_key>(rng()), 0, 0,
                    dist_lsm_local<bench_key, bench_val>::unbounded, no_lazy{},
                    no_spill);
        if (++pending >= 4096) {
            // Keep the structure bounded: drain.
            state.PauseTiming();
            item_ref<bench_key, bench_val> ref;
            while (!(ref = dist.find_min()).empty())
                ref.take();
            dist.consolidate();
            pending = 0;
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_dist_lsm_insert);

void BM_spy(benchmark::State &state) {
    const auto n = static_cast<std::uint32_t>(state.range(0));
    dist_lsm_local<bench_key, bench_val> victim;
    auto no_spill = [](block<bench_key, bench_val> *, std::uint32_t) {};
    for (std::uint32_t i = 0; i < n; ++i)
        victim.insert(i, 0, 0, dist_lsm_local<bench_key, bench_val>::unbounded,
                      no_lazy{}, no_spill);
    for (auto _ : state) {
        dist_lsm_local<bench_key, bench_val> thief;
        benchmark::DoNotOptimize(
            thief.spy_from(victim, dist_lsm_local<bench_key, bench_val>::unbounded));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_spy)->Arg(256)->Arg(4096);

// Single-thread cost of the full k-LSM vs a plain binary heap — the
// paper's intro comparison (Section 6.1: "the performance of the DLSM is
// close to the binary heap ... k = 0 is significantly slower").
template <typename Q>
void run_pq_churn(benchmark::State &state, Q &q) {
    xoroshiro128 rng{11};
    bench_key k;
    bench_val v;
    // Warm with 4096 elements so deletes hit a populated structure.
    for (int i = 0; i < 4096; ++i)
        q.insert(static_cast<bench_key>(rng()), 0);
    for (auto _ : state) {
        q.insert(static_cast<bench_key>(rng()), 0);
        benchmark::DoNotOptimize(q.try_delete_min(k, v));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 2);
}

void BM_single_thread_binary_heap(benchmark::State &state) {
    struct wrap {
        binary_heap<bench_key, bench_val> h;
        void insert(bench_key k, bench_val v) { h.insert(k, v); }
        bool try_delete_min(bench_key &k, bench_val &v) {
            return h.try_delete_min(k, v);
        }
    } q;
    run_pq_churn(state, q);
}
BENCHMARK(BM_single_thread_binary_heap);

void BM_single_thread_dlsm(benchmark::State &state) {
    dist_pq<bench_key, bench_val> q;
    run_pq_churn(state, q);
}
BENCHMARK(BM_single_thread_dlsm);

void BM_single_thread_klsm(benchmark::State &state) {
    k_lsm<bench_key, bench_val> q{static_cast<std::size_t>(state.range(0))};
    run_pq_churn(state, q);
}
BENCHMARK(BM_single_thread_klsm)->Arg(0)->Arg(4)->Arg(256)->Arg(4096);

} // namespace

BENCHMARK_MAIN();
