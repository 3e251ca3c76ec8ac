// perfbench_selftest — the benchmark's own checks, run against queues and
// results that are wrong on purpose.  A check that cannot see a planted
// fault would let a broken program pass the benchmark.
//
//   * a queue that loses one item, or hands one out twice, must raise
//     the conservation check's error_fraction above 0 (an honest queue
//     must leave it at 0);
//   * a corrupted SSSP distance must count as one mismatch;
//   * the rank errors and pop-order inversions behind
//     violation_fraction must be 0 for an exact queue and exact for one
//     that pops in reverse;
//   * at T=4 the per-thread inversion count is not 0 even for an exact
//     queue (see README.md), so its floor is measured with a spin-locked
//     heap on the des_phold and sssp_er1m inputs and must stay below a
//     tenth of the k-LSM's value on the same inputs.
//
// run.py --self-test runs this binary, then every workload in both modes
// to check that every declared metric appears with its unit.  Exit
// status 0 iff every check passed.

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "baselines/binary_heap.hpp"
#include "baselines/spin_heap.hpp"
#include "graph/dijkstra.hpp"
#include "graph/erdos_renyi.hpp"
#include "graph/parallel_sssp.hpp"
#include "harness/workload.hpp"
#include "klsm/k_lsm.hpp"
#include "workloads/des.hpp"

#include "checks.hpp"
#include "mix.hpp"
#include "timed_pq.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char *what) {
    std::cout << (ok ? "pass  " : "FAIL  ") << what << '\n';
    if (!ok)
        ++failures;
}

using queue = klsm::k_lsm<std::uint32_t, std::uint32_t>;

/// Forwards to a k-LSM, but silently drops the `drop_at`-th insert or
/// hands the `dup_at`-th deleted item out a second time.  Only the
/// calling thread uses the fault counters, so the fault fires once.
class faulty_pq {
public:
    using key_type = std::uint32_t;
    using value_type = std::uint32_t;

    faulty_pq(queue &q, std::uint64_t drop_at, std::uint64_t dup_at)
        : q_(&q), drop_at_(drop_at), dup_at_(dup_at) {}

    void insert(const key_type &k, const value_type &v) {
        if (++inserts_ == drop_at_)
            return;
        q_->insert(k, v);
    }
    bool try_delete_min(key_type &k, value_type &v) {
        if (pending_dup_) {
            pending_dup_ = false;
            k = dup_key_;
            v = 0;
            return true;
        }
        if (!q_->try_delete_min(k, v))
            return false;
        if (++deletes_ == dup_at_) {
            pending_dup_ = true;
            dup_key_ = k;
        }
        return true;
    }

private:
    queue *q_;
    std::uint64_t drop_at_, dup_at_;
    std::uint64_t inserts_ = 0, deletes_ = 0;
    bool pending_dup_ = false;
    key_type dup_key_ = 0;
};

/// The throughput_1m check path: prefill, a single-threaded mix, then
/// the conservation drain.  Returns the resulting error fraction.
double conservation_error(std::uint64_t drop_at, std::uint64_t dup_at) {
    queue q(16);
    faulty_pq f(q, drop_at, dup_at);
    const std::size_t prefill = 5000;
    klsm::prefill_queue(f, prefill, 3, 32, 1);
    const perfbench::mix_result res = perfbench::run_mix(f, 1, 20000, 5);
    const std::uint64_t expected = prefill + res.inserts - res.deletes;
    const perfbench::drain_result d = perfbench::drain_queue(f, 0, 100);
    perfbench::check_tally t;
    t.add(expected, perfbench::conservation_failures(expected, d.items));
    return t.error_fraction();
}

void test_conservation() {
    expect(conservation_error(0, 0) == 0.0,
           "honest queue: conservation error_fraction is 0");
    expect(conservation_error(2500, 0) > 0.0,
           "queue dropping one prefilled item: error_fraction > 0");
    expect(conservation_error(6000, 0) > 0.0,
           "queue dropping one item inserted in the mix: error_fraction > 0");
    expect(conservation_error(0, 3000) > 0.0,
           "queue handing one item out twice: error_fraction > 0");
}

void test_distances() {
    klsm::erdos_renyi_params gp;
    gp.nodes = 3000;
    gp.edge_probability = 0.003;
    gp.seed = 11;
    const klsm::graph g = klsm::make_erdos_renyi(gp);
    const std::vector<std::uint64_t> ref = klsm::dijkstra(g, 0).dist;
    klsm::sssp_state state(g.num_nodes());
    klsm::k_lsm<std::uint64_t, std::uint32_t> q(16);
    klsm::parallel_sssp(q, g, 0, 1, state);
    std::vector<std::uint64_t> got = state.snapshot();
    expect(perfbench::distance_mismatches(got, ref) == 0,
           "single-threaded k-LSM SSSP matches Dijkstra");
    got[got.size() / 2] += 1;
    perfbench::check_tally t;
    t.add(ref.size(), perfbench::distance_mismatches(got, ref));
    expect(t.failed == 1 && t.error_fraction() > 0.0,
           "one corrupted distance counts as exactly one mismatch");
}

/// Pops in reverse order of the keys it was given.
struct lifo_pq {
    using key_type = std::uint32_t;
    using value_type = std::uint32_t;
    std::vector<key_type> keys;
    void insert(const key_type &k, const value_type &) { keys.push_back(k); }
    bool try_delete_min(key_type &k, value_type &v) {
        if (keys.empty())
            return false;
        k = keys.back();
        v = 0;
        keys.pop_back();
        return true;
    }
};

void test_order_measures() {
    klsm::binary_heap<std::uint32_t, std::uint32_t> exact;
    lifo_pq lifo;
    for (std::uint32_t i = 0; i < 1000; ++i) {
        exact.insert((i * 7919u) % 1000u, 0);
        lifo.insert(i, 0);
    }
    const perfbench::drain_result e = perfbench::drain_queue(exact, 0, 600);
    expect(e.items == 1000 && e.lead_items == 600 && e.lead_rank_error == 0,
           "exact queue: drained keys have rank error 0");
    const perfbench::drain_result l = perfbench::drain_queue(lifo, 0, 1000);
    expect(l.lead_rank_error == 999.0 * 1000.0 / 2.0,
           "reversed queue: the i-th delete has rank error 999 - i");

    klsm::binary_heap<std::uint32_t, std::uint32_t> heap;
    perfbench::order_tap<decltype(heap)> tap(heap);
    for (std::uint32_t i = 0; i < 100; ++i)
        tap.insert(100 - i, 0);
    std::uint32_t k, v;
    while (tap.try_delete_min(k, v)) {
    }
    const auto t = tap.sum();
    expect(t.inserts == 100 && t.deletes == 100 && t.failed_deletes == 1 &&
               t.inversions == 0,
           "order tap counts calls and sees no inversion in an exact queue");
}

/// Per-thread pop-order inversions per pop of a des_phold T=4 point.
template <typename Q> double des_inversions(Q &q) {
    klsm::workloads::des_params p;
    p.lps = 256;
    p.population = 8192;
    p.target_events = 2000000;
    p.threads = 4;
    p.seed = 21;
    perfbench::order_tap<Q> tap(q);
    klsm::workloads::run_des(tap, p);
    const auto t = tap.sum();
    return static_cast<double>(t.inversions) / static_cast<double>(t.deletes);
}

/// The same for one sssp_er1m T=4 solve on `g`.
template <typename Q>
double sssp_inversions(const klsm::graph &g, klsm::sssp_state &state, Q &q) {
    perfbench::order_tap<Q> tap(q);
    klsm::parallel_sssp(tap, g, 0, 4, state);
    const auto t = tap.sum();
    return static_cast<double>(t.inversions) / static_cast<double>(t.deletes);
}

void test_inversion_floor() {
    {
        klsm::spin_heap<std::uint64_t, std::uint64_t> exact;
        klsm::k_lsm<std::uint64_t, std::uint64_t> relaxed(256);
        const double floor = des_inversions(exact);
        const double klsm = des_inversions(relaxed);
        std::printf("      des_phold T=4 inversions/pop: exact %.3g, "
                    "k-LSM %.3g\n",
                    floor, klsm);
        expect(floor < klsm / 10,
               "des_phold: exact-queue inversion floor < k-LSM / 10");
    }
    klsm::erdos_renyi_params gp;
    gp.nodes = 1000000;
    gp.edge_probability = 1e-5;
    gp.seed = 23;
    const klsm::graph g = klsm::make_erdos_renyi(gp);
    klsm::sssp_state s1(g.num_nodes()), s2(g.num_nodes());
    klsm::spin_heap<std::uint64_t, std::uint32_t> exact;
    klsm::k_lsm<std::uint64_t, std::uint32_t, klsm::sssp_lazy> relaxed(
        256, klsm::sssp_lazy{&s2});
    const double floor = sssp_inversions(g, s1, exact);
    const double klsm = sssp_inversions(g, s2, relaxed);
    std::printf("      sssp_er1m T=4 inversions/pop: exact %.3g, k-LSM %.3g\n",
                floor, klsm);
    expect(floor < klsm / 10,
           "sssp_er1m: exact-queue inversion floor < k-LSM / 10");
}

} // namespace

int main() {
    test_conservation();
    test_distances();
    test_order_measures();
    test_inversion_floor();
    std::cout << (failures == 0 ? "all checks passed" : "checks FAILED")
              << '\n';
    return failures == 0 ? 0 : 1;
}
