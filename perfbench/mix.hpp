#pragma once

// The closed-loop 50/50 insert/delete-min mix of the throughput_1m
// workload (Figure 3's benchmark), run for a fixed number of operations.

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "harness/workload.hpp"
#include "klsm/pq_concept.hpp"
#include "util/rng.hpp"
#include "util/thread_id.hpp"

namespace perfbench {

struct mix_result {
    std::uint64_t inserts = 0;
    std::uint64_t deletes = 0;
    std::uint64_t failed_deletes = 0;
    double elapsed_s = 0;

    double ops_per_sec() const {
        const double ops =
            static_cast<double>(inserts + deletes + failed_deletes);
        return elapsed_s > 0 ? ops / elapsed_s : 0;
    }
};

/// Figure 3's 50/50 mix as run_throughput runs it (uniform 32-bit keys,
/// one bounded(100) draw per op, the same per-thread seeding), but for a
/// fixed number of operations instead of a fixed time.  Under the mix
/// the queue keeps drifting toward cheaper states, so a fixed window
/// lets a fast start buy more drift and more speed; a fixed count gives
/// every repetition the same trajectory.
template <klsm::relaxed_priority_queue PQ>
mix_result run_mix(PQ &q, unsigned threads, std::uint64_t total_ops,
                   std::uint64_t seed) {
    klsm::check_thread_capacity(threads);
    std::atomic<std::uint64_t> inserts{0}, deletes{0}, failed{0};
    std::barrier sync{static_cast<std::ptrdiff_t>(threads) + 1};
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < threads; ++t)
        ts.emplace_back([&, t] {
            klsm::xoroshiro128 rng{seed + 104729 * (t + 1)};
            const klsm::op_mix mix{50};
            std::uint64_t ins = 0, del = 0, fail = 0;
            typename PQ::key_type key;
            typename PQ::value_type value{};
            auto h = klsm::pq_handle(q);
            sync.arrive_and_wait();
            for (std::uint64_t i = t; i < total_ops; i += threads) {
                if (mix.is_insert(rng)) {
                    h.insert(static_cast<typename PQ::key_type>(
                                 rng() & 0xffffffffULL),
                             value);
                    ++ins;
                } else if (h.try_delete_min(key, value)) {
                    ++del;
                } else {
                    ++fail;
                }
            }
            h.flush();
            inserts.fetch_add(ins);
            deletes.fetch_add(del);
            failed.fetch_add(fail);
        });
    sync.arrive_and_wait();
    const auto t0 = std::chrono::steady_clock::now();
    for (auto &t : ts)
        t.join();
    mix_result out;
    out.elapsed_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    out.inserts = inserts.load();
    out.deletes = deletes.load();
    out.failed_deletes = failed.load();
    return out;
}

} // namespace perfbench
