#pragma once

// Taps on the k-LSM's public interface, from outside the library.  Both
// forward insert / try_delete_min to a queue and satisfy
// relaxed_priority_queue, so every harness entry point (run_des,
// parallel_sssp, the benchmark's own mix loop) accepts them unchanged.
//
//   timed_pq<PQ>   records each call's duration (traced runs only);
//   order_tap<PQ>  counts calls and, per thread, deletes that returned a
//                  smaller key than the thread's previous delete — no
//                  clock reads, cheap enough for untimed-mode runs.
//
// Slots are indexed by the library's dense thread id and written only by
// their owner, so a tap adds a few owner-local stores per call (and
// timed_pq two clock reads) and no shared cache lines.

#include <chrono>
#include <cstdint>
#include <memory>

#include "klsm/pq_concept.hpp"
#include "stats/latency_histogram.hpp"
#include "util/align.hpp"
#include "util/thread_id.hpp"

namespace perfbench {

/// One thread's view of the queue calls it made.
struct alignas(klsm::cache_line_size) call_slot {
    klsm::stats::latency_histogram insert_ns;
    klsm::stats::latency_histogram delete_ns; ///< successful deletes only
    std::uint64_t inserts = 0;
    std::uint64_t deletes = 0;
    std::uint64_t failed_deletes = 0;
    std::uint64_t queue_ns = 0; ///< time inside every call, failed too
};

/// Merged view over all slots.
struct call_totals {
    klsm::stats::latency_histogram insert_ns;
    klsm::stats::latency_histogram delete_ns;
    std::uint64_t inserts = 0;
    std::uint64_t deletes = 0;
    std::uint64_t failed_deletes = 0;
    std::uint64_t queue_ns = 0;

    std::uint64_t ops() const { return inserts + deletes + failed_deletes; }

    void merge(const call_slot &s) {
        insert_ns.merge(s.insert_ns);
        delete_ns.merge(s.delete_ns);
        inserts += s.inserts;
        deletes += s.deletes;
        failed_deletes += s.failed_deletes;
        queue_ns += s.queue_ns;
    }
    void merge(const call_totals &o) {
        insert_ns.merge(o.insert_ns);
        delete_ns.merge(o.delete_ns);
        inserts += o.inserts;
        deletes += o.deletes;
        failed_deletes += o.failed_deletes;
        queue_ns += o.queue_ns;
    }
};

/// Per-thread call slots for one timed section.
class call_recorder {
public:
    call_recorder()
        : slots_(std::make_unique<call_slot[]>(
              klsm::max_registered_threads)) {}

    call_slot &self() { return slots_[klsm::thread_index()]; }

    /// Merge every slot; call after the workers have joined.
    call_totals totals() const {
        call_totals out;
        for (std::uint32_t i = 0; i < klsm::max_registered_threads; ++i)
            out.merge(slots_[i]);
        return out;
    }

private:
    std::unique_ptr<call_slot[]> slots_;
};

inline std::uint64_t clock_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Forwarding wrapper that times every call into `PQ`.
template <klsm::relaxed_priority_queue PQ>
class timed_pq {
public:
    using key_type = typename PQ::key_type;
    using value_type = typename PQ::value_type;

    timed_pq(PQ &q, call_recorder &rec) : q_(&q), rec_(&rec) {}

    void insert(const key_type &key, const value_type &value) {
        call_slot &s = rec_->self();
        const std::uint64_t t0 = clock_ns();
        q_->insert(key, value);
        const std::uint64_t dt = clock_ns() - t0;
        s.insert_ns.record(dt);
        s.queue_ns += dt;
        ++s.inserts;
    }

    bool try_delete_min(key_type &key, value_type &value) {
        call_slot &s = rec_->self();
        const std::uint64_t t0 = clock_ns();
        const bool ok = q_->try_delete_min(key, value);
        const std::uint64_t dt = clock_ns() - t0;
        s.queue_ns += dt;
        if (ok) {
            s.delete_ns.record(dt);
            ++s.deletes;
        } else {
            ++s.failed_deletes;
        }
        return ok;
    }

private:
    PQ *q_;
    call_recorder *rec_;
};

/// Counting, untimed tap; see the header comment.
template <klsm::relaxed_priority_queue PQ>
class order_tap {
public:
    using key_type = typename PQ::key_type;
    using value_type = typename PQ::value_type;

    struct totals {
        std::uint64_t inserts = 0;
        std::uint64_t deletes = 0;
        std::uint64_t failed_deletes = 0;
        std::uint64_t inversions = 0;
    };

    explicit order_tap(PQ &q)
        : q_(&q),
          slots_(std::make_unique<slot[]>(klsm::max_registered_threads)) {}

    void insert(const key_type &key, const value_type &value) {
        q_->insert(key, value);
        ++self().counts.inserts;
    }

    bool try_delete_min(key_type &key, value_type &value) {
        slot &s = self();
        if (!q_->try_delete_min(key, value)) {
            ++s.counts.failed_deletes;
            return false;
        }
        if (s.counts.deletes++ > 0 && key < s.last)
            ++s.counts.inversions;
        s.last = key;
        return true;
    }

    /// Merge every slot; call after the workers have joined.
    totals sum() const {
        totals t;
        for (std::uint32_t i = 0; i < klsm::max_registered_threads; ++i) {
            const totals &c = slots_[i].counts;
            t.inserts += c.inserts;
            t.deletes += c.deletes;
            t.failed_deletes += c.failed_deletes;
            t.inversions += c.inversions;
        }
        return t;
    }

private:
    struct alignas(klsm::cache_line_size) slot {
        totals counts;
        key_type last{};
    };

    slot &self() { return slots_[klsm::thread_index()]; }

    PQ *q_;
    std::unique_ptr<slot[]> slots_;
};

} // namespace perfbench
