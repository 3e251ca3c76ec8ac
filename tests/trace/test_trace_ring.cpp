// The tracing tier (src/trace/): ring semantics, drop accounting, the
// process-wide tracer's multi-producer drain, and the exporter's
// ordering guarantees.
//
// The tracer is a process singleton, so every test that arms it resets
// it afterwards; the fixture enforces that even on assertion failure.

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "trace/metrics_sampler.hpp"
#include "trace/trace_event.hpp"
#include "trace/trace_export.hpp"
#include "trace/trace_ring.hpp"
#include "trace/tracer.hpp"

namespace {

using klsm::trace::kind;
using klsm::trace::trace_event;
using klsm::trace::trace_ring;
using klsm::trace::tracer;

trace_event make_event(std::uint64_t ts, std::uint32_t b) {
    trace_event e;
    e.ts_ns = ts;
    e.kind_ = static_cast<std::uint16_t>(kind::dist_spill);
    e.b = b;
    return e;
}

std::vector<trace_event> drain(const trace_ring &r) {
    std::vector<trace_event> out;
    r.for_each([&out](const trace_event &e) { out.push_back(e); });
    return out;
}

TEST(TraceRing, CapacityRoundsUpToAPowerOfTwo) {
    EXPECT_EQ(trace_ring{1}.capacity(), 2u);
    EXPECT_EQ(trace_ring{2}.capacity(), 2u);
    EXPECT_EQ(trace_ring{3}.capacity(), 4u);
    EXPECT_EQ(trace_ring{1000}.capacity(), 1024u);
    EXPECT_EQ(trace_ring{1024}.capacity(), 1024u);
}

TEST(TraceRing, RetainsEverythingBelowCapacity) {
    trace_ring r{8};
    for (std::uint32_t i = 0; i < 5; ++i)
        r.push(make_event(100 + i, i));
    EXPECT_EQ(r.pushed(), 5u);
    EXPECT_EQ(r.size(), 5u);
    EXPECT_EQ(r.dropped(), 0u);
    const auto events = drain(r);
    ASSERT_EQ(events.size(), 5u);
    for (std::uint32_t i = 0; i < 5; ++i)
        EXPECT_EQ(events[i].b, i);
}

TEST(TraceRing, WrapKeepsTheMostRecentWindowInOrder) {
    trace_ring r{4};
    for (std::uint32_t i = 0; i < 11; ++i)
        r.push(make_event(100 + i, i));
    EXPECT_EQ(r.pushed(), 11u);
    EXPECT_EQ(r.size(), 4u);
    // Exact drop accounting: 11 pushed into capacity 4 loses 7.
    EXPECT_EQ(r.dropped(), 7u);
    const auto events = drain(r);
    ASSERT_EQ(events.size(), 4u);
    // Oldest-first, and precisely the newest four (7, 8, 9, 10).
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(events[i].b, 7 + i);
        EXPECT_EQ(events[i].ts_ns, 107u + i);
    }
}

TEST(TraceRing, DropCounterTracksEveryFurtherOverwrite) {
    trace_ring r{2};
    r.push(make_event(1, 0));
    r.push(make_event(2, 1));
    EXPECT_EQ(r.dropped(), 0u);
    for (std::uint32_t i = 2; i < 50; ++i) {
        r.push(make_event(i + 1, i));
        EXPECT_EQ(r.dropped(), i - 1);
    }
}

/// Arms the singleton tracer and guarantees reset on scope exit, so a
/// failing assertion cannot leak an armed tracer into later tests.
struct tracer_guard {
    explicit tracer_guard(std::size_t ring_capacity) {
        tracer::instance().reset();
        tracer::instance().enable(ring_capacity);
    }
    ~tracer_guard() {
        tracer::instance().disable();
        tracer::instance().reset();
    }
};

/// Runs `threads` producers that each emit `per_thread` events, and
/// holds every producer alive until all have finished emitting.
/// Without the hold-open a producer can run to completion and exit
/// before the next one spawns (single-core schedulers do exactly
/// this), releasing its thread_index slot for reuse — and two
/// producers sharing a slot share a ring, which is not the
/// multi-producer shape these tests are about.
template <typename Emit>
void run_producers(unsigned threads, Emit emit_all) {
    std::atomic<unsigned> done{0};
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < threads; ++t) {
        ts.emplace_back([&done, threads, emit_all] {
            emit_all();
            done.fetch_add(1);
            while (done.load() < threads)
                std::this_thread::yield();
        });
    }
    for (auto &t : ts)
        t.join();
}

TEST(Tracer, MultiProducerDrainIsSortedAndPerThreadOrdered) {
    tracer_guard guard{1 << 12};
    constexpr unsigned threads = 4;
    constexpr std::uint32_t per_thread = 2000;

    run_producers(threads, [] {
        for (std::uint32_t i = 0; i < per_thread; ++i)
            klsm::trace::emit(kind::dist_spill, 0, i);
    });

    tracer::drain_stats stats;
    const auto events = tracer::instance().drain_sorted(&stats);
    EXPECT_EQ(stats.recorded, events.size());
    EXPECT_EQ(stats.dropped, 0u);
    EXPECT_EQ(stats.rings, threads);
    ASSERT_EQ(events.size(),
              static_cast<std::size_t>(threads) * per_thread);

    // Globally sorted by timestamp...
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(events[i - 1].ev.ts_ns, events[i].ev.ts_ns);
    // ...and within each producer the per-thread program order (the
    // monotone payload sequence) survives the merge: each thread's
    // clock reads are themselves monotone, and the sort is stable.
    std::vector<std::uint32_t> next(klsm::max_registered_threads, 0);
    for (const auto &te : events) {
        ASSERT_LT(te.tid, next.size());
        EXPECT_EQ(te.ev.b, next[te.tid]);
        ++next[te.tid];
    }
}

TEST(Tracer, WrapAcrossThreadsReportsAggregateDrops) {
    tracer_guard guard{64};
    constexpr unsigned threads = 2;
    constexpr std::uint32_t per_thread = 500;
    run_producers(threads, [] {
        for (std::uint32_t i = 0; i < per_thread; ++i)
            klsm::trace::emit(kind::dist_spill, 0, i);
    });
    tracer::drain_stats stats;
    const auto events = tracer::instance().drain_sorted(&stats);
    EXPECT_EQ(events.size(), static_cast<std::size_t>(threads) * 64);
    EXPECT_EQ(stats.recorded, events.size());
    EXPECT_EQ(stats.dropped,
              static_cast<std::uint64_t>(threads) * (per_thread - 64));
    // Each ring retained its newest window.
    for (const auto &te : events)
        EXPECT_GE(te.ev.b, per_thread - 64);
}

TEST(Tracer, InactiveEmitRecordsNothing) {
    tracer::instance().reset();
    ASSERT_FALSE(klsm::trace::active());
    // The macro gate: argument side effects must not run either.
    int evaluated = 0;
    KLSM_TRACE_EVENT(kind::dist_spill, (++evaluated, 1), 2);
    EXPECT_EQ(evaluated, 0);
    tracer::drain_stats stats;
    const auto events = tracer::instance().drain_sorted(&stats);
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(stats.recorded, 0u);
}

TEST(Tracer, SpanRecordsEndTimestampAndDuration) {
    tracer_guard guard{256};
    {
        KLSM_TRACE_SPAN(s, kind::bench_record);
        s.arg(7);
    }
    const auto events = tracer::instance().drain_sorted();
    ASSERT_EQ(events.size(), 1u);
    const trace_event &e = events[0].ev;
    EXPECT_EQ(e.kind_, static_cast<std::uint16_t>(kind::bench_record));
    EXPECT_EQ(e.a, 7u);
    EXPECT_GE(e.ts_ns, tracer::instance().base_ns());
    // The span's start (end - dur) cannot precede the tracer's base.
    EXPECT_GE(e.ts_ns - e.b, tracer::instance().base_ns());
}

TEST(Tracer, CancelledSpanRecordsNothing) {
    tracer_guard guard{256};
    {
        KLSM_TRACE_SPAN(s, kind::bench_record);
        s.cancel();
    }
    EXPECT_TRUE(tracer::instance().drain_sorted().empty());
}

TEST(TraceExport, ChromeTraceIsWellFormedAndMonotone) {
    tracer_guard guard{256};
    klsm::trace::emit(kind::dist_spill, 3, 41);
    {
        KLSM_TRACE_SPAN(s, kind::dist_publish);
        s.arg(2);
    }
    std::vector<klsm::trace::counter_series> counters(1);
    counters[0].name = "ops_per_sec";
    counters[0].points.emplace_back(klsm::now_ns(), 123.0);

    std::ostringstream os;
    klsm::trace::write_chrome_trace(os, tracer::instance(), &counters);
    const std::string doc = os.str();
    // Structural spot checks; the full schema walk lives in
    // scripts/check_report.py --trace (shared with the CI smoke job).
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"dist.spill\""), std::string::npos);
    EXPECT_NE(doc.find("\"dist.publish\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(doc.find("\"ops_per_sec\""), std::string::npos);
    EXPECT_NE(doc.find("\"dropped_events\": 0"), std::string::npos);
}

TEST(MetricsSampler, CountersAndGaugesLandInRowsAndTracks) {
    klsm::trace::metrics_sampler sampler{0.002, 0.002};
    std::atomic<std::uint64_t> ops{0};
    sampler.add_counter("ops", [&ops] {
        return static_cast<double>(ops.load(std::memory_order_relaxed));
    });
    sampler.add_gauge("level", [] { return 42.0; });
    sampler.start(); // t=0 row sampled immediately
    for (int i = 0; i < 40 && sampler.samples() < 4; ++i) {
        ops += 100;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    sampler.stop(); // final row
    ASSERT_GE(sampler.samples(), 3u);

    const std::string json = sampler.json();
    EXPECT_NE(json.find("\"interval_ms\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"counter\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"gauge\""), std::string::npos);

    const auto tracks = sampler.counter_tracks();
    ASSERT_EQ(tracks.size(), 2u);
    // Counters become rates; gauges keep their name and level.
    EXPECT_EQ(tracks[0].name, "ops_per_sec");
    EXPECT_EQ(tracks[1].name, "level");
    for (const auto &[ts, v] : tracks[1].points)
        EXPECT_EQ(v, 42.0);
    // Rate points are one fewer than rows (no delta for the t=0 row).
    EXPECT_EQ(tracks[0].points.size(), sampler.samples() - 1);
}

} // namespace
