// The `churn` workload registrant (harness/churn.hpp): a four-phase
// program of key-range shifts, an insert surge, and bursty drains,
// with the queue quiesced and shrunk at every phase boundary.  Each
// record carries a `memory_timeline` object — RSS and pool-counter
// samples over the run plus the derived plateau verdict.  The timeline
// is reported here and *enforced* by `scripts/check_report.py --bench
// <klsm_bench> churn` (shrink events observed, final RSS on the
// steady-phase plateau), so a soak regression fails CI without making
// every local bench run brittle.

#include <memory>

#include "bench_common.hpp"
#include "harness/churn.hpp"

namespace klsm::bench {
namespace {

struct churn_config {
    std::uint64_t churn_ops = 50000;
    double sample_interval_ms = 50.0;
};

int run(const churn_config &w, const core_config &cfg,
        klsm::json_reporter &json) {
    klsm::table_reporter report({"structure", "pin", "threads", "ops",
                                 "ops/s", "shrinks", "rss_hw_mb",
                                 "plateau"},
                                cfg.csv, table_stream(cfg));
    for (const auto &pin : cfg.pins) {
        const auto cpus = pin_order(pin);
        for (const auto threads_i : cfg.threads_list) {
            const auto threads = static_cast<unsigned>(threads_i);
            for (const auto &name : cfg.structures) {
                const bool ok = with_structure<bench_key, bench_val>(
                    name, threads, build_k(cfg, name), cfg,
                    [&](auto &q) {
                        klsm::churn_params params;
                        params.threads = threads;
                        params.ops_per_phase = w.churn_ops;
                        params.prefill = cfg.prefill;
                        params.seed = cfg.seed;
                        params.sample_interval_s =
                            w.sample_interval_ms / 1000.0;
                        record_sampling sampling{cfg, threads,
                                                 /*duration_hint_s=*/0};
                        sampling.wire(q, nullptr);
                        params.hooks = record_hooks(cfg, cpus, nullptr,
                                                    nullptr, &sampling);
                        KLSM_TRACE_SPAN(rec_span,
                                        klsm::trace::kind::bench_record);
                        rec_span.arg(
                            klsm::trace::clamp16(g_record_index++));
                        sampling.start();
                        const auto res = klsm::run_churn(q, params);
                        const auto &tl = res.timeline;
                        const double ops_per_sec =
                            res.elapsed_s > 0
                                ? static_cast<double>(res.total_ops()) /
                                      res.elapsed_s
                                : 0.0;
                        report.row(
                            name, pin, threads, res.total_ops(),
                            ops_per_sec, tl.shrink_events,
                            static_cast<double>(tl.rss_high_water_bytes) /
                                (1024.0 * 1024.0),
                            !tl.rss_reliable ? "n/a"
                            : tl.plateau_ok  ? "ok"
                                             : "FAIL");
                        auto &rec = json.add_record();
                        rec.set("workload", "churn");
                        rec.set("structure", name);
                        rec.set("pin", pin);
                        rec.set("threads", threads);
                        rec.set("prefill", cfg.prefill);
                        rec.set("ops", res.total_ops());
                        rec.set("inserts", res.inserts);
                        rec.set("deletes", res.deletes);
                        rec.set("failed_deletes", res.failed_deletes);
                        rec.set("pin_failures", res.pin_failures);
                        rec.set("elapsed_s", res.elapsed_s);
                        rec.set("ops_per_sec", ops_per_sec);
                        rec.set_raw("memory_timeline", tl.to_json());
                        sampling.finish(rec,
                                        record_label(name, pin, threads));
                        attach_memory(rec, q, cfg);
                    });
                if (!ok)
                    return 2;
            }
        }
    }
    return 0;
}

} // namespace

workload_entry churn_workload() {
    auto w = std::make_shared<churn_config>();
    workload_entry e;
    e.name = "churn";
    e.summary = "four-phase allocation soak with a memory timeline";
    e.reclaim_soak = true;
    e.register_flags = [](cli_parser &cli) {
        cli.add_flag("churn-ops", "50000",
                     "operations per thread per phase");
        cli.add_flag("sample-interval-ms", "50",
                     "memory-timeline sampling period in milliseconds");
    };
    e.configure = [w](const cli_parser &cli, const core_config &core) {
        w->churn_ops = cli.get_uint64("churn-ops");
        w->sample_interval_ms = cli.get_double("sample-interval-ms");
        if (w->churn_ops == 0) {
            std::cerr << "--churn-ops must be positive\n";
            return false;
        }
        if (w->sample_interval_ms <= 0) {
            std::cerr << "--sample-interval-ms must be positive\n";
            return false;
        }
        if (core.smoke) {
            w->churn_ops = std::min<std::uint64_t>(w->churn_ops, 5000);
            w->sample_interval_ms =
                std::min(w->sample_interval_ms, 10.0);
        }
        return true;
    };
    e.annotate_meta = [w](const core_config &core,
                          klsm::json_record &meta) {
        meta.set("churn_ops", w->churn_ops);
        meta.set("sample_interval_ms", w->sample_interval_ms);
        meta.set("prefill", core.prefill);
    };
    e.run = [w](const core_config &core, klsm::json_reporter &json) {
        return run(*w, core, json);
    };
    return e;
}

} // namespace klsm::bench
