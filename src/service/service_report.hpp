#pragma once

// JSON serialization of the `service` and `slo` objects every
// service-workload record carries (README "Service mode & SLOs",
// validated by scripts/check_report.py, diffed by
// scripts/compare_bench.py):
//
//   "service": {
//     "arrival": "poisson", "nominal_rate": ..., "offered_rate": ...,
//     "achieved_rate": ..., "duration_s": ...,
//     "scheduled_ops": ..., "completed_ops": ...,
//     "late_ops": ..., "late_grace_ns": ..., "max_lateness_ns": ...,
//     "mean_lateness_ns": ..., "backlog_max": ...,
//     "unit": "ns", "sub_bucket_bits": 5,
//     "intended":   { "insert": {count, mean, min, p50, p90, p99, p999,
//                                max, dropped_intervals, buckets},
//                     "delete_min": {...} },
//     "completion": { same shape }
//   },
//   "slo": {
//     "metric": "intended_p99_ns", "p99_threshold_ns": ...,
//     "min_achieved_fraction": ..., "offered_rate": ...,
//     "achieved_rate": ..., "observed_p99_ns": ...,
//     "latency_ok": bool, "rate_ok": bool, "pass": bool
//     [, "sustainable_rate": ..., "probes": [[rate, pass], ...]]
//   }
//
// `nominal_rate` is the configured --rate; `offered_rate` is what the
// generated schedule actually offered (scheduled_ops / duration —
// different for spike/diurnal, whose mean rate exceeds the base rate,
// and stochastically off-by-sqrt(n) for poisson).  The intended /
// completion blocks reuse the latency_op_json shape so compare_bench's
// bucket math applies unchanged.

#include <iomanip>
#include <sstream>
#include <string>

#include "service/arrival_schedule.hpp"
#include "service/open_loop.hpp"
#include "service/slo.hpp"
#include "stats/latency_report.hpp"

namespace klsm {
namespace service {

namespace detail {

inline void
append_recorder(std::ostringstream &os, const char *name,
                const stats::latency_recorder_set &recs) {
    os << ",\"" << name << "\":{";
    for (unsigned op = 0; op < stats::op_kinds; ++op) {
        const auto kind = static_cast<stats::op_kind>(op);
        os << (op ? "," : "") << "\"" << stats::op_name(kind) << "\":"
           << stats::latency_op_json(recs.merged(kind),
                                     recs.dropped_intervals(kind));
    }
    os << "}";
}

} // namespace detail

/// The offered rate the schedule realized (vs the configured nominal).
inline double offered_rate(const service_result &res,
                           const arrival_config &acfg) {
    return acfg.duration_s > 0
               ? static_cast<double>(res.scheduled_ops) / acfg.duration_s
               : 0;
}

inline std::string service_json(const service_result &res,
                                const arrival_config &acfg,
                                const service_params &params) {
    std::ostringstream os;
    os << std::setprecision(17);
    os << "{\"arrival\":\"" << arrival_name(acfg.kind) << "\"";
    os << ",\"nominal_rate\":" << acfg.rate;
    os << ",\"offered_rate\":" << offered_rate(res, acfg);
    os << ",\"achieved_rate\":" << res.achieved_rate();
    os << ",\"duration_s\":" << acfg.duration_s;
    os << ",\"scheduled_ops\":" << res.scheduled_ops;
    os << ",\"completed_ops\":" << res.completed_ops;
    os << ",\"late_ops\":" << res.late_ops;
    os << ",\"late_grace_ns\":" << params.late_grace_ns;
    os << ",\"max_lateness_ns\":" << res.max_lateness_ns;
    os << ",\"mean_lateness_ns\":" << res.mean_lateness_ns();
    os << ",\"backlog_max\":" << res.backlog_max;
    os << ",\"unit\":\"ns\",\"sub_bucket_bits\":"
       << stats::latency_histogram::sub_bits;
    detail::append_recorder(os, "intended", res.intended);
    detail::append_recorder(os, "completion", res.completion);
    os << "}";
    return os.str();
}

inline std::string slo_json(const slo_verdict &verdict,
                            const slo_config &cfg,
                            const sustainable_result *sustainable) {
    std::ostringstream os;
    os << std::setprecision(17);
    os << "{\"metric\":\"intended_p99_ns\"";
    os << ",\"p99_threshold_ns\":" << cfg.p99_ns;
    os << ",\"min_achieved_fraction\":" << cfg.min_achieved_fraction;
    os << ",\"offered_rate\":" << verdict.offered_rate;
    os << ",\"achieved_rate\":" << verdict.achieved_rate;
    os << ",\"observed_p99_ns\":" << verdict.observed_p99_ns;
    os << ",\"latency_ok\":" << (verdict.latency_ok ? "true" : "false");
    os << ",\"rate_ok\":" << (verdict.rate_ok ? "true" : "false");
    os << ",\"pass\":" << (verdict.pass ? "true" : "false");
    if (sustainable) {
        os << ",\"sustainable_rate\":" << sustainable->rate;
        os << ",\"probes\":[";
        for (std::size_t i = 0; i < sustainable->probes.size(); ++i)
            os << (i ? "," : "") << "[" << sustainable->probes[i].rate
               << "," << (sustainable->probes[i].pass ? "true" : "false")
               << "]";
        os << "]";
    }
    os << "}";
    return os.str();
}

} // namespace service
} // namespace klsm
