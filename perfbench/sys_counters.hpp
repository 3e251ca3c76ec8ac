#pragma once

// Process-level counters read around each timed section, so a move in a
// timing can be told apart from a move in the machine.
//
// Software counters from getrusage(RUSAGE_SELF): minor+major page
// faults, voluntary+involuntary context switches, user+system CPU time.
// RUSAGE_SELF covers every thread of the process, joined ones included,
// so a delta across a section that spawns and joins its workers is exact.

#include <sys/resource.h>

#include <cstdint>

namespace perfbench {

struct sw_sample {
    std::uint64_t page_faults = 0;
    std::uint64_t ctx_switches = 0;
    double cpu_s = 0;
    double wall_s = 0;
};

inline double timeval_s(const timeval &tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

/// Cumulative software counters of the whole process right now.
inline sw_sample read_sw(double wall_now_s) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    sw_sample s;
    s.page_faults = static_cast<std::uint64_t>(ru.ru_minflt + ru.ru_majflt);
    s.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
    s.cpu_s = timeval_s(ru.ru_utime) + timeval_s(ru.ru_stime);
    s.wall_s = wall_now_s;
    return s;
}

/// Sum of software-counter deltas over the timed sections of a run.
struct sw_totals {
    std::uint64_t page_faults = 0;
    std::uint64_t ctx_switches = 0;
    double cpu_s = 0;
    double wall_s = 0;

    void add(const sw_sample &before, const sw_sample &after) {
        page_faults += after.page_faults - before.page_faults;
        ctx_switches += after.ctx_switches - before.ctx_switches;
        cpu_s += after.cpu_s - before.cpu_s;
        wall_s += after.wall_s - before.wall_s;
    }
    /// Cores kept busy on average (CPU seconds per wall second).
    double cpu_util() const { return wall_s > 0 ? cpu_s / wall_s : 0.0; }
};

} // namespace perfbench
