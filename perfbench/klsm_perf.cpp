// klsm_perf — the repository benchmark's binary (README.md has the
// workloads, the metrics and how each is defined).
//
//   klsm_perf --workload throughput_1m|des_phold|sssp_er1m --seed N
//             --seconds S --trace 0|1
//
// Runs the k-LSM (k = 256) through the library's public entry points
// (k_lsm::insert / try_delete_min through pq_handle, run_des,
// parallel_sssp), checks every output, and prints one JSON record on
// stdout.  With --trace 0 the record carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics, measured by timing
// calls into each layer from this file (timed_pq.hpp, probes.hpp) and by
// reading the counters the layers expose (contention monitor, pool
// memory_stats).  Exit status: 0 on a completed run (failed checks are
// reported in the record), 2 on a usage error, 1 otherwise.

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "adapt/contention_monitor.hpp"
#include "graph/dijkstra.hpp"
#include "graph/erdos_renyi.hpp"
#include "graph/parallel_sssp.hpp"
#include "harness/workload.hpp"
#include "klsm/k_lsm.hpp"
#include "util/rng.hpp"
#include "util/thread_id.hpp"
#include "workloads/des.hpp"

#include "checks.hpp"
#include "mix.hpp"
#include "probes.hpp"
#include "sys_counters.hpp"
#include "timed_pq.hpp"

namespace {

using namespace perfbench;
using clk = std::chrono::steady_clock;

constexpr std::size_t relaxation_k = 256;
constexpr unsigned many_threads = 4;

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

double since(clk::time_point t0) {
    return std::chrono::duration<double>(clk::now() - t0).count();
}

double median(std::vector<double> v) {
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// Distinct, reproducible sub-seed for repetition `rep` of a run.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t rep) {
    std::uint64_t s = seed * 0x9e3779b97f4a7c15ULL + rep;
    return klsm::splitmix64(s);
}

std::uint64_t peak_rss_kb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoull(line.substr(6));
    return 0;
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

std::string json_escape(const std::string &s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string num(double v) {
    if (!std::isfinite(v))
        return "null";
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

/// Per-repetition samples of every quantity a run measures; metrics are
/// their medians.
struct sample_set {
    std::map<std::string, std::vector<double>> values;

    void add(const std::string &name, double v) { values[name].push_back(v); }
    double med(const std::string &name) const {
        auto it = values.find(name);
        return it == values.end() ? 0 : median(it->second);
    }
    double sum(const std::string &name) const {
        auto it = values.find(name);
        double t = 0;
        if (it != values.end())
            for (double v : it->second)
                t += v;
        return t;
    }
};

/// What the traced sections of a run accumulate for the per-layer
/// metrics.
struct layer_totals {
    call_totals calls;
    double thread_seconds = 0; ///< sum over sections of threads * wall
    klsm::adapt::contention_window events;
    std::uint64_t block_fresh = 0;
    std::uint64_t item_reuse = 0;
    std::uint64_t item_fresh = 0;
    std::uint64_t sections = 0;
    std::uint64_t shared_bytes = 0;
    std::uint64_t dist_bytes = 0;
    std::uint64_t item_bytes = 0;

    void merge(const layer_totals &o) {
        calls.merge(o.calls);
        thread_seconds += o.thread_seconds;
        events.publishes += o.events.publishes;
        events.publish_retries += o.events.publish_retries;
        events.shared_hits += o.events.shared_hits;
        events.local_hits += o.events.local_hits;
        events.spies += o.events.spies;
        block_fresh += o.block_fresh;
        item_reuse += o.item_reuse;
        item_fresh += o.item_fresh;
        sections += o.sections;
        shared_bytes = std::max(shared_bytes, o.shared_bytes);
        dist_bytes = std::max(dist_bytes, o.dist_bytes);
        item_bytes = std::max(item_bytes, o.item_bytes);
    }
};

/// Instrumentation attached to one queue for one traced section.
class traced_section {
public:
    template <typename PQ>
    explicit traced_section(PQ &q) {
        q.set_monitor(&monitor_);
    }

    call_recorder &recorder() { return rec_; }

    template <typename PQ>
    void finish(PQ &q, unsigned threads, double wall_s,
                const klsm::mm::memory_stats &before, layer_totals &out) {
        q.set_monitor(nullptr);
        const klsm::mm::memory_stats after = q.memory_stats();
        layer_totals t;
        t.calls.merge(rec_.totals());
        t.thread_seconds = threads * wall_s;
        t.events = monitor_.totals();
        t.block_fresh =
            (after.dist_blocks.fresh_allocs - before.dist_blocks.fresh_allocs) +
            (after.shared_blocks.fresh_allocs -
             before.shared_blocks.fresh_allocs);
        t.item_reuse = (after.items.reuse_hits - before.items.reuse_hits) +
                       (after.items.freelist_hits - before.items.freelist_hits);
        t.item_fresh = after.items.fresh_allocs - before.items.fresh_allocs;
        t.shared_bytes = after.shared_blocks.bytes;
        t.dist_bytes = after.dist_blocks.bytes;
        t.item_bytes = after.items.bytes;
        t.sections = 1;
        out.merge(t);
    }

private:
    klsm::adapt::contention_monitor monitor_;
    call_recorder rec_;
};

/// The counters a run sums over its points (trivially copyable, so an
/// isolated point can hand them back through a pipe as bytes).
struct point_counts {
    check_tally checks;
    layer_totals layers;
    sw_totals sys; ///< sys.wall_s is the run's measured (timed) time
    std::uint64_t peak_rss_kb = 0;

    void merge(const point_counts &o) {
        checks.add(o.checks.attempted, o.checks.failed);
        layers.merge(o.layers);
        sys.page_faults += o.sys.page_faults;
        sys.ctx_switches += o.sys.ctx_switches;
        sys.cpu_s += o.sys.cpu_s;
        sys.wall_s += o.sys.wall_s;
        peak_rss_kb = std::max(peak_rss_kb, o.peak_rss_kb);
    }
};
static_assert(std::is_trivially_copyable_v<point_counts>);

/// Everything one run produces.
struct run_report {
    sample_set samples;
    point_counts counts;
    /// Probe inputs: the workload's resident set and largest block level.
    std::size_t resident = 0;
    std::uint32_t max_level = 1;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;

    void put(const std::string &name, double v, const std::string &unit) {
        metrics.push_back({name, {v, unit}});
    }
};

/// Time a section of worker activity and fold its software counters in.
template <typename F>
auto timed_section(run_report &r, F &&body) {
    const auto t0 = clk::now();
    const sw_sample before = read_sw(0);
    auto result = body();
    const sw_sample after = read_sw(since(t0));
    r.counts.sys.add(before, after);
    return result;
}

void write_all(int fd, const std::string &s) {
    std::size_t off = 0;
    while (off < s.size()) {
        const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
        if (n <= 0)
            return;
        off += static_cast<std::size_t>(n);
    }
}

std::string read_all(int fd) {
    std::string out;
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n <= 0)
            return out;
        out.append(buf, static_cast<std::size_t>(n));
    }
}

/// Run `body(report)` in a forked child and fold what it measured into
/// `r`.  Every timed point of a run gets a fresh heap this way: within
/// one process each further 10^6-item queue ran measurably slower than
/// the one before it (allocator history), which would make a point's
/// result depend on how many points preceded it.  The caller must have
/// no other threads running (all workers joined).
template <typename F>
void isolated(run_report &r, F &&body) {
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    std::cout.flush();
    std::cerr.flush();
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        close(fds[0]);
        run_report child;
        child.resident = r.resident;
        child.max_level = r.max_level;
        int code = 0;
        try {
            body(child);
        } catch (const std::exception &e) {
            std::cerr << "klsm_perf: " << e.what() << std::endl;
            code = 1;
        }
        // Keep the nested points' peaks merged in by body().
        child.counts.peak_rss_kb =
            std::max(child.counts.peak_rss_kb, peak_rss_kb());
        std::string out(reinterpret_cast<const char *>(&child.counts),
                        sizeof child.counts);
        char line[96];
        for (const auto &[name, vals] : child.samples.values)
            for (double v : vals) {
                std::snprintf(line, sizeof line, " %.17g\n", v);
                out += name + line;
            }
        write_all(fds[1], out);
        close(fds[1]);
        _exit(code);
    }
    close(fds[1]);
    const std::string in = read_all(fds[0]);
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        in.size() < sizeof(point_counts))
        throw std::runtime_error("an isolated point failed");
    point_counts c;
    std::memcpy(&c, in.data(), sizeof c);
    r.counts.merge(c);
    std::istringstream lines(in.substr(sizeof c));
    std::string name, value;
    while (lines >> name >> value)
        r.samples.add(name, std::strtod(value.c_str(), nullptr));
}

// ---- throughput_1m -------------------------------------------------------

using tp_queue = klsm::k_lsm<std::uint32_t, std::uint32_t>;

struct tp_point {
    mix_result res;
    drain_result drain;
};

/// One mix on a prefilled queue at `threads`, then the conservation
/// drain (led by `lead` single-threaded deletes).
template <typename Q>
tp_point throughput_point(Q &q, run_report &r, std::size_t prefill,
                          std::uint64_t ops, unsigned threads,
                          std::uint64_t seed, std::uint64_t lead,
                          traced_section *tr) {
    tp_point out;
    klsm::mm::memory_stats before;
    if constexpr (klsm::pool_backed<Q>)
        before = q.memory_stats();
    out.res = timed_section(r, [&] {
        if (tr != nullptr) {
            timed_pq<Q> wrapped(q, tr->recorder());
            return run_mix(wrapped, threads, ops, seed);
        }
        return run_mix(q, threads, ops, seed);
    });
    if constexpr (requires { q.set_monitor(nullptr); })
        if (tr != nullptr)
            tr->finish(q, threads, out.res.elapsed_s, before, r.counts.layers);
    const std::uint64_t expected = prefill + out.res.inserts - out.res.deletes;
    out.drain = drain_queue(q, many_threads, lead);
    r.counts.checks.add(expected,
                        conservation_failures(expected, out.drain.items));
    return out;
}

double prefill_timed(auto &q, std::size_t n, std::uint64_t seed) {
    const auto t0 = clk::now();
    klsm::prefill_queue(q, n, seed, 32, many_threads);
    return since(t0);
}

void run_throughput_1m(const options &o, run_report &r) {
    const std::size_t prefill = 1000000;
    // Operations per timed mix: about two seconds at T=1 and one at T=4
    // on a 4-CPU VM.  T=1 rates spread far more across repetitions than
    // T=4 rates, so the T=1 point gets the larger share of the run.
    const std::uint64_t ops_t1 = 4000000;
    const std::uint64_t ops_t4 = 4000000;
    const std::uint64_t lead = prefill / 10;
    r.resident = prefill;
    r.max_level = klsm::block<std::uint32_t, std::uint32_t>::level_for(
        static_cast<std::uint32_t>(prefill));
    for (unsigned rep = 0; rep < 2 || r.counts.sys.wall_s < o.seconds;
         ++rep) {
        const bool traced = o.trace && rep % 2 == 1;
        const std::string tag = traced ? "traced." : "";
        const std::uint64_t seed = sub_seed(o.seed, rep);
        for (unsigned threads : {1u, many_threads})
            isolated(r, [&](run_report &c) {
                auto q = std::make_unique<tp_queue>(relaxation_k);
                c.samples.add("setup_s", prefill_timed(*q, prefill, seed));
                std::unique_ptr<traced_section> tr;
                if (traced)
                    tr = std::make_unique<traced_section>(*q);
                const tp_point pt = throughput_point(
                    *q, c, prefill, threads == 1 ? ops_t1 : ops_t4, threads,
                    seed + threads, threads == 1 ? lead : 0, tr.get());
                const double ops = pt.res.ops_per_sec();
                if (threads == 1) {
                    c.samples.add(tag + "ops_per_sec_t1", ops);
                    c.samples.add(tag + "violation.num",
                                  pt.drain.lead_rank_error / relaxation_k);
                    c.samples.add(tag + "violation.den",
                                  static_cast<double>(pt.drain.lead_items));
                    return;
                }
                c.samples.add(tag + "ops_per_sec_t4", ops);
                c.samples.add(tag + "events_per_sec",
                              ratio(static_cast<double>(pt.res.deletes),
                                    pt.res.elapsed_s));
                // The T=4 mix to a verified empty queue, as in des_phold.
                c.samples.add(tag + "solve_s",
                              pt.res.elapsed_s + pt.drain.seconds);
            });
    }
    if (o.trace)
        isolated(r, [&](run_report &c) {
            // The DistLSM alone on the same T=1 input.
            klsm::dist_pq<std::uint32_t, std::uint32_t> d;
            const std::uint64_t seed = sub_seed(o.seed, 0);
            prefill_timed(d, prefill, seed);
            const tp_point pt = throughput_point(d, c, prefill, ops_t1, 1,
                                                 seed + 1, 0, nullptr);
            c.samples.add("dlsm.ops_per_sec_t1", pt.res.ops_per_sec());
        });
}

// ---- des_phold -----------------------------------------------------------

using des_queue = klsm::k_lsm<std::uint64_t, std::uint64_t>;

struct des_point {
    klsm::workloads::des_result res;
    double setup_s = 0;
    double verify_s = 0;
    double pops = 0;       ///< untraced points only (order tap)
    double inversions = 0; ///< per-thread pop-order inversions
};

template <typename Q>
des_point des_run(run_report &r, const klsm::workloads::des_params &p,
                  traced_section *tr, Q &q, double built_s) {
    des_point out;
    klsm::mm::memory_stats before;
    if constexpr (klsm::pool_backed<Q>)
        before = q.memory_stats();
    order_tap<Q> tap(q);
    const auto t0 = clk::now();
    out.res = timed_section(r, [&] {
        if (tr != nullptr) {
            timed_pq<Q> wrapped(q, tr->recorder());
            return klsm::workloads::run_des(wrapped, p);
        }
        return klsm::workloads::run_des(tap, p);
    });
    const auto counts = tap.sum();
    out.pops = static_cast<double>(counts.deletes);
    out.inversions = static_cast<double>(counts.inversions);
    out.setup_s = built_s + since(t0) - out.res.elapsed_s;
    if constexpr (requires { q.set_monitor(nullptr); })
        if (tr != nullptr)
            tr->finish(q, p.threads, out.res.elapsed_s, before,
                       r.counts.layers);
    // The population is constant: every event left in the queue is one
    // seeded or scheduled and never committed.
    const std::uint64_t expected =
        p.population + out.res.scheduled - out.res.committed;
    const auto d0 = clk::now();
    const drain_result d = drain_queue(q, many_threads);
    out.verify_s = since(d0);
    r.counts.checks.add(expected, conservation_failures(expected, d.items));
    return out;
}

double des_ops(const klsm::workloads::des_result &res) {
    return static_cast<double>(res.committed + res.scheduled +
                               res.failed_pops);
}

void run_des_phold(const options &o, run_report &r) {
    klsm::workloads::des_params p;
    p.lps = 256;
    p.population = 8192;
    // As in throughput_1m, the noisier T=1 point gets the larger share,
    // but not all of it: violation_fraction comes from the T=4 points.
    const std::uint64_t events_t4 = 4000000;
    const std::uint64_t events_t1 = 3000000;
    r.resident = p.population;
    r.max_level = klsm::block<std::uint64_t, std::uint64_t>::level_for(
        p.population);
    for (unsigned rep = 0; rep < 2 || r.counts.sys.wall_s < o.seconds;
         ++rep) {
        const bool traced = o.trace && rep % 2 == 1;
        const std::string tag = traced ? "traced." : "";
        p.seed = sub_seed(o.seed, rep);
        for (unsigned threads : {1u, many_threads})
            isolated(r, [&](run_report &c) {
                p.threads = threads;
                p.target_events = threads == 1 ? events_t1 : events_t4;
                const auto t0 = clk::now();
                auto q = std::make_unique<des_queue>(relaxation_k);
                const double built = since(t0);
                std::unique_ptr<traced_section> tr;
                if (traced)
                    tr = std::make_unique<traced_section>(*q);
                const des_point pt = des_run(c, p, tr.get(), *q, built);
                c.samples.add("setup_s", pt.setup_s);
                const double ops = ratio(des_ops(pt.res), pt.res.elapsed_s);
                if (threads == 1) {
                    c.samples.add(tag + "ops_per_sec_t1", ops);
                    return;
                }
                c.samples.add(tag + "ops_per_sec_t4", ops);
                c.samples.add(tag + "events_per_sec",
                              pt.res.events_per_sec());
                c.samples.add(tag + "violation.num", pt.inversions);
                c.samples.add(tag + "violation.den", pt.pops);
                c.samples.add(tag + "solve_s",
                              pt.res.elapsed_s + pt.verify_s);
                c.samples.add(tag + "causality.num",
                              static_cast<double>(pt.res.violations));
                c.samples.add(tag + "causality.den",
                              static_cast<double>(pt.res.committed));
                if (traced) {
                    c.samples.add(
                        "des.failed_pops_per_kevent",
                        1000.0 *
                            ratio(static_cast<double>(pt.res.failed_pops),
                                  static_cast<double>(pt.res.committed)));
                    c.samples.add("des.max_lag",
                                  static_cast<double>(pt.res.max_lag));
                }
            });
    }
    if (o.trace)
        isolated(r, [&](run_report &c) {
            klsm::dist_pq<std::uint64_t, std::uint64_t> d;
            p.threads = 1;
            p.target_events = events_t1;
            p.seed = sub_seed(o.seed, 0);
            const des_point pt = des_run(c, p, nullptr, d, 0);
            c.samples.add("dlsm.ops_per_sec_t1",
                          ratio(des_ops(pt.res), pt.res.elapsed_s));
        });
}

// ---- sssp_er1m -----------------------------------------------------------

using sssp_queue = klsm::k_lsm<std::uint64_t, std::uint32_t, klsm::sssp_lazy>;

struct solve_out {
    klsm::sssp_stats stats;
    double solve_s = 0;
    double queue_ops = 0;
    double pops = 0;
    double inversions = 0; ///< per-thread pop-order inversions
};

/// One verified solve on a fresh queue built by `make(state)`.  Traced
/// solves time every queue call; untraced ones go through the order tap,
/// which counts the queue operations and the pop-order inversions.
template <typename Make>
solve_out solve(run_report &r, const klsm::graph &g,
                const std::vector<std::uint64_t> &ref, unsigned threads,
                bool traced, Make &&make) {
    klsm::sssp_state state(g.num_nodes());
    solve_out out;
    const auto t0 = clk::now();
    auto q = make(state);
    using Q = std::remove_reference_t<decltype(*q)>;
    std::unique_ptr<traced_section> tr;
    if constexpr (requires { q->set_monitor(nullptr); })
        if (traced)
            tr = std::make_unique<traced_section>(*q);
    klsm::mm::memory_stats before;
    if constexpr (klsm::pool_backed<Q>)
        before = q->memory_stats();
    order_tap<Q> tap(*q);
    const auto run0 = clk::now();
    out.stats = timed_section(r, [&] {
        if (tr) {
            timed_pq<Q> wrapped(*q, tr->recorder());
            return klsm::parallel_sssp(wrapped, g, 0, threads, state);
        }
        return klsm::parallel_sssp(tap, g, 0, threads, state);
    });
    const double run_s = since(run0);
    const std::uint64_t bad = distance_mismatches(state.snapshot(), ref);
    out.solve_s = since(t0);
    if constexpr (requires { q->set_monitor(nullptr); })
        if (tr)
            tr->finish(*q, threads, run_s, before, r.counts.layers);
    r.counts.checks.add(ref.size(), bad);
    const auto c = tap.sum();
    out.queue_ops =
        static_cast<double>(c.inserts + c.deletes + c.failed_deletes);
    out.pops = static_cast<double>(c.deletes);
    out.inversions = static_cast<double>(c.inversions);
    return out;
}

void run_sssp_er1m(const options &o, run_report &r) {
    klsm::erdos_renyi_params gp;
    gp.nodes = 1000000;
    gp.edge_probability = 1e-5;
    const unsigned solves_t4 = 3;
    // The probes' resident set: the queue's peak size during a solve on
    // this graph family, dead entries not yet compacted included
    // (k_lsm::size_hint peaks near 0.9 of the node count at T=1 and 4).
    r.resident = gp.nodes / 10 * 9;
    r.max_level = klsm::block<std::uint64_t, std::uint32_t>::level_for(
        static_cast<std::uint32_t>(r.resident));
    auto make_klsm = [](klsm::sssp_state &s) {
        return std::make_unique<sssp_queue>(relaxation_k,
                                            klsm::sssp_lazy{&s});
    };
    for (unsigned rep = 0; rep < 2 || r.counts.sys.wall_s < o.seconds;
         ++rep) {
        // The whole repetition runs isolated too, so graph generation
        // and the reference never inherit an earlier repetition's heap.
        isolated(r, [&](run_report &c) {
            gp.seed = sub_seed(o.seed, rep);
            const auto t0 = clk::now();
            const klsm::graph g = klsm::make_erdos_renyi(gp);
            const std::vector<std::uint64_t> ref = klsm::dijkstra(g, 0).dist;
            c.samples.add("setup_s", since(t0));

            isolated(c, [&](run_report &p) {
                const solve_out one = solve(p, g, ref, 1, false, make_klsm);
                p.samples.add("ops_per_sec_t1",
                              ratio(one.queue_ops, one.solve_s));
            });
            for (unsigned s = 0; s < solves_t4; ++s)
                isolated(c, [&](run_report &p) {
                    const bool traced = o.trace && s % 2 == 1;
                    const solve_out out =
                        solve(p, g, ref, many_threads, traced, make_klsm);
                    const auto &st = out.stats;
                    const double settled = static_cast<double>(st.settled);
                    if (traced) {
                        p.samples.add("traced.solve_s", out.solve_s);
                        p.samples.add(
                            "parallel_sssp.expansions_per_node",
                            ratio(static_cast<double>(st.expansions), settled));
                        p.samples.add(
                            "parallel_sssp.stale_pops_per_node",
                            ratio(static_cast<double>(st.stale_pops), settled));
                        return;
                    }
                    p.samples.add("solve_s", out.solve_s);
                    p.samples.add("ops_per_sec_t4",
                                  ratio(out.queue_ops, out.solve_s));
                    p.samples.add("events_per_sec",
                                  ratio(settled, out.solve_s));
                    p.samples.add("violation.num", out.inversions);
                    p.samples.add("violation.den", out.pops);
                });
            if (o.trace && rep == 0)
                isolated(c, [&](run_report &p) {
                    // The DistLSM alone on the same graph at T=1.
                    const solve_out d = solve(
                        p, g, ref, 1, false,
                        [](klsm::sssp_state &) {
                            return std::make_unique<
                                klsm::dist_pq<std::uint64_t, std::uint32_t>>();
                        });
                    p.samples.add("dlsm.ops_per_sec_t1",
                                  ratio(d.queue_ops, d.solve_s));
                });
        });
    }
}

// ---- metrics ---------------------------------------------------------

/// The end-to-end metrics: medians over the run's untraced repetitions.
void put_end_to_end(run_report &r) {
    const sample_set &s = r.samples;
    r.put("ops_per_sec_t1", s.med("ops_per_sec_t1"), "1/s");
    r.put("ops_per_sec_t4", s.med("ops_per_sec_t4"), "1/s");
    r.put("events_per_sec", s.med("events_per_sec"), "1/s");
    // Pooled over the points rather than a median: violations come in
    // bursts, so a per-point share is far noisier than the run's total.
    r.put("violation_fraction",
          ratio(s.sum("violation.num"), s.sum("violation.den")), "fraction");
    r.put("solve_s", s.med("solve_s"), "s");
    r.put("setup_s", s.med("setup_s"), "s");
    r.put("peak_rss_mb",
          static_cast<double>(std::max(peak_rss_kb(), r.counts.peak_rss_kb)) /
              1024.0,
          "MB");
}

/// The per-layer metrics: traced sections, layer probes, counters.
void put_per_layer(const options &o, run_report &r) {
    const layer_totals &L = r.counts.layers;
    const call_totals &c = L.calls;
    const double kops = static_cast<double>(c.ops()) / 1000.0;
    const auto &ev = L.events;

    auto pct = [](const klsm::stats::latency_histogram &h, double p) {
        return static_cast<double>(h.percentile(p));
    };
    r.put("k_lsm.insert_ns.p50", pct(c.insert_ns, 50), "ns");
    r.put("k_lsm.insert_ns.p99", pct(c.insert_ns, 99), "ns");
    r.put("k_lsm.delete_min_ns.p50", pct(c.delete_ns, 50), "ns");
    r.put("k_lsm.delete_min_ns.p99", pct(c.delete_ns, 99), "ns");
    r.put("k_lsm.failed_delete_fraction",
          ratio(static_cast<double>(c.failed_deletes),
                static_cast<double>(c.deletes + c.failed_deletes)),
          "fraction");
    r.put("k_lsm.queue_time_share",
          ratio(static_cast<double>(c.queue_ns) * 1e-9, L.thread_seconds),
          "fraction");

    const auto seed = sub_seed(o.seed, 1000);
    const double budget = 0.3;
    const two_ns dist = probe_dist_lsm<std::uint64_t, std::uint64_t>(
        relaxation_k, budget, seed);
    r.put("dist_lsm.local_hit_fraction",
          ratio(static_cast<double>(ev.local_hits),
                static_cast<double>(ev.local_hits + ev.shared_hits)),
          "fraction");
    r.put("dist_lsm.spies_per_kop",
          ratio(static_cast<double>(ev.spies), kops), "1/kop");
    r.put("dist_lsm.insert_ns", dist.insert_ns, "ns");
    r.put("dist_lsm.find_min_ns", dist.find_min_ns, "ns");
    r.put("dlsm.ops_per_sec_t1", r.samples.med("dlsm.ops_per_sec_t1"), "1/s");

    const two_ns shared = probe_shared_lsm<std::uint64_t, std::uint64_t>(
        r.resident, relaxation_k, budget, seed + 1);
    r.put("shared_lsm.publishes_per_kop",
          ratio(static_cast<double>(ev.publishes), kops), "1/kop");
    r.put("shared_lsm.publish_retry_fraction",
          ratio(static_cast<double>(ev.publish_retries),
                static_cast<double>(ev.publishes + ev.publish_retries)),
          "fraction");
    r.put("shared_lsm.delete_hit_fraction",
          ratio(static_cast<double>(ev.shared_hits),
                static_cast<double>(ev.local_hits + ev.shared_hits)),
          "fraction");
    r.put("shared_lsm.insert_ns", shared.insert_ns, "ns");
    r.put("shared_lsm.find_min_ns", shared.find_min_ns, "ns");

    r.put("block.merge_ns_per_item",
          probe_block_merge<std::uint64_t, std::uint64_t>(r.max_level,
                                                          seed + 2),
          "ns");
    r.put("block_pool.shared_bytes", static_cast<double>(L.shared_bytes), "B");
    r.put("block_pool.dist_bytes", static_cast<double>(L.dist_bytes), "B");
    r.put("block_pool.fresh_allocs_timed",
          ratio(static_cast<double>(L.block_fresh),
                static_cast<double>(L.sections)),
          "count");

    const std::size_t pool_ops = 1u << 21;
    r.put("item_pool.alloc_ns",
          probe_item_pool<std::uint64_t, std::uint64_t>(r.resident, pool_ops,
                                                        seed + 3),
          "ns");
    r.put("item_pool.reuse_hit_rate",
          ratio(static_cast<double>(L.item_reuse),
                static_cast<double>(L.item_reuse + L.item_fresh)),
          "fraction");
    r.put("item_pool.fresh_allocs_per_kop",
          ratio(static_cast<double>(L.item_fresh), kops), "1/kop");
    r.put("item_pool.bytes", static_cast<double>(L.item_bytes), "B");

    r.put("parallel_sssp.expansions_per_node",
          r.samples.med("parallel_sssp.expansions_per_node"), "ratio");
    r.put("parallel_sssp.stale_pops_per_node",
          r.samples.med("parallel_sssp.stale_pops_per_node"), "ratio");
    r.put("des.failed_pops_per_kevent",
          r.samples.med("des.failed_pops_per_kevent"), "1/kevent");
    r.put("des.max_lag", r.samples.med("des.max_lag"), "vt");
    r.put("des.causality_violation_fraction",
          ratio(r.samples.sum("causality.num"),
                r.samples.sum("causality.den")),
          "fraction");

    const sw_totals &sys = r.counts.sys;
    r.put("sys.page_faults", static_cast<double>(sys.page_faults), "count");
    r.put("sys.ctx_switches", static_cast<double>(sys.ctx_switches), "count");
    r.put("sys.cpu_util", sys.cpu_util(), "cores");

    // Slowdown of the traced repetitions against the untraced ones on
    // the workload's T=4 headline (solve time for SSSP, rates otherwise).
    const double overhead =
        o.workload == "sssp_er1m"
            ? ratio(r.samples.med("traced.solve_s"), r.samples.med("solve_s"))
            : ratio(r.samples.med("ops_per_sec_t4"),
                    r.samples.med("traced.ops_per_sec_t4"));
    r.put("trace_overhead", overhead, "ratio");
    r.put("error_fraction", r.counts.checks.error_fraction(), "fraction");
}

std::string samples_json(const sample_set &s) {
    std::ostringstream os;
    os << '{';
    bool first = true;
    for (const auto &[name, vals] : s.values) {
        os << (first ? "" : ",") << '"' << name << "\":[";
        for (std::size_t i = 0; i < vals.size(); ++i)
            os << (i ? "," : "") << num(vals[i]);
        os << ']';
        first = false;
    }
    os << '}';
    return os.str();
}

void print_record(const options &o, const run_report &r) {
    std::ostringstream os;
    os << "{\"workload\":\"" << o.workload << "\",\"seed\":" << o.seed
       << ",\"seconds\":" << num(o.seconds)
       << ",\"trace\":" << (o.trace ? 1 : 0)
       << ",\"attempted\":" << r.counts.checks.attempted
       << ",\"failed\":" << r.counts.checks.failed << ",\"metrics\":{";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const auto &[name, vu] = r.metrics[i];
        os << (i ? "," : "") << '"' << name << "\":{\"value\":"
           << num(vu.first) << ",\"unit\":\"" << vu.second << "\"}";
    }
    os << "},\"samples\":" << samples_json(r.samples)
       << ",\"provenance\":{\"compiler\":\"" << json_escape(__VERSION__)
       << "\",\"cxx_flags\":\"" << json_escape(PERFBENCH_CXX_FLAGS)
       << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
       << "\",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
       << ",\"cpu_model\":\"" << json_escape(cpu_model())
       << "\",\"k\":" << relaxation_k << "}"
       << ",\"counters\":{\"page_faults\":" << r.counts.sys.page_faults
       << ",\"ctx_switches\":" << r.counts.sys.ctx_switches
       << ",\"cpu_s\":" << num(r.counts.sys.cpu_s)
       << ",\"timed_wall_s\":" << num(r.counts.sys.wall_s)
       // Hardware counters are not available on the VMs this runs on;
       // they are reported as unknown, never estimated.
       << ",\"hw_cycles\":null,\"hw_instructions\":null}}";
    std::cout << os.str() << std::endl;
}

int usage(const std::string &why) {
    std::cerr << "klsm_perf: " << why
              << "\nusage: klsm_perf --workload throughput_1m|des_phold|"
                 "sssp_er1m --seed N --seconds S --trace 0|1\n";
    return 2;
}

} // namespace

int main(int argc, char **argv) {
    options o;
    bool have_workload = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::invalid_argument(a + " needs a value");
                return argv[++i];
            };
            if (a == "--workload") {
                o.workload = next();
                have_workload = true;
            } else if (a == "--seed") {
                o.seed = std::stoull(next());
            } else if (a == "--seconds") {
                o.seconds = std::stod(next());
            } else if (a == "--trace") {
                const std::string t = next();
                if (t != "0" && t != "1")
                    throw std::invalid_argument("--trace takes 0 or 1");
                o.trace = t == "1";
            } else {
                throw std::invalid_argument("unknown argument " + a);
            }
        }
        if (!have_workload)
            throw std::invalid_argument("--workload is required");
        if (!(o.seconds > 0 && o.seconds <= 600))
            throw std::invalid_argument("--seconds must be in (0, 600]");
    } catch (const std::exception &e) {
        return usage(e.what());
    }

    static const std::map<std::string,
                          std::function<void(const options &, run_report &)>>
        workloads = {{"throughput_1m", run_throughput_1m},
                     {"des_phold", run_des_phold},
                     {"sssp_er1m", run_sssp_er1m}};
    const auto it = workloads.find(o.workload);
    if (it == workloads.end())
        return usage("unknown workload " + o.workload);

    // Claim the first thread slot for this thread (and the forked points,
    // which inherit it) before any worker runs.  In throughput_1m it
    // never inserts, so no block carries its Bloom bit, and its
    // single-threaded drain sees the shared LSM's relaxed choice rather
    // than the own-key preference of a recycled worker slot.
    klsm::thread_index();
    try {
        run_report r;
        it->second(o, r);
        if (o.trace)
            put_per_layer(o, r);
        else
            put_end_to_end(r);
        print_record(o, r);
    } catch (const std::exception &e) {
        std::cerr << "klsm_perf: " << e.what() << '\n';
        return 1;
    }
    return 0;
}
