#ifndef DCBENCH_PERFBENCH_PERFBENCH_H_
#define DCBENCH_PERFBENCH_PERFBENCH_H_

/**
 * @file
 * Shared pieces of the repository benchmark: options, host clocks and
 * resource counters, order statistics, the metric sink, an output
 * digest, and the span recorder used by traced runs.
 *
 * The benchmark is a closed loop with one client: each timed call into
 * the simulator starts when the previous one returns.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_writer.h"

namespace dcb::perfbench {

using Clock = std::chrono::steady_clock;

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 15.0;
    bool trace = false;
    /** Directory for the traced run's span file ("" = do not write). */
    std::string out_dir;
};

inline double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** User + system CPU seconds of this process, all threads. */
inline double
cpu_seconds()
{
    struct rusage u;
    if (getrusage(RUSAGE_SELF, &u) != 0)
        return 0.0;
    const auto sec = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return sec(u.ru_utime) + sec(u.ru_stime);
}

/** Peak resident set of this process so far, MiB (ru_maxrss is KiB). */
inline double
peak_rss_mb()
{
    struct rusage u;
    if (getrusage(RUSAGE_SELF, &u) != 0)
        return 0.0;
    return static_cast<double>(u.ru_maxrss) / 1024.0;
}

/** Linear-interpolated quantile (q in [0, 1]) of an unsorted sample. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one run reports on its last stdout line. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Digest of every simulated output of the run (hex). */
    std::string digest;
    /** Median reference-kernel seconds over the run (host speed). */
    double reference_compute_s = 0.0;
    double reference_memory_s = 0.0;
    /** The calls' time scale from the run's median kernel times (each
        call is scaled by the sample points around it). */
    double time_scale = 1.0;
    /** One pass's un-normalised time (sum of per-item median calls). */
    double raw_pass_s = 0.0;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/** FNV-1a over the exact bytes of simulated outputs. */
class Digest
{
  public:
    void bytes(const void* data, std::size_t n)
    {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ULL;
        }
    }
    void add(double v) { bytes(&v, sizeof v); }
    void add(std::uint64_t v) { bytes(&v, sizeof v); }
    void add(const std::string& s)
    {
        add(std::uint64_t{s.size()});
        bytes(s.data(), s.size());
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex64(std::uint64_t v);

/**
 * Host-time spans of a traced run, kept in memory and written once at
 * the end. A null writer makes every call a no-op, so the untraced
 * path shares the code without recording anything.
 */
class Spans
{
  public:
    explicit Spans(obs::TraceWriter* writer) : writer_(writer) {}

    obs::TraceWriter* writer() const { return writer_; }
    double now_us() const
    {
        return writer_ != nullptr ? writer_->now_us() : 0.0;
    }
    /** Record [start_us, now) as span `name` on lane `lane`. */
    void end(const std::string& name, const char* category,
             std::uint64_t lane, double start_us,
             const std::string& args = {}) const
    {
        if (writer_ != nullptr)
            writer_->complete(name, category, obs::TraceWriter::kHostPid,
                              lane, start_us, writer_->now_us() - start_us,
                              args);
    }

  private:
    obs::TraceWriter* writer_;
};

// Trace lanes (tids on the host-time process).
inline constexpr std::uint64_t kLaneCalls = 1;   ///< the workload's calls
inline constexpr std::uint64_t kLaneSim = 2;     ///< sim ledger
inline constexpr std::uint64_t kLaneFleet = 3;   ///< fleet ledger
inline constexpr std::uint64_t kLaneChaos = 4;   ///< chaos ledger

/**
 * The four workloads. Each untraced run reports every end-to-end
 * metric; each traced run reports every per-layer metric (all three
 * ledgers run, whichever workload is named) plus the tracing overhead
 * of the named workload's own calls.
 */
Result run_sim(const Options& options, bool sampled, const Spans& spans);
Result run_fleet(const Options& options, const Spans& spans);
Result run_chaos(const Options& options, const Spans& spans);

/**
 * Paper-accuracy guard of the simulator at `seed`: one untimed pass of
 * the sim_sampled suite. Adds ipc_err_vs_paper and stall_err_vs_paper.
 */
void add_accuracy_probe(std::uint64_t seed, Result& result);

/** Per-layer ledgers of the traced run. */
void sim_ledger(std::uint64_t seed, const Spans& spans, Result& result);
void fleet_ledger(std::uint64_t seed, const Spans& spans, Result& result);
void chaos_ledger(std::uint64_t seed, const Spans& spans, Result& result);

}  // namespace dcb::perfbench

#endif  // DCBENCH_PERFBENCH_PERFBENCH_H_
