#ifndef DCBENCH_PERFBENCH_PASSES_H_
#define DCBENCH_PERFBENCH_PASSES_H_

/**
 * @file
 * The closed loop every workload shares: repeated passes over a
 * fixed list of items (suite workloads, scenarios, one fleet), each
 * item one timed call into the simulator, until the run's time is up.
 * Only the call is timed; checking its output happens outside the
 * timed interval. Each item is reduced to the median of its calls.
 *
 * Host-speed normalisation. The 4-vCPU VM the bounds were set on runs
 * the same code up to twice as slow for minutes at a time, with its
 * neighbours' load; a run-to-run spread that large hides any change
 * worth detecting. So two fixed reference kernels (HostSpeed) run
 * before the set-up and after every ~0.2 s of calls, and each call's
 * time is scaled by (Nc / c)^a * (Nm / m)^b. Here c and m are the
 * kernels' median times at the two sample points around the call (the
 * host also swings within seconds, and the call and its neighbouring
 * samples swing together), Nc and Nm their typical times on that VM,
 * and a and b the workload's elasticities: how far the workload's log
 * time moves per unit move of each kernel's. Set-up code moves
 * differently from the calls, so it has elasticities of its own. Times
 * then read as seconds on that VM at its typical speed.
 *
 * One kernel is a cache-resident branchy arithmetic loop, the other
 * random reads over a 64 MiB table each followed by a lookup and update
 * in a set-associative tag array. A host slowdown hits them, and each
 * workload, by different amounts. The elasticities were fitted by least
 * squares of log workload time on the two log kernel times, over two
 * six-minute windows of a busy host in which each workload's calls
 * alternated with the kernels; each window's fit held on the other.
 * Any one kernel alone, or a heap-and-hash-table kernel, or scaling by
 * one kernel with elasticity 1, left more of the drift. The kernels
 * and the elasticities are benchmark code and never change with the
 * program, so normalised times of two commits compare.
 *
 * In a traced run every item is called twice per pass, once with a
 * span recorded around it and once without, in alternating order, and
 * the two give the tracing overhead.
 */

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "perfbench.h"

namespace dcb::perfbench {

/** Resident MiB the reference kernels hold (their tables). */
inline constexpr double kReferenceMiB = 66.25;

/** A workload's host-speed elasticities (see the file comment). */
struct Elasticity
{
    double compute = 0.0;
    double memory = 0.0;
};

/** Samples of the host's current speed (see the file comment). */
class HostSpeed
{
  public:
    /** `calls` scales the calls' times, `setup` the set-up's. */
    HostSpeed(Elasticity calls, Elasticity setup)
        : calls_(calls), setup_(setup)
    {
    }

    /** Take a sample point: run each kernel kRunsPerPoint times. */
    void sample();
    /** Sample points taken so far. */
    std::size_t points() const { return compute_s_.size() / kRunsPerPoint; }
    /** The time scale, (Nc / c)^a * (Nm / m)^b, of a call made between
        sample points `point` and `point + 1`, from those two points. */
    double scale_between(std::size_t point) const
    {
        return scale_between(point, calls_);
    }
    /** The same for a set-up, with the set-up's elasticities. */
    double setup_scale_between(std::size_t point) const
    {
        return scale_between(point, setup_);
    }
    /** The calls' time scale from every point of the run. */
    double scale() const
    {
        return scale(calls_, compute_seconds(), memory_seconds());
    }
    /** Median reference times over the run, seconds. */
    double compute_seconds() const { return median(compute_s_); }
    double memory_seconds() const { return median(memory_s_); }

  private:
    static constexpr std::size_t kRunsPerPoint = 3;

    double scale_between(std::size_t point, const Elasticity& e) const;

    static double scale(const Elasticity& e, double compute_s,
                        double memory_s);

    Elasticity calls_;
    Elasticity setup_;
    std::vector<double> compute_s_;
    std::vector<double> memory_s_;
};

struct PassTimes
{
    std::size_t passes = 0;
    /** item_s[i][p]: normalised seconds of item i's call in pass p. */
    std::vector<std::vector<double>> item_s;
    /** Traced-run only: the same calls with a span around them. */
    std::vector<std::vector<double>> traced_s;
    /** item_cpu_s[i][p]: normalised process CPU seconds (all threads)
        of the same call. Checks and reference samples fall outside. */
    std::vector<std::vector<double>> item_cpu_s;
    /** Normalised seconds of one set-up, each sample the mean of a
        batch of repeats: before the first call and after every pass. */
    std::vector<double> setup_s;
    /** One pass's host seconds before normalisation. */
    double raw_pass_s = 0.0;
    /** Peak RSS at the end of the last pass, less the kernels' tables. */
    double peak_rss_mb = 0.0;

    /** Median normalised call of each item. */
    std::vector<double> item_medians() const;
    /** Sum of per-item medians: the normalised time of one pass. */
    double pass_seconds() const;
    /** Sum of per-item median CPU times: the CPU time of one pass. */
    double pass_cpu_seconds() const;
    /** traced / untraced pass time - 1 (traced runs only). */
    double trace_overhead() const;
};

/**
 * Run `setup`, then passes until `seconds` have elapsed and at least
 * `min_passes` are complete. `call(i)` makes item i's timed call and
 * keeps its output; `check(i, pass)` verifies that output afterwards.
 * `setup` is timed and repeated after every pass (it must rebuild the
 * same inputs), so its median samples the whole run as the calls do.
 * Each set-up sample runs it `setup_repeats` times back to back, so a
 * sample lasts milliseconds rather than the clock's and scheduler's
 * microseconds. `speed` receives the reference samples taken along the
 * way.
 */
PassTimes run_passes(std::size_t items, double seconds,
                     std::size_t min_passes, const Spans& spans,
                     HostSpeed& speed, std::size_t setup_repeats,
                     const std::function<void()>& setup,
                     const std::function<std::string(std::size_t)>& label,
                     const std::function<void(std::size_t)>& call,
                     const std::function<void(std::size_t, std::size_t)>&
                         check);

/** Record the run's host-speed samples and raw pass time in `result`. */
void stamp_host_speed(const HostSpeed& speed, const PassTimes& times,
                      Result& result);

}  // namespace dcb::perfbench

#endif  // DCBENCH_PERFBENCH_PASSES_H_
