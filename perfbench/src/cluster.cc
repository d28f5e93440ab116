/**
 * @file
 * The cluster_fleet workload and the fleet ledger of traced runs.
 *
 * One call is mapreduce::MultiJobScheduler::run over a fault-free
 * multi-job fair-share fleet on the sharded engine: the shards' event
 * handlers, the coordinator at every heartbeat barrier, and the barrier
 * itself. No cpu/mem code runs.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "mapreduce/fairshare.h"
#include "passes.h"
#include "perfbench.h"
#include "util/rng.h"

namespace dcb::perfbench {

namespace {

/** Four times the cluster bench's default fleet, so a run is ~1 s. */
constexpr std::uint32_t kNodes = 1024;
constexpr std::uint32_t kRacks = 32;
constexpr std::uint32_t kJobs = 32;
constexpr std::size_t kMinPasses = 3;
/** Set-up runs per set-up sample: a few milliseconds a sample. */
constexpr std::size_t kSetupRepeats = 512;
/** Host-speed elasticities of the fleet call and the set-up (passes.h). */
constexpr Elasticity kElasticity{1.46, 0.31};
constexpr Elasticity kSetupElasticity{0.0, 1.0};

unsigned
fleet_threads()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

struct Fleet
{
    std::vector<mapreduce::JobSubmission> jobs;
    mapreduce::ClusterConfig cluster;
    mapreduce::FairShareConfig fair;
    /** Fault-free plan: only its seed is used (attempt jitter streams). */
    fault::FaultPlan plan;
    unsigned threads = 1;
    /** Analytic task population of each job: what completion means. */
    std::vector<mapreduce::TaskCounts> want;
};

/**
 * The cluster bench's fleet shape (job j a pure function of j): mixed
 * input sizes, shuffle-heavy every third job, iterative every fourth,
 * staggered arrivals, weights 1-3. The seed drives the per-attempt
 * duration jitter streams through the seed of a fault-free plan.
 */
Fleet
make_fleet(std::uint64_t seed)
{
    Fleet f;
    f.jobs.reserve(kJobs);
    for (std::uint32_t j = 0; j < kJobs; ++j) {
        mapreduce::JobSubmission sub;
        sub.spec.name = "fleet";
        sub.spec.input_gb = 192.0 + 48.0 * (j % 5);
        sub.spec.total_instructions_g = 30.0 * sub.spec.input_gb;
        sub.spec.map_output_ratio = (j % 3 == 0) ? 0.8 : 0.2;
        if (j % 4 == 3)
            sub.spec.iterations = 2;
        sub.submit_time_s = 4.0 * j;
        sub.weight = 1.0 + (j % 3);
        f.jobs.push_back(sub);
    }
    f.cluster.slaves = kNodes;
    f.cluster.racks = kRacks;
    f.plan.seed = util::mix64(seed ^ 0xF1EE7ULL);
    f.fair.attempt_jitter_sigma = 0.25;
    f.threads = fleet_threads();
    for (const mapreduce::JobSubmission& sub : f.jobs)
        f.want.push_back(mapreduce::expected_task_counts(sub.spec, f.cluster));
    return f;
}

bool
fleet_valid(const Fleet& f)
{
    if (!mapreduce::validate(f.cluster).empty() ||
        !mapreduce::validate(f.fair).empty() || f.plan.any_faults())
        return false;
    for (const mapreduce::JobSubmission& sub : f.jobs)
        if (!mapreduce::validate(sub.spec).empty())
            return false;
    return true;
}

mapreduce::MultiJobResult
run_fleet_once(const Fleet& f, unsigned threads)
{
    const mapreduce::MultiJobScheduler scheduler(f.fair);
    fault::FaultInjector injector(f.plan);
    mapreduce::MultiJobOptions options;
    options.threads = threads;
    options.injector = &injector;
    return scheduler.run(f.jobs, f.cluster, options);
}

/** Instructions the completed jobs of a fleet run represent. */
double
represented_instructions(const Fleet& f,
                         const mapreduce::MultiJobResult& r)
{
    double total = 0.0;
    for (std::size_t j = 0; j < r.jobs.size() && j < f.jobs.size(); ++j)
        if (r.jobs[j].completed)
            total += f.jobs[j].spec.total_instructions_g * 1e9;
    return total;
}

}  // namespace

Result
run_fleet(const Options& options, const Spans& spans)
{
    Result result;
    Fleet fleet;
    HostSpeed speed(kElasticity, kSetupElasticity);
    const auto setup = [&] {
        fleet = make_fleet(options.seed);
        if (!fleet_valid(fleet))
            result.correct = false;
    };

    mapreduce::MultiJobResult run;
    std::string first_dump;
    const PassTimes times = run_passes(
        1, options.seconds, kMinPasses, spans, speed, kSetupRepeats, setup,
        [](std::size_t) { return std::string("fleet"); },
        [&](std::size_t) { run = run_fleet_once(fleet, fleet.threads); },
        [&](std::size_t, std::size_t) {
            result.attempted += fleet.jobs.size();
            if (!run.ok) {
                result.failed += fleet.jobs.size();
                std::fprintf(stderr, "failed: fleet: %s\n",
                             run.error.c_str());
                return;
            }
            for (std::size_t j = 0; j < run.jobs.size(); ++j) {
                const mapreduce::JobOutcome& job = run.jobs[j];
                if (!job.completed ||
                    job.maps_completed != fleet.want[j].maps ||
                    job.reduces_completed != fleet.want[j].reduces)
                    ++result.failed;
            }
            std::string dump = run.dump();
            if (first_dump.empty()) {
                first_dump = std::move(dump);
            } else if (dump != first_dump) {
                result.correct = false;
                std::fprintf(stderr, "failed: fleet rerun changed dump\n");
            }
        });

    // Outside the timed region: the serial reference must produce the
    // byte-identical dump.
    const mapreduce::MultiJobResult serial = run_fleet_once(fleet, 1);
    if (serial.dump() != first_dump) {
        result.correct = false;
        std::fprintf(stderr, "failed: serial and sharded dumps differ\n");
    }
    Digest d;
    d.add(first_dump);
    result.digest = hex64(d.value());
    stamp_host_speed(speed, times, result);
    if (spans.writer() != nullptr) {
        result.add("trace.overhead_frac", times.trace_overhead(), "ratio");
        return result;
    }

    const double call_s = times.pass_seconds();
    result.add("sim_mops", represented_instructions(fleet, run) / call_s / 1e6,
               "Mop/s");
    result.add("events_per_s", static_cast<double>(run.events) / call_s,
               "1/s");
    result.add("scenarios_per_s", 1.0 / call_s, "1/s");
    result.add("scenario_p50_ms", 1e3 * call_s, "ms");
    result.add("scenario_p95_ms", 1e3 * call_s, "ms");
    result.add("cpu_s", times.pass_cpu_seconds(), "s");
    result.add("peak_rss_mb", times.peak_rss_mb, "MB");
    result.add("setup_s", median(times.setup_s), "s");
    add_accuracy_probe(options.seed, result);
    return result;
}

void
fleet_ledger(std::uint64_t seed, const Spans& spans, Result& result)
{
    const Fleet fleet = make_fleet(seed);
    const auto timed = [&](unsigned threads,
                           mapreduce::MultiJobResult& out) {
        const double start_us = spans.now_us();
        const auto t0 = Clock::now();
        out = run_fleet_once(fleet, threads);
        const double dt = seconds_since(t0);
        spans.end("fleet threads=" + std::to_string(threads), "ledger",
                  kLaneFleet, start_us,
                  "{\"events\": " + std::to_string(out.events) + "}");
        if (!out.ok || !out.all_completed())
            result.correct = false;
        return dt;
    };
    mapreduce::MultiJobResult serial, sharded;
    const double serial_s = timed(1, serial);
    const double sharded_s = timed(fleet.threads, sharded);
    if (serial.dump() != sharded.dump())
        result.correct = false;

    double busy = 0.0;
    std::uint64_t messages = 0, steals = 0;
    for (const mapreduce::ShardStats& s : sharded.shards) {
        busy += s.busy_seconds;
        messages += s.messages_sent;
        steals += s.steals;
    }
    const double n = static_cast<double>(fleet.threads);
    // Amdahl: sharded/serial = f + (1 - f) / n, solved for f.
    const double serial_frac =
        n > 1.0 ? (sharded_s / serial_s - 1.0 / n) / (1.0 - 1.0 / n) : 1.0;
    double wasted = 0.0;
    for (const mapreduce::JobOutcome& job : sharded.jobs)
        wasted += job.wasted_task_s;
    const double epochs = static_cast<double>(sharded.epochs);
    const double events = static_cast<double>(sharded.events);

    result.add("mapreduce.serial_wall_s", serial_s, "s");
    result.add("mapreduce.sharded_wall_s", sharded_s, "s");
    result.add("mapreduce.shard_busy_s", busy, "s");
    result.add("mapreduce.serial_frac", serial_frac, "ratio");
    result.add("mapreduce.barrier_us",
               epochs > 0.0 ? 1e6 * (sharded_s - busy / n) / epochs : 0.0,
               "us");
    result.add("mapreduce.event_ns", events > 0.0 ? 1e9 * busy / events : 0.0,
               "ns");
    result.add("mapreduce.epochs", epochs, "count");
    result.add("mapreduce.events", events, "count");
    result.add("mapreduce.messages", static_cast<double>(messages), "count");
    result.add("mapreduce.steals", static_cast<double>(steals), "count");
    result.add("fairshare.wasted_slot_frac",
               sharded.cluster.slot_busy_s > 0.0
                   ? wasted / sharded.cluster.slot_busy_s
                   : 0.0,
               "ratio");
}

}  // namespace dcb::perfbench
