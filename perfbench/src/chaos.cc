/**
 * @file
 * The chaos_sweep workload and the chaos ledger of traced runs.
 *
 * One call is mapreduce::ClusterScheduler::run of one seeded
 * single-job fault scenario with a fresh fault::FaultInjector: the
 * serial scheduler and its recovery paths (watchdog, blacklist,
 * failover, cascades). Scenarios are drawn like the chaos_sweep
 * bench's: eight fault kinds in rotation over the data-analysis
 * workloads' cluster jobs on 4-16 slaves in 2 or 4 racks, with the
 * fault parameters drawn from the seed.
 */

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "mapreduce/scheduler.h"
#include "passes.h"
#include "perfbench.h"
#include "util/rng.h"
#include "workloads/data_analysis.h"
#include "workloads/registry.h"

namespace dcb::perfbench {

namespace {

constexpr std::uint32_t kScenarios = 240;
constexpr std::uint32_t kKindCount = 8;
constexpr std::size_t kMinPasses = 3;
/** Set-up runs per set-up sample: a few milliseconds a sample. */
constexpr std::size_t kSetupRepeats = 128;
/** Host-speed elasticities of the scenario calls and the set-up
    (passes.h). */
constexpr Elasticity kElasticity{1.16, 0.32};
constexpr Elasticity kSetupElasticity{0.0, 0.7};

const char* const kKindNames[kKindCount] = {
    "task-crash", "task-hang",    "slow-node",    "node-crash",
    "rack-loss",  "partition",    "master-crash", "storm",
};

struct Scenario
{
    std::uint32_t id = 0;
    std::uint32_t kind = 0;
    std::string workload;
    mapreduce::JobSpec spec;
    mapreduce::ClusterConfig cluster;
    fault::FaultPlan plan;
    mapreduce::TaskCounts want;
};

/** Scenario `id` as a pure function of (base_seed, id). */
Scenario
make_scenario(std::uint32_t id, std::uint64_t base_seed,
              const std::map<std::string, mapreduce::JobSpec>& specs)
{
    util::Rng rng(util::mix64(base_seed ^ (0x5CE7A110ULL + id)));
    Scenario s;
    s.id = id;
    s.kind = id % kKindCount;
    const auto& names = workloads::data_analysis_names();
    s.workload = names[id % names.size()];
    s.spec = specs.at(s.workload);

    // Cluster sizes cycle with the id instead of being drawn, so every
    // seed sweeps the same mix of 4-, 8- and 16-slave clusters and the
    // sweep's work does not drift with the seed.
    const std::uint32_t slave_choices[] = {4, 8, 16};
    s.cluster.slaves = slave_choices[id % 3];
    s.cluster.racks = (id % 2 == 0) ? 2 : 4;

    fault::FaultPlan& p = s.plan;
    p.seed = util::mix64(base_seed ^ (0xFA17ULL + id));
    const auto racks = s.cluster.racks;
    switch (s.kind) {
      case 0:  // background task-attempt crashes
        p.task_crash_prob = 0.002 + 0.010 * rng.next_double();
        break;
      case 1:  // hung attempts, only the watchdog can reclaim them
        p.task_hang_prob = 0.002 + 0.015 * rng.next_double();
        break;
      case 2:  // degraded machines stragglering every task they host
        p.slow_node_fraction = 0.15 + 0.30 * rng.next_double();
        p.slow_multiplier = 1.5 + 2.0 * rng.next_double();
        break;
      case 3:  // one machine dies mid-job under light crash noise
        p.node_crash_time_s = 20.0 + 120.0 * rng.next_double();
        p.crash_node = static_cast<std::uint32_t>(
            rng.next_below(s.cluster.slaves));
        p.task_crash_prob = 0.004;
        break;
      case 4:  // a whole rack loses power
        p.rack_crash_time_s = 20.0 + 120.0 * rng.next_double();
        p.crash_rack = static_cast<std::uint32_t>(rng.next_below(racks));
        break;
      case 5:  // a rack is partitioned for a while, then heals
        p.partition_time_s = 10.0 + 80.0 * rng.next_double();
        p.partition_duration_s = 20.0 + 80.0 * rng.next_double();
        p.partition_rack =
            static_cast<std::uint32_t>(rng.next_below(racks));
        p.cascade_prob = 0.30;
        break;
      case 6:  // the JobTracker dies; standby resumes from checkpoint
        p.master_crash_time_s = 15.0 + 120.0 * rng.next_double();
        p.cascade_prob = 0.30;
        break;
      default:  // correlated storm: everything at once, may fail cleanly
        p.task_crash_prob = 0.02 + 0.28 * rng.next_double();
        p.task_hang_prob = 0.05;
        p.partition_time_s = 10.0 + 60.0 * rng.next_double();
        p.partition_duration_s = 30.0;
        p.partition_rack =
            static_cast<std::uint32_t>(rng.next_below(racks));
        p.master_crash_time_s = 30.0 + 90.0 * rng.next_double();
        p.cascade_prob = 0.50;
        break;
    }
    s.want = mapreduce::expected_task_counts(s.spec, s.cluster);
    return s;
}

struct Sweep
{
    std::vector<Scenario> scenarios;
    mapreduce::SchedulerConfig policy;  // hardened defaults
};

Sweep
make_sweep(std::uint64_t seed)
{
    std::map<std::string, mapreduce::JobSpec> specs;
    for (const std::string& name : workloads::data_analysis_names())
        specs[name] = workloads::make_workload(name)->info().cluster_spec;
    Sweep sweep;
    const std::uint64_t base_seed = util::mix64(seed ^ 0xC4A05EEDULL);
    sweep.scenarios.reserve(kScenarios);
    for (std::uint32_t id = 0; id < kScenarios; ++id)
        sweep.scenarios.push_back(make_scenario(id, base_seed, specs));
    return sweep;
}

/** What one scenario call produced. */
struct Outcome
{
    mapreduce::JobRun run;
    std::size_t fault_events = 0;
};

Outcome
run_scenario(const Sweep& sweep, const Scenario& s)
{
    const mapreduce::ClusterScheduler scheduler(sweep.policy);
    fault::FaultInjector injector(s.plan);
    Outcome out;
    out.run = scheduler.run(s.spec, s.cluster, &injector, nullptr,
                            s.workload);
    out.fault_events = injector.log().events().size();
    return out;
}

/**
 * The chaos_sweep invariants; returns the first one violated, or ""
 * when the run is a completed job with exactly the analytic task
 * population or a clean, diagnosed failure.
 */
std::string
violation(const Sweep& sweep, const Scenario& s, const Outcome& o)
{
    const mapreduce::JobRun& r = o.run;
    if (!std::isfinite(r.timings.total_s) || r.timings.total_s < 0.0)
        return "non-finite simulated time";
    if (r.completed) {
        if (!r.error.empty())
            return "completed with error text";
        if (r.maps_completed != s.want.maps ||
            r.reduces_completed != s.want.reduces)
            return "task counts off the analytic model";
    } else {
        if (r.error.empty())
            return "failed without an error message";
        if (o.fault_events == 0)
            return "failed with an empty fault log";
    }
    if (r.max_task_attempts > sweep.policy.max_attempts)
        return "retry budget exceeded";
    if (r.nodes_blacklisted > s.cluster.slaves / 4 + r.nodes_unblacklisted)
        return "blacklist cap exceeded";
    return "";
}

/** Every deterministic JobRun field (the replay-identity set). */
std::uint64_t
run_digest(const Outcome& o)
{
    const mapreduce::JobRun& r = o.run;
    Digest d;
    d.add(std::uint64_t{r.completed});
    d.add(r.error);
    for (const double v : {r.timings.total_s, r.timings.map_s,
                           r.timings.shuffle_s, r.timings.reduce_s,
                           r.timings.overhead_s,
                           r.timings.disk_write_requests,
                           r.timings.disk_writes_per_second,
                           r.wasted_task_s, r.recovery_s})
        d.add(v);
    for (const std::uint64_t v :
         {std::uint64_t{r.max_task_attempts}, std::uint64_t{r.task_failures},
          std::uint64_t{r.speculative_launched},
          std::uint64_t{r.speculative_wasted},
          std::uint64_t{r.maps_reexecuted}, std::uint64_t{r.nodes_lost},
          std::uint64_t{r.nodes_blacklisted},
          std::uint64_t{r.watchdog_kills}, std::uint64_t{r.racks_lost},
          std::uint64_t{r.partitions}, std::uint64_t{r.partition_heals},
          std::uint64_t{r.nodes_unblacklisted},
          std::uint64_t{r.master_failovers},
          std::uint64_t{r.checkpoints_taken},
          std::uint64_t{r.tasks_restored},
          std::uint64_t{r.tasks_lost_to_failover},
          std::uint64_t{r.cascades_triggered},
          std::uint64_t{r.degraded_phases}, r.maps_completed,
          r.reduces_completed, std::uint64_t{o.fault_events}})
        d.add(v);
    return d.value();
}

/**
 * Task attempts a scenario made: winning attempts (the attempt-duration
 * sketch's population) plus crashed, watchdog-killed and losing
 * speculative ones.
 */
double
attempts(const mapreduce::JobRun& r)
{
    return static_cast<double>(r.attempt_sketch.count() + r.task_failures +
                               r.watchdog_kills + r.speculative_wasted);
}

}  // namespace

Result
run_chaos(const Options& options, const Spans& spans)
{
    Result result;
    Sweep sweep;
    HostSpeed speed(kElasticity, kSetupElasticity);
    const auto setup = [&] { sweep = make_sweep(options.seed); };

    const std::size_t n = kScenarios;
    Outcome current;
    std::vector<Outcome> first(n);
    std::vector<std::uint64_t> digests(n, 0);
    const PassTimes times = run_passes(
        n, options.seconds, kMinPasses, spans, speed, kSetupRepeats, setup,
        [&](std::size_t i) {
            const Scenario& s = sweep.scenarios[i];
            return std::string(kKindNames[s.kind]) + " #" +
                   std::to_string(s.id);
        },
        [&](std::size_t i) {
            current = run_scenario(sweep, sweep.scenarios[i]);
        },
        [&](std::size_t i, std::size_t pass) {
            ++result.attempted;
            const Scenario& s = sweep.scenarios[i];
            std::string why = violation(sweep, s, current);
            // Every later pass is a replay of the first: bit-identical.
            const std::uint64_t digest = run_digest(current);
            if (pass == 0 && digests[i] == 0) {
                digests[i] = digest;
                first[i] = current;
            } else if (why.empty() && digest != digests[i]) {
                why = "replay diverged from the first run";
            }
            if (!why.empty()) {
                ++result.failed;
                std::fprintf(stderr, "failed: scenario %u (%s): %s\n", s.id,
                             kKindNames[s.kind], why.c_str());
            }
        });

    Digest all;
    for (const std::uint64_t d : digests)
        all.add(d);
    result.digest = hex64(all.value());
    stamp_host_speed(speed, times, result);
    if (spans.writer() != nullptr) {
        result.add("trace.overhead_frac", times.trace_overhead(), "ratio");
        return result;
    }

    double instructions = 0.0, attempt_count = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        attempt_count += attempts(first[i].run);
        instructions += sweep.scenarios[i].spec.total_instructions_g * 1e9;
    }
    const std::vector<double> item_s = times.item_medians();
    const double sweep_s = times.pass_seconds();
    result.add("sim_mops", instructions / sweep_s / 1e6, "Mop/s");
    result.add("events_per_s", attempt_count / sweep_s, "1/s");
    result.add("scenarios_per_s", static_cast<double>(n) / sweep_s, "1/s");
    result.add("scenario_p50_ms", 1e3 * quantile(item_s, 0.50), "ms");
    result.add("scenario_p95_ms", 1e3 * quantile(item_s, 0.95), "ms");
    result.add("cpu_s", times.pass_cpu_seconds(), "s");
    result.add("peak_rss_mb", times.peak_rss_mb, "MB");
    result.add("setup_s", median(times.setup_s), "s");
    add_accuracy_probe(options.seed, result);
    return result;
}

void
chaos_ledger(std::uint64_t seed, const Spans& spans, Result& result)
{
    const Sweep sweep = make_sweep(seed);
    std::vector<std::vector<double>> kind_ms(kKindCount);
    double attempt_count = 0.0, failed_clean = 0.0, fault_events = 0.0;
    for (const Scenario& s : sweep.scenarios) {
        const double start_us = spans.now_us();
        const auto t0 = Clock::now();
        const Outcome o = run_scenario(sweep, s);
        kind_ms[s.kind].push_back(1e3 * seconds_since(t0));
        spans.end(std::string(kKindNames[s.kind]) + " #" +
                      std::to_string(s.id),
                  "ledger", kLaneChaos, start_us);
        if (!violation(sweep, s, o).empty())
            result.correct = false;
        attempt_count += attempts(o.run);
        failed_clean += o.run.completed ? 0.0 : 1.0;
        fault_events += static_cast<double>(o.fault_events);
    }
    for (std::uint32_t k = 0; k < kKindCount; ++k)
        result.add(std::string("scheduler.ms.") + kKindNames[k],
                   median(kind_ms[k]), "ms");
    result.add("scheduler.attempts", attempt_count, "count");
    result.add("scheduler.failed_clean", failed_clean, "count");
    result.add("fault.events", fault_events, "count");
}

}  // namespace dcb::perfbench
