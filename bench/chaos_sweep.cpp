/**
 * @file
 * Chaos sweep: hundreds of seeded correlated-fault scenarios against
 * the self-healing scheduler, each held to hard invariants.
 *
 * Every scenario derives a workload, a cluster (slaves spread over
 * racks), and a FaultPlan deterministically from (base seed, scenario
 * id), runs the discrete-event scheduler, and asserts:
 *
 *  - the run terminates in finite simulated time (the scheduler's event
 *    budget makes a hang structurally impossible -- a livelock surfaces
 *    as a clean failure, which this harness would flag);
 *  - a completed job produced exactly the analytic-model task
 *    population (mapreduce::expected_task_counts) -- recovery may
 *    re-execute work, never lose or double-count it;
 *  - a failed job failed cleanly: non-empty error and a non-empty
 *    FaultLog that diagnoses what was injected;
 *  - no task ever exceeds max_attempts, and the 25% blacklist cap holds
 *    (net of partition-heal forgiveness);
 *  - a replay with a fresh injector from the same plan reproduces the
 *    JobRun bit for bit.
 *
 * The sweep spans all correlated fault kinds -- task crashes, hangs,
 * slow nodes, node crashes, rack power loss, network partitions (with
 * heals), master crash/failover, cascades -- and writes a committed
 * summary to BENCH_chaos.json (atomic write, deterministic content).
 *
 * Flags:
 *   --scenarios N        scenario count (default 240)
 *   --seed N             base seed (default fixed)
 *   --scenario K         run only scenario K (prints its outcome)
 *   --trace-out FILE     Chrome trace of the selected scenario's run
 *                        (simulated time only, so byte-identical across
 *                        replays -- CI diffs it)
 *   --check-invariants   exit nonzero on any invariant violation
 *   --json FILE          summary path (default BENCH_chaos.json;
 *                        "none" disables)
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/report.h"
#include "fault/fault.h"
#include "fault/topology.h"
#include "mapreduce/fairshare.h"
#include "mapreduce/scheduler.h"
#include "obs/manifest.h"
#include "obs/trace_writer.h"
#include "util/atomic_file.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table.h"
#include "workloads/data_analysis.h"
#include "workloads/registry.h"

namespace {

using namespace dcb;

constexpr std::uint64_t kDefaultBaseSeed = 0xC4A05EEDULL;
constexpr std::uint32_t kDefaultScenarios = 240;
constexpr std::uint32_t kKindCount = 8;

const char* const kKindNames[kKindCount] = {
    "task-crash", "task-hang",    "slow-node",    "node-crash",
    "rack-loss",  "partition",    "master-crash", "storm",
};

struct Scenario
{
    std::uint32_t id = 0;
    const char* kind = "";
    std::string workload;
    mapreduce::ClusterConfig cluster;
    fault::FaultPlan plan;
};

/** Scenario `id` as a pure function of (base_seed, id). */
Scenario
make_scenario(std::uint32_t id, std::uint64_t base_seed)
{
    util::Rng rng(util::mix64(base_seed ^ (0x5CE7A110ULL + id)));
    Scenario s;
    s.id = id;
    const auto& names = workloads::data_analysis_names();
    s.workload = names[id % names.size()];

    const std::uint32_t slave_choices[] = {4, 8, 16};
    s.cluster.slaves =
        slave_choices[static_cast<std::size_t>(rng.next_below(3))];
    s.cluster.racks = (id % 2 == 0) ? 2 : 4;

    fault::FaultPlan& p = s.plan;
    p.seed = util::mix64(base_seed ^ (0xFA17ULL + id));
    const auto racks = s.cluster.racks;
    s.kind = kKindNames[id % kKindCount];
    switch (id % kKindCount) {
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
      case 5:  // a rack is partitioned for an epoch, then heals
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
      case 7:  // correlated storm: everything at once, may fail cleanly
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
    return s;
}

/** Bit-exact JobRun equality: the replay-determinism invariant. */
bool
runs_equal(const mapreduce::JobRun& a, const mapreduce::JobRun& b)
{
    return a.completed == b.completed && a.error == b.error &&
           a.timings.total_s == b.timings.total_s &&
           a.timings.map_s == b.timings.map_s &&
           a.timings.shuffle_s == b.timings.shuffle_s &&
           a.timings.reduce_s == b.timings.reduce_s &&
           a.timings.overhead_s == b.timings.overhead_s &&
           a.timings.disk_write_requests ==
               b.timings.disk_write_requests &&
           a.timings.disk_writes_per_second ==
               b.timings.disk_writes_per_second &&
           a.max_task_attempts == b.max_task_attempts &&
           a.task_failures == b.task_failures &&
           a.speculative_launched == b.speculative_launched &&
           a.speculative_wasted == b.speculative_wasted &&
           a.maps_reexecuted == b.maps_reexecuted &&
           a.nodes_lost == b.nodes_lost &&
           a.nodes_blacklisted == b.nodes_blacklisted &&
           a.wasted_task_s == b.wasted_task_s &&
           a.recovery_s == b.recovery_s &&
           a.watchdog_kills == b.watchdog_kills &&
           a.racks_lost == b.racks_lost && a.partitions == b.partitions &&
           a.partition_heals == b.partition_heals &&
           a.nodes_unblacklisted == b.nodes_unblacklisted &&
           a.master_failovers == b.master_failovers &&
           a.checkpoints_taken == b.checkpoints_taken &&
           a.tasks_restored == b.tasks_restored &&
           a.tasks_lost_to_failover == b.tasks_lost_to_failover &&
           a.cascades_triggered == b.cascades_triggered &&
           a.degraded_phases == b.degraded_phases &&
           a.maps_completed == b.maps_completed &&
           a.reduces_completed == b.reduces_completed;
}

struct KindTally
{
    std::uint32_t scenarios = 0;
    std::uint32_t completed = 0;
    std::uint32_t failed_clean = 0;
};

struct SweepState
{
    std::vector<std::string> violations;
    std::uint32_t replay_mismatches = 0;
    KindTally kinds[kKindCount];
    std::map<std::string, std::size_t> fault_events;
    mapreduce::JobRun totals;  ///< counter fields summed over scenarios
};

void
check(SweepState& state, const Scenario& s, bool held,
      const std::string& what)
{
    if (held)
        return;
    state.violations.push_back("scenario " + std::to_string(s.id) + " (" +
                               s.kind + ", " + s.workload + "): " + what);
}

/** Run one scenario and enforce every invariant; returns the JobRun. */
mapreduce::JobRun
run_scenario(const Scenario& s, const mapreduce::SchedulerConfig& policy,
             SweepState& state, obs::TraceWriter* trace)
{
    const mapreduce::ClusterScheduler scheduler(policy);
    const auto workload = workloads::make_workload(s.workload);
    const mapreduce::JobSpec& spec = workload->info().cluster_spec;
    const mapreduce::TaskCounts want =
        mapreduce::expected_task_counts(spec, s.cluster);

    fault::FaultInjector injector(s.plan);
    const mapreduce::JobRun run =
        scheduler.run(spec, s.cluster, &injector, trace, s.workload);

    KindTally& tally = state.kinds[s.id % kKindCount];
    ++tally.scenarios;

    // Invariant: finite simulated time, no hang.
    check(state, s,
          std::isfinite(run.timings.total_s) && run.timings.total_s >= 0.0,
          "non-finite simulated time");

    if (run.completed) {
        ++tally.completed;
        check(state, s, run.error.empty(),
              "completed but carries error text: " + run.error);
        // Invariant: exactly the analytic-model output counts.
        check(state, s, run.maps_completed == want.maps,
              "map completions " + std::to_string(run.maps_completed) +
                  " != expected " + std::to_string(want.maps));
        check(state, s, run.reduces_completed == want.reduces,
              "reduce completions " +
                  std::to_string(run.reduces_completed) + " != expected " +
                  std::to_string(want.reduces));
    } else {
        ++tally.failed_clean;
        // Invariant: failures are diagnosable -- an error message plus
        // a fault log explaining what was injected.
        check(state, s, !run.error.empty(),
              "failed without an error message");
        check(state, s, !injector.log().events().empty(),
              "failed with an empty fault log (undiagnosable)");
    }

    // Invariant: the retry budget really is a budget.
    check(state, s, run.max_task_attempts <= policy.max_attempts,
          "a task used " + std::to_string(run.max_task_attempts) +
              " attempts (max " + std::to_string(policy.max_attempts) +
              ")");
    // Invariant: the 25% blacklist cap, net of heal-time forgiveness.
    check(state, s,
          run.nodes_blacklisted <=
              s.cluster.slaves / 4 + run.nodes_unblacklisted,
          "blacklisted " + std::to_string(run.nodes_blacklisted) +
              " nodes on a " + std::to_string(s.cluster.slaves) +
              "-slave cluster (cap 25%)");

    // Invariant: bit-identical replay from a fresh injector.
    fault::FaultInjector replay_injector(s.plan);
    const mapreduce::JobRun replay =
        scheduler.run(spec, s.cluster, &replay_injector, nullptr,
                      s.workload);
    if (!runs_equal(run, replay)) {
        ++state.replay_mismatches;
        check(state, s, false, "replay diverged from the original run");
    }

    for (const auto& event : injector.log().events())
        ++state.fault_events[fault::fault_kind_name(event.kind)];

    mapreduce::JobRun& t = state.totals;
    t.task_failures += run.task_failures;
    t.watchdog_kills += run.watchdog_kills;
    t.nodes_lost += run.nodes_lost;
    t.racks_lost += run.racks_lost;
    t.partitions += run.partitions;
    t.partition_heals += run.partition_heals;
    t.nodes_blacklisted += run.nodes_blacklisted;
    t.nodes_unblacklisted += run.nodes_unblacklisted;
    t.master_failovers += run.master_failovers;
    t.tasks_restored += run.tasks_restored;
    t.tasks_lost_to_failover += run.tasks_lost_to_failover;
    t.cascades_triggered += run.cascades_triggered;
    t.degraded_phases += run.degraded_phases;
    t.maps_reexecuted += run.maps_reexecuted;
    t.speculative_launched += run.speculative_launched;
    return run;
}

/**
 * Parity mode (--engine sharded): drive the scenario's fault plan
 * through the multi-job fair-share scheduler on the sharded engine
 * instead of the serial ClusterScheduler. Two staggered submissions of
 * the scenario workload share the cluster, so the fair-share grant
 * path, the uplink link servers and the multi-job fault recovery all
 * run under the same chaos the serial sweep applies -- and the serial
 * (threads=1) run, the sharded (threads=4) run and a fresh-injector
 * replay must produce byte-identical MultiJobResult dumps.
 */
bool
run_scenario_sharded(const Scenario& s,
                     const mapreduce::FairShareConfig& fair,
                     SweepState& state)
{
    const mapreduce::MultiJobScheduler scheduler(fair);
    const auto workload = workloads::make_workload(s.workload);

    std::vector<mapreduce::JobSubmission> subs(2);
    subs[0].spec = workload->info().cluster_spec;
    subs[0].weight = 2.0;
    subs[1].spec = subs[0].spec;
    subs[1].submit_time_s = 15.0;

    const auto run_once = [&](unsigned threads) {
        fault::FaultInjector injector(s.plan);
        mapreduce::MultiJobOptions options;
        options.threads = threads;
        options.injector = &injector;
        return scheduler.run(subs, s.cluster, options);
    };
    const mapreduce::MultiJobResult serial = run_once(1);
    const mapreduce::MultiJobResult sharded = run_once(4);
    const mapreduce::MultiJobResult replay = run_once(4);

    KindTally& tally = state.kinds[s.id % kKindCount];
    ++tally.scenarios;
    check(state, s, serial.ok, "config rejected: " + serial.error);
    if (!serial.ok)
        return false;

    check(state, s,
          std::isfinite(serial.makespan_s) && serial.makespan_s >= 0.0,
          "non-finite simulated time");
    const std::string dump = serial.dump();
    if (dump != sharded.dump()) {
        ++state.replay_mismatches;
        check(state, s, false, "sharded run diverged from serial");
    }
    if (dump != replay.dump()) {
        ++state.replay_mismatches;
        check(state, s, false, "replay diverged from the original run");
    }

    bool all_completed = true;
    for (std::size_t j = 0; j < subs.size(); ++j) {
        const mapreduce::JobOutcome& job = serial.jobs[j];
        if (job.completed) {
            const mapreduce::TaskCounts want =
                mapreduce::expected_task_counts(subs[j].spec, s.cluster);
            check(state, s, job.error.empty(),
                  "completed but carries error text: " + job.error);
            check(state, s,
                  job.maps_completed == want.maps &&
                      job.reduces_completed == want.reduces,
                  "completed job " + std::to_string(j) +
                      " task counts off the analytic model");
        } else {
            all_completed = false;
            check(state, s, !job.error.empty(),
                  "failed without an error message");
        }
        check(state, s, job.max_task_attempts <= fair.max_attempts,
              "a task used " + std::to_string(job.max_task_attempts) +
                  " attempts (max " + std::to_string(fair.max_attempts) +
                  ")");
    }
    check(state, s,
          serial.cluster.nodes_blacklisted <=
              s.cluster.slaves / 4 + serial.cluster.nodes_unblacklisted,
          "blacklisted " +
              std::to_string(serial.cluster.nodes_blacklisted) +
              " nodes on a " + std::to_string(s.cluster.slaves) +
              "-slave cluster (cap 25%)");
    if (!all_completed)
        check(state, s, s.plan.any_faults(),
              "job failed under a fault-free plan");

    if (all_completed)
        ++tally.completed;
    else
        ++tally.failed_clean;
    mapreduce::JobRun& t = state.totals;
    t.watchdog_kills += serial.jobs[0].watchdog_kills +
                        serial.jobs[1].watchdog_kills;
    t.nodes_lost += serial.cluster.nodes_lost;
    t.racks_lost += serial.cluster.racks_lost;
    t.partitions += serial.cluster.partitions;
    t.partition_heals += serial.cluster.partition_heals;
    t.nodes_blacklisted += serial.cluster.nodes_blacklisted;
    t.nodes_unblacklisted += serial.cluster.nodes_unblacklisted;
    t.master_failovers += serial.cluster.master_failovers;
    t.tasks_lost_to_failover += serial.cluster.tasks_lost_to_failover;
    t.cascades_triggered += serial.cluster.cascades_triggered;
    return all_completed;
}

std::string
sweep_json(const SweepState& state, std::uint32_t scenarios,
           std::uint64_t base_seed, std::uint32_t completed,
           std::uint32_t failed_clean,
           const mapreduce::SchedulerConfig& policy)
{
    obs::RunManifest manifest;
    manifest.set("bench", "chaos_sweep");
    manifest.set("scenarios", std::uint64_t{scenarios});
    manifest.set("base_seed", std::uint64_t{base_seed});
    manifest.set("max_attempts", std::uint64_t{policy.max_attempts});
    manifest.set("task_timeout_factor", policy.task_timeout_factor);
    manifest.set("backoff_jitter", policy.backoff_jitter);
    manifest.set("checkpoint_interval_s", policy.checkpoint_interval_s);
    manifest.set("failover_delay_s", policy.failover_delay_s);
    manifest.add_host_info();

    std::string out = "{\n";
    out += "  \"scenarios\": " + std::to_string(scenarios) + ",\n";
    out += "  \"completed\": " + std::to_string(completed) + ",\n";
    out += "  \"failed_clean\": " + std::to_string(failed_clean) + ",\n";
    out += "  \"invariant_violations\": " +
           std::to_string(state.violations.size()) + ",\n";
    out += "  \"replay_mismatches\": " +
           std::to_string(state.replay_mismatches) + ",\n";
    out += "  \"kinds\": [\n";
    for (std::uint32_t k = 0; k < kKindCount; ++k) {
        const KindTally& tally = state.kinds[k];
        out += std::string("    {\"kind\": \"") + kKindNames[k] +
               "\", \"scenarios\": " + std::to_string(tally.scenarios) +
               ", \"completed\": " + std::to_string(tally.completed) +
               ", \"failed_clean\": " +
               std::to_string(tally.failed_clean) + "}" +
               (k + 1 < kKindCount ? "," : "") + "\n";
    }
    out += "  ],\n";
    out += "  \"fault_events\": {";
    bool first = true;
    for (const auto& [name, count] : state.fault_events) {
        out += std::string(first ? "" : ", ") + "\"" + name +
               "\": " + std::to_string(count);
        first = false;
    }
    out += "},\n";
    const mapreduce::JobRun& t = state.totals;
    out += "  \"totals\": {";
    out += "\"task_failures\": " + std::to_string(t.task_failures);
    out += ", \"watchdog_kills\": " + std::to_string(t.watchdog_kills);
    out += ", \"nodes_lost\": " + std::to_string(t.nodes_lost);
    out += ", \"racks_lost\": " + std::to_string(t.racks_lost);
    out += ", \"partitions\": " + std::to_string(t.partitions);
    out += ", \"partition_heals\": " + std::to_string(t.partition_heals);
    out += ", \"nodes_blacklisted\": " +
           std::to_string(t.nodes_blacklisted);
    out += ", \"nodes_unblacklisted\": " +
           std::to_string(t.nodes_unblacklisted);
    out += ", \"master_failovers\": " +
           std::to_string(t.master_failovers);
    out += ", \"tasks_restored\": " + std::to_string(t.tasks_restored);
    out += ", \"tasks_lost_to_failover\": " +
           std::to_string(t.tasks_lost_to_failover);
    out += ", \"cascades_triggered\": " +
           std::to_string(t.cascades_triggered);
    out += ", \"degraded_phases\": " + std::to_string(t.degraded_phases);
    out += ", \"maps_reexecuted\": " + std::to_string(t.maps_reexecuted);
    out += ", \"speculative_launched\": " +
           std::to_string(t.speculative_launched);
    out += "},\n";
    out += "  \"manifest\": " + manifest.json_fragment(2) + "\n";
    out += "}\n";
    return out;
}

}  // namespace

int
main(int argc, char** argv)
{
    using util::format_double;

    std::uint32_t scenarios = kDefaultScenarios;
    std::uint64_t base_seed = kDefaultBaseSeed;
    std::int64_t only_scenario = -1;
    bool check_invariants = false;
    bool sharded_engine = false;
    std::string trace_path;
    std::string json_path;
    bool json_path_set = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char* flag) -> const char* {
            const std::size_t len = std::strlen(flag);
            if (arg.compare(0, len, flag) == 0 && arg.size() > len &&
                arg[len] == '=')
                return arg.c_str() + len + 1;
            if (arg == flag && i + 1 < argc)
                return argv[++i];
            return nullptr;
        };
        if (arg == "--check-invariants")
            check_invariants = true;
        else if (const char* v = value("--scenarios"))
            scenarios = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
        else if (const char* v = value("--seed"))
            base_seed = std::strtoull(v, nullptr, 10);
        else if (const char* v = value("--scenario"))
            only_scenario = std::strtol(v, nullptr, 10);
        else if (const char* v = value("--trace-out"))
            trace_path = v;
        else if (const char* v = value("--engine")) {
            if (std::string(v) == "sharded") {
                sharded_engine = true;
            } else if (std::string(v) != "serial") {
                std::fprintf(stderr,
                             "error: --engine must be serial or "
                             "sharded, got \"%s\"\n",
                             v);
                return 2;
            }
        } else if (const char* v = value("--json")) {
            json_path = v;
            json_path_set = true;
        }
    }
    // The committed BENCH_chaos.json describes the serial sweep; the
    // sharded parity mode writes no JSON unless asked.
    if (!json_path_set)
        json_path = sharded_engine ? "none" : "BENCH_chaos.json";

    const mapreduce::SchedulerConfig policy;  // hardened defaults
    const mapreduce::FairShareConfig fair;    // multi-job analogue
    SweepState state;
    std::uint32_t completed = 0;
    std::uint32_t failed_clean = 0;

    if (sharded_engine) {
        // Parity sweep: every scenario through the multi-job fair-share
        // scheduler, serial vs sharded vs replay, same invariants.
        const std::uint32_t first =
            only_scenario >= 0 ? static_cast<std::uint32_t>(only_scenario)
                               : 0;
        const std::uint32_t last =
            only_scenario >= 0 ? first + 1 : scenarios;
        for (std::uint32_t id = first; id < last; ++id) {
            const Scenario s = make_scenario(id, base_seed);
            if (run_scenario_sharded(s, fair, state))
                ++completed;
            else
                ++failed_clean;
        }

        util::Table table({"fault kind", "scenarios", "completed",
                           "failed clean"});
        table.set_title("chaos parity sweep (sharded engine): " +
                        std::to_string(last - first) +
                        " scenarios x {serial, sharded, replay}");
        for (std::uint32_t k = 0; k < kKindCount; ++k)
            table.add_row({kKindNames[k],
                           std::to_string(state.kinds[k].scenarios),
                           std::to_string(state.kinds[k].completed),
                           std::to_string(state.kinds[k].failed_clean)});
        table.print();

        const mapreduce::JobRun& t = state.totals;
        std::printf("\n%u/%u scenarios completed every job, %u failed "
                    "clean; watchdog kills %u, racks lost %u, "
                    "partitions %u (heals %u), master failovers %u, "
                    "cascades %u\n",
                    completed, last - first, failed_clean,
                    t.watchdog_kills, t.racks_lost, t.partitions,
                    t.partition_heals, t.master_failovers,
                    t.cascades_triggered);
        for (const std::string& v : state.violations)
            std::fprintf(stderr, "INVARIANT VIOLATION: %s\n", v.c_str());

        if (only_scenario < 0) {
            core::shape_check("zero invariant violations across the "
                              "parity sweep",
                              state.violations.empty());
            core::shape_check("serial, sharded and replay runs are "
                              "bit-identical",
                              state.replay_mismatches == 0);
            const bool all_kinds_survive = [&] {
                for (const KindTally& tally : state.kinds)
                    if (tally.completed == 0)
                        return false;
                return true;
            }();
            core::shape_check("every fault kind has scenarios where "
                              "both jobs complete",
                              all_kinds_survive);
            core::shape_check("multi-job recovery machinery fired "
                              "(heals + failovers)",
                              t.partition_heals > 0 &&
                                  t.master_failovers > 0);
        }
        return check_invariants && !state.violations.empty() ? 1 : 0;
    }

    if (only_scenario >= 0) {
        // Single-scenario mode: CI replays this twice and byte-diffs the
        // trace (simulated-time events only, so it must be identical).
        const Scenario s = make_scenario(
            static_cast<std::uint32_t>(only_scenario), base_seed);
        std::unique_ptr<obs::TraceWriter> trace;
        if (!trace_path.empty())
            trace = std::make_unique<obs::TraceWriter>();
        const mapreduce::JobRun run =
            run_scenario(s, policy, state, trace.get());
        std::printf("scenario %lld: kind=%s workload=\"%s\" slaves=%u "
                    "racks=%u -> %s in %.1fs (watchdog %u, heals %u, "
                    "failovers %u, cascades %u)\n",
                    static_cast<long long>(only_scenario), s.kind,
                    s.workload.c_str(), s.cluster.slaves, s.cluster.racks,
                    run.completed ? "completed"
                                  : ("FAILED: " + run.error).c_str(),
                    run.timings.total_s, run.watchdog_kills,
                    run.partition_heals, run.master_failovers,
                    run.cascades_triggered);
        if (trace != nullptr) {
            if (trace->write(trace_path))
                std::printf("wrote %s (%zu trace events)\n",
                            trace_path.c_str(), trace->size());
            else
                std::fprintf(stderr, "error: cannot write %s\n",
                             trace_path.c_str());
        }
        for (const std::string& v : state.violations)
            std::fprintf(stderr, "INVARIANT VIOLATION: %s\n", v.c_str());
        return check_invariants && !state.violations.empty() ? 1 : 0;
    }

    for (std::uint32_t id = 0; id < scenarios; ++id) {
        const Scenario s = make_scenario(id, base_seed);
        const mapreduce::JobRun run =
            run_scenario(s, policy, state, nullptr);
        if (run.completed)
            ++completed;
        else
            ++failed_clean;
    }

    util::Table table({"fault kind", "scenarios", "completed",
                       "failed clean"});
    table.set_title("chaos sweep: " + std::to_string(scenarios) +
                    " seeded correlated-fault scenarios");
    for (std::uint32_t k = 0; k < kKindCount; ++k)
        table.add_row({kKindNames[k],
                       std::to_string(state.kinds[k].scenarios),
                       std::to_string(state.kinds[k].completed),
                       std::to_string(state.kinds[k].failed_clean)});
    table.print();

    const mapreduce::JobRun& t = state.totals;
    std::printf("\n%u/%u completed exactly, %u failed clean; "
                "watchdog kills %u, racks lost %u, partitions %u "
                "(heals %u, un-blacklists %u), master failovers %u "
                "(restored %u, redone %u), cascades %u, degraded "
                "phases %u\n",
                completed, scenarios, failed_clean, t.watchdog_kills,
                t.racks_lost, t.partitions, t.partition_heals,
                t.nodes_unblacklisted, t.master_failovers,
                t.tasks_restored, t.tasks_lost_to_failover,
                t.cascades_triggered, t.degraded_phases);

    for (const std::string& v : state.violations)
        std::fprintf(stderr, "INVARIANT VIOLATION: %s\n", v.c_str());

    const bool all_kinds_survive = [&] {
        for (const KindTally& tally : state.kinds)
            if (tally.completed == 0)
                return false;
        return true;
    }();
    core::shape_check("zero invariant violations across the sweep",
                      state.violations.empty());
    core::shape_check("every replay is bit-identical to its original",
                      state.replay_mismatches == 0);
    core::shape_check("every fault kind has scenarios that complete "
                      "exactly (incl. master crash)",
                      all_kinds_survive);
    core::shape_check("partitions heal and forgive blacklists",
                      t.partition_heals > 0);
    core::shape_check("master failovers restore checkpointed work",
                      t.master_failovers > 0 && t.tasks_restored > 0);
    core::shape_check("the hard kinds actually fired",
                      t.watchdog_kills > 0 && t.racks_lost > 0 &&
                          t.cascades_triggered > 0 &&
                          t.degraded_phases > 0);

    if (json_path != "none") {
        const std::string json = sweep_json(
            state, scenarios, base_seed, completed, failed_clean, policy);
        if (util::write_file_atomic(json_path, json))
            std::printf("\nwrote %s\n", json_path.c_str());
        else
            std::fprintf(stderr, "\nerror: cannot write %s\n",
                         json_path.c_str());
    }
    return check_invariants && !state.violations.empty() ? 1 : 0;
}
