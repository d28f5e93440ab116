/** @file Tests for the discrete-event fault-tolerant cluster scheduler. */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mapreduce/scheduler.h"
#include "workloads/data_analysis.h"
#include "workloads/registry.h"

namespace dcb::mapreduce {
namespace {

JobSpec
spec_of(const std::string& name)
{
    return workloads::make_workload(name)->info().cluster_spec;
}

ClusterConfig
eight_slaves()
{
    ClusterConfig cluster;
    cluster.slaves = 8;
    return cluster;
}

/**
 * The DES scheduler derives per-task times from the analytic aggregates,
 * so with no faults the two models must agree to within map-wave
 * quantization (ceil(tasks/slots) vs tasks/slots).
 */
TEST(Scheduler, ZeroFaultMatchesAnalyticModel)
{
    const ClusterScheduler scheduler;
    const ClusterSimulator sim;
    for (const std::string& name : workloads::data_analysis_names()) {
        const JobSpec spec = spec_of(name);
        for (const std::uint32_t slaves : {1u, 4u, 8u}) {
            ClusterConfig cluster;
            cluster.slaves = slaves;
            const JobRun des = scheduler.run(spec, cluster, nullptr);
            const JobTimings ref = sim.analytic_run(spec, cluster);
            ASSERT_TRUE(des.completed) << name << " @" << slaves;
            EXPECT_NEAR(des.timings.total_s, ref.total_s,
                        0.10 * ref.total_s)
                << name << " @" << slaves << " slaves";
            EXPECT_EQ(des.task_failures, 0u);
            EXPECT_EQ(des.max_task_attempts, 1u);
            EXPECT_EQ(des.wasted_task_s, 0.0);
        }
    }
}

TEST(Scheduler, ZeroFaultSpeedupsMatchAnalyticModel)
{
    const ClusterScheduler scheduler;
    const ClusterSimulator sim;
    ClusterConfig one;
    one.slaves = 1;
    const ClusterConfig eight = eight_slaves();
    for (const std::string& name : workloads::data_analysis_names()) {
        const JobSpec spec = spec_of(name);
        const double des_speedup =
            scheduler.run(spec, one).timings.total_s /
            scheduler.run(spec, eight).timings.total_s;
        const double ref_speedup =
            sim.analytic_run(spec, one).total_s /
            sim.analytic_run(spec, eight).total_s;
        EXPECT_NEAR(des_speedup, ref_speedup, 0.10 * ref_speedup)
            << name;
    }
}

TEST(Scheduler, SimulatorFacadeDelegatesToScheduler)
{
    const ClusterSimulator sim;
    const ClusterScheduler scheduler;
    const JobSpec spec = spec_of("Sort");
    const ClusterConfig cluster = eight_slaves();
    const JobTimings facade = sim.run(spec, cluster);
    const JobRun direct = scheduler.run(spec, cluster, nullptr);
    EXPECT_DOUBLE_EQ(facade.total_s, direct.timings.total_s);
    EXPECT_DOUBLE_EQ(facade.map_s, direct.timings.map_s);
    EXPECT_DOUBLE_EQ(facade.disk_write_requests,
                     direct.timings.disk_write_requests);
}

TEST(Scheduler, SameSeedGivesIdenticalRunsAndLogs)
{
    fault::FaultPlan plan;
    plan.task_crash_prob = 0.02;
    const ClusterScheduler scheduler;
    const JobSpec spec = spec_of("WordCount");
    const ClusterConfig cluster = eight_slaves();

    fault::FaultInjector a(plan);
    fault::FaultInjector b(plan);
    const JobRun ra = scheduler.run(spec, cluster, &a);
    const JobRun rb = scheduler.run(spec, cluster, &b);

    EXPECT_EQ(ra.timings.total_s, rb.timings.total_s);
    EXPECT_EQ(ra.timings.map_s, rb.timings.map_s);
    EXPECT_EQ(ra.timings.shuffle_s, rb.timings.shuffle_s);
    EXPECT_EQ(ra.timings.reduce_s, rb.timings.reduce_s);
    EXPECT_EQ(ra.task_failures, rb.task_failures);
    EXPECT_EQ(ra.max_task_attempts, rb.max_task_attempts);
    EXPECT_EQ(ra.wasted_task_s, rb.wasted_task_s);
    EXPECT_EQ(a.log().events().size(), b.log().events().size());
    EXPECT_EQ(a.log().summary(), b.log().summary());
}

TEST(Scheduler, TaskCrashesAreRetriedToCompletion)
{
    fault::FaultPlan plan;
    plan.task_crash_prob = 0.02;
    const ClusterScheduler scheduler;
    const SchedulerConfig policy;
    const ClusterConfig cluster = eight_slaves();

    std::uint32_t total_failures = 0;
    for (const std::string& name : workloads::data_analysis_names()) {
        fault::FaultInjector injector(plan);
        const JobRun run = scheduler.run(spec_of(name), cluster,
                                         &injector);
        ASSERT_TRUE(run.completed) << name << ": " << run.error;
        EXPECT_LE(run.max_task_attempts, policy.max_attempts) << name;
        total_failures += run.task_failures;

        const JobRun clean = scheduler.run(spec_of(name), cluster);
        EXPECT_GE(run.timings.total_s, clean.timings.total_s) << name;
        EXPECT_NEAR(run.recovery_s,
                    run.timings.total_s - clean.timings.total_s, 1e-9)
            << name;
    }
    // 2% of thousands of task attempts: crashes certainly happened.
    EXPECT_GT(total_failures, 0u);
}

TEST(Scheduler, NodeCrashMidJobIsRecovered)
{
    fault::FaultPlan plan;
    plan.node_crash_time_s = 60.0;
    plan.crash_node = 2;
    const ClusterScheduler scheduler;
    const ClusterConfig cluster = eight_slaves();

    for (const std::string& name : workloads::data_analysis_names()) {
        fault::FaultInjector injector(plan);
        const JobRun run = scheduler.run(spec_of(name), cluster,
                                         &injector);
        ASSERT_TRUE(run.completed) << name << ": " << run.error;
        EXPECT_EQ(run.nodes_lost, 1u) << name;
        EXPECT_EQ(injector.log().count(fault::FaultKind::kNodeCrash), 1u);
        const JobRun clean = scheduler.run(spec_of(name), cluster);
        // Losing 1/8 of the slots can only slow the job down.
        EXPECT_GE(run.timings.total_s, clean.timings.total_s) << name;
    }
}

/**
 * A single realization need not be monotone (a lucky crash pattern can
 * repack the last wave), but the suite mean across the eleven jobs is.
 */
TEST(Scheduler, MeanJobTimeMonotoneInCrashRate)
{
    const ClusterScheduler scheduler;
    const ClusterConfig cluster = eight_slaves();
    double prev = 0.0;
    for (const double rate : {0.0, 0.01, 0.05}) {
        fault::FaultPlan plan;
        plan.task_crash_prob = rate;
        double mean = 0.0;
        for (const std::string& name :
             workloads::data_analysis_names()) {
            fault::FaultInjector injector(plan);
            const JobRun run = scheduler.run(spec_of(name), cluster,
                                             &injector);
            ASSERT_TRUE(run.completed) << name << ": " << run.error;
            mean += run.timings.total_s;
        }
        mean /= workloads::data_analysis_names().size();
        EXPECT_GE(mean, prev) << "rate " << rate;
        prev = mean;
    }
}

TEST(Scheduler, SpeculationRescuesSlowNodes)
{
    fault::FaultPlan plan;
    plan.slow_node_fraction = 0.5;
    plan.slow_multiplier = 3.0;
    // Make sure the hashed slow-node assignment actually marks at least
    // one of the eight slaves slow (and not all of them).
    for (std::uint64_t seed = plan.seed;; ++seed) {
        plan.seed = seed;
        fault::FaultInjector probe(plan);
        std::uint32_t slow = 0;
        for (std::uint32_t node = 0; node < 8; ++node)
            if (probe.node_speed_multiplier(node) > 1.0)
                ++slow;
        if (slow >= 1 && slow <= 6)
            break;
    }

    SchedulerConfig with_spec;
    SchedulerConfig no_spec;
    no_spec.speculation = false;
    const JobSpec spec = spec_of("K-means");
    const ClusterConfig cluster = eight_slaves();

    fault::FaultInjector ia(plan);
    const JobRun speculated =
        ClusterScheduler(with_spec).run(spec, cluster, &ia);
    fault::FaultInjector ib(plan);
    const JobRun plain = ClusterScheduler(no_spec).run(spec, cluster,
                                                       &ib);
    ASSERT_TRUE(speculated.completed);
    ASSERT_TRUE(plain.completed);
    EXPECT_GT(speculated.speculative_launched, 0u);
    EXPECT_EQ(plain.speculative_launched, 0u);
    // Backup copies on healthy nodes beat waiting out the stragglers.
    EXPECT_LT(speculated.timings.total_s, plain.timings.total_s);
}

TEST(Scheduler, BlacklistNeverExceedsQuarterOfTheCluster)
{
    fault::FaultPlan plan;
    plan.task_crash_prob = 0.05;
    const ClusterScheduler scheduler;
    const ClusterConfig cluster = eight_slaves();
    for (const std::string& name : workloads::data_analysis_names()) {
        fault::FaultInjector injector(plan);
        const JobRun run = scheduler.run(spec_of(name), cluster,
                                         &injector);
        ASSERT_TRUE(run.completed) << name << ": " << run.error;
        EXPECT_LE(run.nodes_blacklisted, cluster.slaves / 4) << name;
    }
}

TEST(Scheduler, OutOfAttemptsFailsWithDiagnosticNotAbort)
{
    fault::FaultPlan plan;
    plan.task_crash_prob = 1.0;  // every attempt dies
    const SchedulerConfig policy;
    fault::FaultInjector injector(plan);
    const JobRun run = ClusterScheduler().run(spec_of("Grep"),
                                              eight_slaves(), &injector);
    EXPECT_FALSE(run.completed);
    EXPECT_NE(run.error.find("max_attempts"), std::string::npos)
        << run.error;
    EXPECT_LE(run.max_task_attempts, policy.max_attempts);
    EXPECT_GT(run.task_failures, 0u);
}

TEST(Scheduler, BadConfigsAreRecoverableErrors)
{
    const ClusterScheduler scheduler;
    const JobSpec spec = spec_of("Sort");

    ClusterConfig no_slaves;
    no_slaves.slaves = 0;
    const JobRun r1 = scheduler.run(spec, no_slaves);
    EXPECT_FALSE(r1.completed);
    EXPECT_NE(r1.error.find("slaves"), std::string::npos) << r1.error;

    SchedulerConfig no_attempts;
    no_attempts.max_attempts = 0;
    const JobRun r2 =
        ClusterScheduler(no_attempts).run(spec, eight_slaves());
    EXPECT_FALSE(r2.completed);
    EXPECT_NE(r2.error.find("max_attempts"), std::string::npos)
        << r2.error;

    JobSpec no_input = spec;
    no_input.input_gb = 0.0;
    const JobRun r3 = scheduler.run(no_input, eight_slaves());
    EXPECT_FALSE(r3.completed);
    EXPECT_NE(r3.error.find("input_gb"), std::string::npos) << r3.error;

    // An invalid fault plan embedded in the cluster config is caught by
    // the same recoverable path.
    ClusterConfig bad_fault = eight_slaves();
    bad_fault.fault.task_crash_prob = 2.0;
    EXPECT_NE(validate(bad_fault), "");
}

TEST(SchedulerConfig, ValidationCoversEveryKnob)
{
    EXPECT_EQ(validate(SchedulerConfig{}), "");

    SchedulerConfig c;
    c.max_attempts = 0;
    EXPECT_NE(validate(c), "");

    c = SchedulerConfig{};
    c.backoff_base_s = -1.0;
    EXPECT_NE(validate(c), "");

    c = SchedulerConfig{};
    c.backoff_factor = 0.5;
    EXPECT_NE(validate(c), "");

    c = SchedulerConfig{};
    c.speculative_slowdown = 1.0;
    EXPECT_NE(validate(c), "");

    c = SchedulerConfig{};
    c.blacklist_task_failures = 0;
    EXPECT_NE(validate(c), "");

    // Self-healing knobs.
    c = SchedulerConfig{};
    c.task_timeout_factor = c.speculative_slowdown;  // watchdog first
    EXPECT_NE(validate(c), "");

    c = SchedulerConfig{};
    c.backoff_jitter = 1.0;  // would allow a zero backoff
    EXPECT_NE(validate(c), "");

    c = SchedulerConfig{};
    c.checkpoint_interval_s = 0.0;
    EXPECT_NE(validate(c), "");

    c = SchedulerConfig{};
    c.failover_delay_s = -1.0;
    EXPECT_NE(validate(c), "");

    c = SchedulerConfig{};
    c.degrade_failure_ratio = 0.0;
    EXPECT_NE(validate(c), "");

    c = SchedulerConfig{};
    c.degraded_backoff_factor = 0.5;
    EXPECT_NE(validate(c), "");
}

// ---------------------------------------------------------------------
// Correlated faults and self-healing
// ---------------------------------------------------------------------

bool
runs_bit_equal(const JobRun& a, const JobRun& b)
{
    return a.completed == b.completed && a.error == b.error &&
           a.timings.total_s == b.timings.total_s &&
           a.timings.map_s == b.timings.map_s &&
           a.timings.shuffle_s == b.timings.shuffle_s &&
           a.timings.reduce_s == b.timings.reduce_s &&
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

/** FNV-1a over the JobRun fields the golden hashes pin. */
class RunHash
{
  public:
    void mix(const void* p, std::size_t n)
    {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 1099511628211ULL;
        }
    }
    void mix_d(double v) { mix(&v, sizeof v); }
    void mix_u(std::uint64_t v) { mix(&v, sizeof v); }
    void mix_run(const JobRun& r)
    {
        mix_u(r.completed ? 1 : 0);
        mix_d(r.timings.total_s);
        mix_d(r.timings.map_s);
        mix_d(r.timings.shuffle_s);
        mix_d(r.timings.reduce_s);
        mix_d(r.timings.overhead_s);
        mix_d(r.timings.disk_write_requests);
        mix_d(r.timings.disk_writes_per_second);
        mix_u(r.max_task_attempts);
        mix_u(r.task_failures);
        mix_u(r.speculative_launched);
        mix_u(r.speculative_wasted);
        mix_u(r.maps_reexecuted);
        mix_u(r.nodes_lost);
        mix_u(r.nodes_blacklisted);
        mix_d(r.wasted_task_s);
        mix_d(r.recovery_s);
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ULL;
};

/**
 * The zero-fault event path is the baseline every experiment in the
 * repo compares against, so it is pinned by value: an FNV-1a hash over
 * the JobRun fields of all eleven workloads at 1/4/8 slaves. If a
 * scheduler change moves this hash, it changed fault-free behaviour --
 * either fix the regression or consciously re-pin with the bench
 * numbers re-baselined.
 */
TEST(Scheduler, ZeroFaultGoldenHashIsPinned)
{
    RunHash h;
    const ClusterScheduler scheduler;
    for (const std::string& name : workloads::data_analysis_names()) {
        const JobSpec spec = spec_of(name);
        for (const std::uint32_t slaves : {1u, 4u, 8u}) {
            ClusterConfig cluster;
            cluster.slaves = slaves;
            h.mix_run(scheduler.run(spec, cluster, nullptr));
        }
    }
    EXPECT_EQ(h.value(), 0x2b3a8c7bf3d1530fULL)
        << "zero-fault scheduler output changed; if intentional, re-pin "
           "and re-baseline the committed bench artifacts";
}

/**
 * The faulted event path -- watchdog deadlines, crash reports held
 * behind a partition, failover, cascades -- pinned the same way: one
 * fixed plan per chaos-sweep fault kind at 4/8/16 slaves, hashing the
 * JobRun fields above plus the attempt-duration sketch and the size of
 * the fault log.
 */
TEST(Scheduler, FaultedGoldenHashIsPinned)
{
    std::vector<fault::FaultPlan> plans(8);
    plans[0].task_crash_prob = 0.008;
    plans[1].task_hang_prob = 0.012;
    plans[2].slow_node_fraction = 0.3;
    plans[2].slow_multiplier = 2.5;
    plans[3].node_crash_time_s = 45.0;
    plans[3].crash_node = 1;
    plans[3].task_crash_prob = 0.004;
    plans[4].rack_crash_time_s = 40.0;
    plans[4].crash_rack = 1;
    plans[5].partition_time_s = 30.0;
    plans[5].partition_duration_s = 50.0;
    plans[5].partition_rack = 1;
    plans[5].cascade_prob = 0.3;
    plans[6].master_crash_time_s = 35.0;
    plans[6].cascade_prob = 0.3;
    plans[7].task_crash_prob = 0.1;
    plans[7].task_hang_prob = 0.05;
    plans[7].partition_time_s = 25.0;
    plans[7].partition_duration_s = 30.0;
    plans[7].partition_rack = 0;
    plans[7].master_crash_time_s = 60.0;
    plans[7].cascade_prob = 0.5;

    RunHash h;
    JobRun sum;  // every recovery path the pin should cover
    const ClusterScheduler scheduler;
    const auto& names = workloads::data_analysis_names();
    for (std::size_t k = 0; k < plans.size(); ++k) {
        plans[k].seed = 0xFA17ULL + k;
        const JobSpec spec = spec_of(names[k % names.size()]);
        for (const std::uint32_t slaves : {4u, 8u, 16u}) {
            ClusterConfig cluster;
            cluster.slaves = slaves;
            cluster.racks = 2;
            fault::FaultInjector injector(plans[k]);
            const JobRun r = scheduler.run(spec, cluster, &injector);
            EXPECT_FALSE(injector.log().events().empty())
                << "kind " << k << ", " << slaves << " slaves";
            h.mix_run(r);
            const std::string sketch = r.attempt_sketch.dump();
            h.mix(sketch.data(), sketch.size());
            h.mix_u(injector.log().events().size());
            sum.task_failures += r.task_failures;
            sum.watchdog_kills += r.watchdog_kills;
            sum.speculative_launched += r.speculative_launched;
            sum.nodes_lost += r.nodes_lost;
            sum.racks_lost += r.racks_lost;
            sum.partition_heals += r.partition_heals;
            sum.master_failovers += r.master_failovers;
            sum.cascades_triggered += r.cascades_triggered;
        }
    }
    EXPECT_GT(sum.task_failures, 0u);
    EXPECT_GT(sum.watchdog_kills, 0u);
    EXPECT_GT(sum.speculative_launched, 0u);
    EXPECT_GT(sum.nodes_lost, 0u);
    EXPECT_GT(sum.racks_lost, 0u);
    EXPECT_GT(sum.partition_heals, 0u);
    EXPECT_GT(sum.master_failovers, 0u);
    EXPECT_GT(sum.cascades_triggered, 0u);
    EXPECT_EQ(h.value(), 0x3ade948e6ebefeb4ULL)
        << "faulted scheduler output changed; if intentional, re-pin "
           "and re-baseline the committed bench artifacts";
}

TEST(Scheduler, ExpectedTaskCountsMatchCompletedRuns)
{
    const ClusterScheduler scheduler;
    const ClusterConfig cluster = eight_slaves();
    for (const std::string& name : workloads::data_analysis_names()) {
        const JobSpec spec = spec_of(name);
        const TaskCounts want = expected_task_counts(spec, cluster);
        EXPECT_GE(want.maps, 1u) << name;
        EXPECT_GE(want.reduces, 1u) << name;
        const JobRun run = scheduler.run(spec, cluster, nullptr);
        ASSERT_TRUE(run.completed) << name;
        EXPECT_EQ(run.maps_completed, want.maps) << name;
        EXPECT_EQ(run.reduces_completed, want.reduces) << name;
    }
}

TEST(Scheduler, WatchdogRecoversHungTasksExactly)
{
    fault::FaultPlan plan;
    plan.task_hang_prob = 0.05;
    const ClusterConfig cluster = eight_slaves();
    const JobSpec spec = spec_of("WordCount");
    fault::FaultInjector injector(plan);
    const JobRun run = ClusterScheduler().run(spec, cluster, &injector);
    ASSERT_TRUE(run.completed) << run.error;
    // 5% of thousands of attempts hang; only the watchdog can free the
    // slots, and every hang burns at least one deadline.
    EXPECT_GT(run.watchdog_kills, 0u);
    EXPECT_EQ(injector.log().count(fault::FaultKind::kWatchdogKill),
              run.watchdog_kills);
    // Recovery re-ran work but the final population is exact.
    const TaskCounts want = expected_task_counts(spec, cluster);
    EXPECT_EQ(run.maps_completed, want.maps);
    EXPECT_EQ(run.reduces_completed, want.reduces);
}

TEST(Scheduler, RackPowerLossKillsTheWholeRackAndRecovers)
{
    fault::FaultPlan plan;
    plan.rack_crash_time_s = 40.0;
    plan.crash_rack = 1;
    ClusterConfig cluster = eight_slaves();
    cluster.racks = 2;  // racks of 4: losing one leaves 4 slaves
    const JobSpec spec = spec_of("Sort");
    fault::FaultInjector injector(plan);
    const JobRun run = ClusterScheduler().run(spec, cluster, &injector);
    ASSERT_TRUE(run.completed) << run.error;
    EXPECT_EQ(run.racks_lost, 1u);
    EXPECT_EQ(run.nodes_lost, 4u);  // the rack's nodes count as lost
    EXPECT_EQ(injector.log().count(fault::FaultKind::kRackPowerLoss), 1u);
    const TaskCounts want = expected_task_counts(spec, cluster);
    EXPECT_EQ(run.maps_completed, want.maps);
    EXPECT_EQ(run.reduces_completed, want.reduces);
}

TEST(Scheduler, PartitionHealsAndForgivesBlacklists)
{
    fault::FaultPlan plan;
    plan.partition_time_s = 30.0;
    plan.partition_duration_s = 50.0;
    plan.partition_rack = 0;
    ClusterConfig cluster = eight_slaves();
    cluster.racks = 2;
    const JobSpec spec = spec_of("K-means");
    fault::FaultInjector injector(plan);
    const JobRun run = ClusterScheduler().run(spec, cluster, &injector);
    ASSERT_TRUE(run.completed) << run.error;
    EXPECT_EQ(run.partitions, 1u);
    EXPECT_EQ(run.partition_heals, 1u);
    EXPECT_EQ(injector.log().count(fault::FaultKind::kNetPartition), 1u);
    EXPECT_EQ(injector.log().count(fault::FaultKind::kPartitionHeal), 1u);
    // A partition is transient: no node is permanently lost and the
    // task population still comes out exact.
    EXPECT_EQ(run.nodes_lost, 0u);
    const TaskCounts want = expected_task_counts(spec, cluster);
    EXPECT_EQ(run.maps_completed, want.maps);
    EXPECT_EQ(run.reduces_completed, want.reduces);
}

TEST(Scheduler, MasterCrashFailsOverFromCheckpointDeterministically)
{
    fault::FaultPlan plan;
    // Crash late enough that whole task waves sit behind the last 30 s
    // checkpoint -- the interesting case where the standby restores
    // some completions and redoes the rest.
    plan.master_crash_time_s = 100.0;
    const ClusterConfig cluster = eight_slaves();
    const JobSpec spec = spec_of("Naive Bayes");

    fault::FaultInjector ia(plan);
    const JobRun a = ClusterScheduler().run(spec, cluster, &ia);
    ASSERT_TRUE(a.completed) << a.error;
    EXPECT_EQ(a.master_failovers, 1u);
    EXPECT_EQ(ia.log().count(fault::FaultKind::kMasterCrash), 1u);
    EXPECT_EQ(ia.log().count(fault::FaultKind::kMasterFailover), 1u);
    // Work after the last 30 s checkpoint is redone, work before it is
    // preserved -- and the split is accounted for.
    EXPECT_GT(a.checkpoints_taken, 0u);
    EXPECT_GT(a.tasks_restored, 0u);
    const TaskCounts want = expected_task_counts(spec, cluster);
    EXPECT_EQ(a.maps_completed, want.maps);
    EXPECT_EQ(a.reduces_completed, want.reduces);

    // The standby resumes deterministically: a fresh injector replays
    // the identical run.
    fault::FaultInjector ib(plan);
    const JobRun b = ClusterScheduler().run(spec, cluster, &ib);
    EXPECT_TRUE(runs_bit_equal(a, b));
}

TEST(Scheduler, RecoveryWindowsCascadeIntoDependentCrashes)
{
    fault::FaultPlan plan;
    plan.partition_time_s = 20.0;
    plan.partition_duration_s = 40.0;
    plan.partition_rack = 0;
    plan.cascade_prob = 1.0;  // every recovery window claims a victim
    ClusterConfig cluster = eight_slaves();
    cluster.racks = 2;
    fault::FaultInjector injector(plan);
    const JobRun run =
        ClusterScheduler().run(spec_of("Grep"), cluster, &injector);
    ASSERT_TRUE(run.completed) << run.error;
    EXPECT_EQ(run.partition_heals, 1u);
    EXPECT_GE(run.cascades_triggered, 1u);
    EXPECT_GE(injector.log().count(fault::FaultKind::kCascade), 1u);
    EXPECT_GE(run.nodes_lost, 1u);  // the cascade's victim
}

TEST(Scheduler, BlacklistCapHoldsUnderConcurrentNodeCrashes)
{
    // The Hadoop 1.x blacklist cap is a quarter of the cluster. Push
    // hard against it -- a crash storm driving blacklisting while a
    // node crash and a rack loss shrink the cluster under it -- and the
    // cap (measured against the full cluster size, as Hadoop does) must
    // hold exactly: at 8 slaves that is at most 2 ever blacklisted.
    fault::FaultPlan plan;
    plan.task_crash_prob = 0.30;
    plan.node_crash_time_s = 25.0;
    plan.crash_node = 5;
    plan.rack_crash_time_s = 60.0;
    plan.crash_rack = 0;
    ClusterConfig cluster = eight_slaves();
    cluster.racks = 4;  // racks of 2
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        plan.seed = 0xB1AC0000ULL + seed;
        fault::FaultInjector injector(plan);
        const JobRun run = ClusterScheduler().run(spec_of("WordCount"),
                                                  cluster, &injector);
        EXPECT_LE(run.nodes_blacklisted,
                  cluster.slaves / 4 + run.nodes_unblacklisted)
            << "seed " << seed;
        if (run.completed) {
            const TaskCounts want =
                expected_task_counts(spec_of("WordCount"), cluster);
            EXPECT_EQ(run.maps_completed, want.maps) << "seed " << seed;
        } else {
            EXPECT_FALSE(run.error.empty()) << "seed " << seed;
        }
    }
}

TEST(Scheduler, RetryBudgetExhaustsOnTheFinalAttempt)
{
    // Every attempt crashes: the task must consume its whole budget --
    // exactly max_attempts tries, no more, no fewer -- and the job must
    // report the exhaustion, not abort or hang.
    fault::FaultPlan plan;
    plan.task_crash_prob = 1.0;
    const SchedulerConfig policy;
    fault::FaultInjector injector(plan);
    const JobRun run = ClusterScheduler().run(spec_of("Grep"),
                                              eight_slaves(), &injector);
    EXPECT_FALSE(run.completed);
    EXPECT_EQ(run.max_task_attempts, policy.max_attempts);
    EXPECT_NE(run.error.find("max_attempts"), std::string::npos)
        << run.error;
    // The failing task burned its final attempt, so at least one task
    // accumulated max_attempts failures.
    EXPECT_GE(run.task_failures, policy.max_attempts);
    EXPECT_FALSE(injector.log().events().empty());
}

TEST(Scheduler, SpeculationRacingTheWatchdogReplaysIdentically)
{
    // Slow nodes make attempts overrun into speculation territory;
    // hangs push some of the same tasks past the watchdog deadline. The
    // two recovery paths race for the same attempts, and the outcome --
    // whoever wins each race -- must replay bit-identically.
    fault::FaultPlan plan;
    plan.slow_node_fraction = 0.5;
    plan.slow_multiplier = 3.0;
    plan.task_hang_prob = 0.08;
    const ClusterConfig cluster = eight_slaves();
    const JobSpec spec = spec_of("SVM");

    fault::FaultInjector ia(plan);
    const JobRun a = ClusterScheduler().run(spec, cluster, &ia);
    ASSERT_TRUE(a.completed) << a.error;
    EXPECT_GT(a.speculative_launched, 0u);
    EXPECT_GT(a.watchdog_kills, 0u);
    const TaskCounts want = expected_task_counts(spec, cluster);
    EXPECT_EQ(a.maps_completed, want.maps);
    EXPECT_EQ(a.reduces_completed, want.reduces);

    fault::FaultInjector ib(plan);
    const JobRun b = ClusterScheduler().run(spec, cluster, &ib);
    EXPECT_TRUE(runs_bit_equal(a, b));
    EXPECT_EQ(ia.log().events().size(), ib.log().events().size());
    EXPECT_EQ(ia.log().summary(), ib.log().summary());
}

TEST(Scheduler, FaultPressureTriggersGracefulDegradation)
{
    // A heavy crash+hang storm pushes failed attempts past
    // degrade_failure_ratio of the phase population: speculation is
    // shed for the remainder of the phase and the run still either
    // completes exactly or fails with a diagnostic.
    fault::FaultPlan plan;
    plan.task_crash_prob = 0.30;
    plan.task_hang_prob = 0.05;
    const ClusterConfig cluster = eight_slaves();
    const JobSpec spec = spec_of("WordCount");
    fault::FaultInjector injector(plan);
    const JobRun run = ClusterScheduler().run(spec, cluster, &injector);
    EXPECT_GT(run.degraded_phases, 0u);
    if (run.completed) {
        const TaskCounts want = expected_task_counts(spec, cluster);
        EXPECT_EQ(run.maps_completed, want.maps);
        EXPECT_EQ(run.reduces_completed, want.reduces);
    } else {
        EXPECT_FALSE(run.error.empty());
    }
}

}  // namespace
}  // namespace dcb::mapreduce
