/** @file Tests for the sharded engine and the multi-job scheduler:
    deterministic merge order, serial-vs-sharded bit-identity with and
    without correlated faults, pinned dump hashes, stale-report
    handling, per-shard RNG independence, host-time accounting. */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "mapreduce/fairshare.h"
#include "mapreduce/scheduler.h"
#include "mapreduce/shard_engine.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace dcb::mapreduce {
namespace {

// ---- Raw engine ------------------------------------------------------

/**
 * Messages from different shards at identical times must arrive in
 * (time, from_shard, seq) order regardless of which worker ran which
 * shard -- the engine's total merge order.
 */
TEST(ShardEngine, CrossShardTieBreakOrder)
{
    for (const unsigned threads : {1u, 4u}) {
        ShardedEngine engine(4, 1.0, 42);
        // Same event time everywhere; two messages per shard so the
        // per-shard seq tie-break is exercised too.
        for (std::uint32_t s = 0; s < 4; ++s)
            engine.seed_event(s, 0.5, 1);
        std::vector<ShardMessage> got;
        engine.run(
            [](std::uint32_t shard, const ShardEvent& ev, ShardApi& api) {
                api.send(ev.time, 1, shard, 0);
                api.send(ev.time, 1, shard, 1);
            },
            [&got](double, const std::vector<ShardMessage>& inbox,
                   Coordinator&) {
                got.insert(got.end(), inbox.begin(), inbox.end());
                return true;
            },
            threads);
        ASSERT_EQ(got.size(), 8u) << threads << " threads";
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].from_shard, i / 2) << i;
            EXPECT_EQ(got[i].b, i % 2) << i;
        }
    }
}

/** Local events at the same instant run in push order (seq). */
TEST(ShardEngine, SameShardSeqTieBreak)
{
    ShardedEngine engine(1, 1.0, 7);
    for (std::uint32_t i = 0; i < 5; ++i)
        engine.seed_event(0, 2.25, 1, i);
    std::vector<std::uint32_t> order;
    engine.run(
        [&order](std::uint32_t, const ShardEvent& ev, ShardApi&) {
            order.push_back(ev.a);
        },
        [](double, const std::vector<ShardMessage>&, Coordinator&) {
            return true;
        },
        1);
    EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

/**
 * A stochastic multi-epoch model must be bit-identical between a
 * 1-thread run and an oversubscribed 8-thread run: every handler draws
 * from its shard's private stream and pushes follow-up events, so any
 * cross-shard interleaving difference would show up in the messages.
 */
TEST(ShardEngine, SerialVsThreadedBitIdentical)
{
    const auto run_model = [](unsigned threads) {
        ShardedEngine engine(16, 0.5, 99);
        for (std::uint32_t s = 0; s < 16; ++s)
            engine.seed_event(s, 0.1 * (s % 3), 1, 20);
        std::vector<ShardMessage> got;
        engine.run(
            [](std::uint32_t, const ShardEvent& ev, ShardApi& api) {
                const double draw = api.rng().next_double();
                api.send(api.now(), 2, ev.a, 0, 0, 0, draw);
                if (ev.a > 0)
                    api.push(api.now() + 0.3 + draw, 1, ev.a - 1);
            },
            [&got](double, const std::vector<ShardMessage>& inbox,
                   Coordinator&) {
                got.insert(got.end(), inbox.begin(), inbox.end());
                return true;
            },
            threads);
        return got;
    };
    const std::vector<ShardMessage> serial = run_model(1);
    const std::vector<ShardMessage> threaded = run_model(8);
    ASSERT_EQ(serial.size(), threaded.size());
    ASSERT_GT(serial.size(), 100u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].time, threaded[i].time) << i;
        EXPECT_EQ(serial[i].from_shard, threaded[i].from_shard) << i;
        EXPECT_EQ(serial[i].seq, threaded[i].seq) << i;
        EXPECT_EQ(serial[i].x, threaded[i].x) << i;  // exact, not near
    }
}

/** Epochs snap to the lookahead grid and skip empty cells wholesale. */
TEST(ShardEngine, EpochGridSkipsEmptyCells)
{
    ShardedEngine engine(2, 1.0, 1);
    engine.seed_event(0, 0.5, 1);
    engine.seed_event(1, 100.25, 1);
    const EngineResult result = engine.run(
        [](std::uint32_t, const ShardEvent&, ShardApi&) {},
        [](double, const std::vector<ShardMessage>&, Coordinator&) {
            return true;
        },
        1);
    EXPECT_EQ(result.epochs, 2u);
    EXPECT_EQ(result.events, 2u);
    EXPECT_DOUBLE_EQ(result.end_time_s, 101.0);
}

/** One queue operation on a shard, as the queue-order test logs it. */
struct QueueOp
{
    bool push = false;  ///< else a delivery
    double time = 0.0;
    std::uint64_t seq = 0;
    bool operator==(const QueueOp&) const = default;
};

/**
 * Queue-order property: handlers push a seeded mix of equal-time ties,
 * events inside the current epoch, exactly-one-lookahead chains and far
 * events, and the coordinator pushes at and after each barrier. Every
 * shard must deliver in strict (time, seq) order, exactly as a plain
 * std::priority_queue replay of the same pushes does, and a 4-thread
 * run must log the same operations as a 1-thread run.
 */
TEST(ShardEngine, QueueDeliversHeapOrderForAnyPushMix)
{
    constexpr std::uint32_t kShards = 4;
    constexpr double kLookahead = 1.0;
    constexpr std::uint32_t kChain = 1;  // b = hops left
    constexpr std::uint32_t kLeaf = 2;
    const auto run_model = [&](unsigned threads) {
        ShardedEngine engine(kShards, kLookahead, 2024);
        // Per shard: the seq the next push will get, and the op log.
        std::vector<std::uint64_t> next_seq(kShards, 0);
        std::vector<std::vector<QueueOp>> log(kShards);
        const auto logged = [&](std::uint32_t s, double time) {
            log[s].push_back({true, time, next_seq[s]});
            return static_cast<std::uint32_t>(next_seq[s]++);
        };
        for (std::uint32_t s = 0; s < kShards; ++s)
            for (std::uint32_t i = 0; i < 40; ++i) {
                const double t = 0.01 * i;
                engine.seed_event(s, t, kChain, logged(s, t), 60);
            }
        util::Rng coordinator_rng(77);
        engine.run(
            [&](std::uint32_t s, const ShardEvent& ev, ShardApi& api) {
                EXPECT_EQ(ev.seq, ev.a);  // the log's seq bookkeeping
                log[s].push_back({false, ev.time, ev.seq});
                const auto push = [&](double t, std::uint32_t kind,
                                      std::uint32_t hops = 0) {
                    api.push(t, kind, logged(s, t), hops);
                };
                util::Rng& rng = api.rng();
                const double now = api.now();
                if (ev.kind == kChain && ev.b > 0)
                    push(now + kLookahead, kChain, ev.b - 1);
                const double u = rng.next_double();
                if (u < 0.25) {
                    push(now, kLeaf);  // tie with the running event
                } else if (u < 0.5) {
                    push(now + (api.epoch_end() - now) *
                                   rng.next_double(),
                         kLeaf);
                } else if (u < 0.6) {
                    const double far = 2.0 + 10.0 * rng.next_double();
                    push(now + kLookahead * far, kLeaf);
                } else if (u < 0.75) {
                    const double t = now + kLookahead * rng.next_double();
                    push(t, kLeaf);
                    push(t, kLeaf);  // tie among the new events
                }
            },
            [&](double barrier_s, const std::vector<ShardMessage>&,
                Coordinator& co) {
                if (barrier_s > 50.0)
                    return true;
                for (std::uint32_t s = 0; s < kShards; ++s) {
                    const std::uint32_t n =
                        1 + static_cast<std::uint32_t>(
                                coordinator_rng.next_double() * 6.0);
                    for (std::uint32_t i = 0; i < n; ++i) {
                        double t = barrier_s;
                        if (i % 3 == 2)  // after the barrier
                            t += 3.0 * kLookahead *
                                 coordinator_rng.next_double();
                        co.push(s, t, kLeaf, logged(s, t));
                    }
                }
                return true;
            },
            threads);
        return log;
    };

    const std::vector<std::vector<QueueOp>> serial = run_model(1);
    for (std::uint32_t s = 0; s < kShards; ++s) {
        using Key = std::pair<double, std::uint64_t>;
        std::priority_queue<Key, std::vector<Key>, std::greater<>> ref;
        Key last{-1.0, 0};
        std::size_t delivered = 0;
        for (const QueueOp& op : serial[s]) {
            if (op.push) {
                ref.emplace(op.time, op.seq);
                continue;
            }
            const Key got{op.time, op.seq};
            ASSERT_FALSE(ref.empty()) << "shard " << s;
            ASSERT_EQ(got, ref.top())
                << "shard " << s << " delivery " << delivered;
            ref.pop();
            if (delivered++ > 0) {
                ASSERT_LT(last, got) << "shard " << s;
            }
            last = got;
        }
        EXPECT_TRUE(ref.empty()) << "shard " << s;
        EXPECT_GT(delivered, 2400u) << "shard " << s;
    }
    EXPECT_EQ(serial, run_model(4));
}

/** Per-shard streams: reproducible per stream id, distinct across ids. */
TEST(ShardEngine, PerShardRngStreamsIndependent)
{
    util::Rng a0 = util::Rng::stream(1234, 0);
    util::Rng a1 = util::Rng::stream(1234, 0);
    util::Rng b = util::Rng::stream(1234, 1);
    util::Rng c = util::Rng::stream(1235, 0);
    bool b_differs = false;
    bool c_differs = false;
    for (int i = 0; i < 64; ++i) {
        const std::uint64_t ref = a0.next_u64();
        EXPECT_EQ(ref, a1.next_u64());
        b_differs |= ref != b.next_u64();
        c_differs |= ref != c.next_u64();
    }
    EXPECT_TRUE(b_differs);  // distinct stream ids diverge
    EXPECT_TRUE(c_differs);  // distinct seeds diverge
}

// ---- Multi-job fair-share scheduler ---------------------------------

/** FNV-1a over a dump: pins MultiJobResult::dump() byte for byte. */
std::uint64_t
fnv1a(const std::string& text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

ClusterConfig
cluster_256x16()
{
    ClusterConfig cluster;
    cluster.slaves = 256;
    cluster.racks = 16;
    return cluster;
}

JobSpec
small_job(const std::string& name, double input_gb)
{
    JobSpec spec;
    spec.name = name;
    spec.input_gb = input_gb;
    spec.total_instructions_g = 40.0 * input_gb;
    return spec;
}

std::vector<JobSubmission>
mixed_submissions()
{
    std::vector<JobSubmission> subs;
    for (std::uint32_t j = 0; j < 6; ++j) {
        JobSubmission sub;
        sub.spec = small_job("job", 4.0 + j);
        sub.submit_time_s = 5.0 * j;
        sub.weight = 1.0 + (j % 3);
        subs.push_back(sub);
    }
    subs[2].spec.iterations = 2;  // one iterative (Mahout-style) job
    subs[4].spec.map_output_ratio = 0.8;  // one shuffle-heavy job
    return subs;
}

fault::FaultPlan
chaos_plan()
{
    fault::FaultPlan plan;
    plan.seed = 0xC0FFEE;
    plan.task_crash_prob = 0.03;
    plan.task_hang_prob = 0.01;
    plan.slow_node_fraction = 0.1;
    plan.slow_multiplier = 1.8;
    plan.node_crash_time_s = 40.0;
    plan.crash_node = 7;
    plan.rack_crash_time_s = 90.0;
    plan.crash_rack = 3;
    plan.partition_time_s = 50.0;
    plan.partition_duration_s = 30.0;
    plan.partition_rack = 5;
    plan.master_crash_time_s = 70.0;
    plan.cascade_prob = 0.5;
    return plan;
}

MultiJobResult
run_multi(unsigned threads, const fault::FaultPlan* plan)
{
    const MultiJobScheduler scheduler;
    MultiJobOptions options;
    options.threads = threads;
    fault::FaultInjector injector(plan != nullptr ? *plan
                                                  : fault::FaultPlan{});
    if (plan != nullptr)
        options.injector = &injector;
    return scheduler.run(mixed_submissions(), cluster_256x16(), options);
}

/**
 * The tentpole guarantee, fault-free: a 256-node multi-job run is
 * bit-identical (full canonical dump) between the serial reference and
 * the sharded parallel engine, and every job produces exactly the
 * analytic-model task population.
 */
TEST(MultiJob, FaultFreeSerialVsShardedBitIdentical)
{
    const MultiJobResult serial = run_multi(1, nullptr);
    const MultiJobResult sharded = run_multi(8, nullptr);
    ASSERT_TRUE(serial.ok) << serial.error;
    ASSERT_TRUE(serial.all_completed());
    EXPECT_EQ(serial.dump(), sharded.dump());
    // Pinned: the coordinator's bookkeeping may change, its output not.
    EXPECT_EQ(fnv1a(serial.dump()), 0x0203ec81c786f794ULL);
    const ClusterConfig cluster = cluster_256x16();
    const std::vector<JobSubmission> subs = mixed_submissions();
    for (std::size_t j = 0; j < subs.size(); ++j) {
        const TaskCounts want =
            expected_task_counts(subs[j].spec, cluster);
        EXPECT_EQ(serial.jobs[j].maps_completed, want.maps) << j;
        EXPECT_EQ(serial.jobs[j].reduces_completed, want.reduces) << j;
        EXPECT_EQ(serial.jobs[j].task_failures, 0u) << j;
        EXPECT_EQ(serial.jobs[j].wasted_task_s, 0.0) << j;
    }
    // Fault-free runs never pay fault machinery.
    EXPECT_EQ(serial.cluster.nodes_lost, 0u);
    EXPECT_EQ(serial.cluster.master_failovers, 0u);
}

/**
 * Same guarantee under the full correlated-fault gauntlet: node crash,
 * rack power loss, partition + heal, master failover, hangs, crashes,
 * slow nodes and cascades -- serial, sharded and a replay agree byte
 * for byte, and the fault machinery demonstrably fired.
 */
TEST(MultiJob, CorrelatedFaultsSerialVsShardedBitIdentical)
{
    const fault::FaultPlan plan = chaos_plan();
    const MultiJobResult serial = run_multi(1, &plan);
    const MultiJobResult sharded = run_multi(8, &plan);
    const MultiJobResult replay = run_multi(1, &plan);
    ASSERT_TRUE(serial.ok) << serial.error;
    EXPECT_EQ(serial.dump(), sharded.dump());
    EXPECT_EQ(serial.dump(), replay.dump());
    EXPECT_EQ(fnv1a(serial.dump()), 0x164b30589ee3508cULL);
    EXPECT_GE(serial.cluster.nodes_lost, 17u);  // rack (>=16) + node
    EXPECT_EQ(serial.cluster.racks_lost, 1u);
    EXPECT_EQ(serial.cluster.partitions, 1u);
    EXPECT_EQ(serial.cluster.partition_heals, 1u);
    EXPECT_EQ(serial.cluster.master_failovers, 1u);
    std::uint32_t failures = 0;
    for (const JobOutcome& job : serial.jobs)
        failures += job.task_failures;
    EXPECT_GT(failures, 0u);
}

/**
 * A saturated fleet: twelve jobs with weights 1-3 and staggered submits
 * queue several times the cluster's map slots, so every grant pass
 * runs out of free slots with work left (stalls) and new jobs join at
 * equal zero shares (ties). The pinned hash holds the fair-share picks
 * of exactly this contention byte for byte.
 */
TEST(MultiJob, SaturatedFleetSerialVsShardedBitIdentical)
{
    ClusterConfig cluster;
    cluster.slaves = 128;
    cluster.racks = 8;
    std::vector<JobSubmission> subs;
    for (std::uint32_t j = 0; j < 12; ++j) {
        JobSubmission sub;
        sub.spec = small_job("saturated", 48.0 + 16.0 * (j % 4));
        sub.spec.map_output_ratio = (j % 3 == 0) ? 0.8 : 0.2;
        sub.submit_time_s = 2.0 * j;
        sub.weight = 1.0 + (j % 3);
        subs.push_back(sub);
    }
    std::uint64_t maps = 0;
    for (const JobSubmission& sub : subs)
        maps += expected_task_counts(sub.spec, cluster).maps;
    ASSERT_GT(maps, 3u * cluster.slaves * cluster.map_slots);

    FairShareConfig config;
    config.attempt_jitter_sigma = 0.25;
    fault::FaultPlan plan;
    plan.seed = 0x5A7;
    MultiJobResult first;
    for (const unsigned threads : {1u, 4u}) {
        fault::FaultInjector injector(plan);
        MultiJobOptions options;
        options.threads = threads;
        options.injector = &injector;
        const MultiJobResult result =
            MultiJobScheduler(config).run(subs, cluster, options);
        ASSERT_TRUE(result.all_completed()) << result.error;
        if (threads == 1)
            first = result;
        else
            EXPECT_EQ(first.dump(), result.dump());
    }
    // Every job still had work queued when the next one arrived.
    for (std::size_t j = 0; j + 1 < subs.size(); ++j)
        EXPECT_GT(first.jobs[j].finish_s, subs[j + 1].submit_time_s) << j;
    EXPECT_EQ(fnv1a(first.dump()), 0xe815c4307471b474ULL);
}

/** Runs `subs` serially and sharded with metrics armed, checks the two
    dumps agree, and returns the serial result. Both runs must end with
    no attempt record left and every alive node's mirror slots free. */
MultiJobResult
run_and_check_released(const std::vector<JobSubmission>& subs,
                       const ClusterConfig& cluster,
                       const FairShareConfig& config,
                       const fault::FaultPlan& plan)
{
    MultiJobResult first;
    for (const unsigned threads : {1u, 4u}) {
        fault::FaultInjector injector(plan);
        obs::MetricsRegistry registry;
        MultiJobOptions options;
        options.threads = threads;
        options.injector = &injector;
        options.metrics = &registry;
        const MultiJobResult result =
            MultiJobScheduler(config).run(subs, cluster, options);
        EXPECT_TRUE(result.ok) << result.error;
        EXPECT_EQ(result.mirror_slots_held, 0u) << threads;
        EXPECT_EQ(registry.gauge("dcb_cluster_running_attempts")->value(),
                  0.0)
            << threads;
        if (threads == 1)
            first = result;
        else
            EXPECT_EQ(first.dump(), result.dump());
    }
    return first;
}

/**
 * A master crash lands inside the epoch in which the whole first map
 * wave reports. The reports stamped after the crash reach the same
 * barrier but are stale -- the standby holds no attempt records -- so
 * every map runs twice, each first attempt is wasted up to the crash,
 * and no slot stays counted as held.
 */
TEST(MultiJob, ReportsAfterMasterCrashInSameBarrierAreStale)
{
    ClusterConfig cluster;
    cluster.slaves = 8;
    cluster.racks = 2;
    std::vector<JobSubmission> subs(1);
    subs[0].spec = small_job("crash", 4.0);
    const FairShareConfig config;
    const TaskProfile profile = derive_task_profile(subs[0].spec, cluster);
    // Every map fits at once (and on its preferred rack), so the whole
    // first wave is granted at t=0 and finishes at exactly map_task_s.
    ASSERT_LE(profile.map_count, cluster.slaves * cluster.map_slots / 2);
    fault::FaultPlan plan;
    plan.master_crash_time_s = profile.map_task_s - 0.01;
    ASSERT_EQ(std::floor(plan.master_crash_time_s / config.heartbeat_s),
              std::floor(profile.map_task_s / config.heartbeat_s));

    const MultiJobResult result =
        run_and_check_released(subs, cluster, config, plan);
    const JobOutcome& job = result.jobs[0];
    EXPECT_TRUE(job.completed) << job.error;
    EXPECT_EQ(result.cluster.master_failovers, 1u);
    EXPECT_EQ(job.maps_completed, profile.map_count);
    EXPECT_EQ(job.local_map_launches + job.remote_map_launches,
              2u * profile.map_count);
    EXPECT_DOUBLE_EQ(job.wasted_task_s,
                     profile.map_count * plan.master_crash_time_s);
}

/**
 * A job runs out of attempts while its sibling maps still run. It
 * fails at once, but its tasks keep their attempt records: the
 * siblings' late reports still release their slots, so the other job
 * keeps the cluster busy and completes with nothing left held. The
 * second pass adds a master crash in the epoch of those late reports,
 * just before them: the standby holds no records for the failed job
 * either, so they are stale.
 */
TEST(MultiJob, FailedJobsLateReportsReleaseTheirSlots)
{
    ClusterConfig cluster;
    cluster.slaves = 16;
    cluster.racks = 2;
    std::vector<JobSubmission> subs(2);
    subs[0].spec = small_job("wide", 16.0);
    subs[1].spec = small_job("long", 1.0);
    subs[1].spec.total_instructions_g = 4000.0;  // outlasts "wide"
    subs[1].spec.iterations = 2;
    FairShareConfig config;
    config.max_attempts = 1;
    fault::FaultPlan plan;
    plan.seed = 1;
    plan.task_crash_prob = 0.01;
    const TaskProfile wide = derive_task_profile(subs[0].spec, cluster);

    for (const bool master_crash : {false, true}) {
        SCOPED_TRACE(master_crash ? "with master crash" : "no crash");
        const MultiJobResult result =
            run_and_check_released(subs, cluster, config, plan);
        // The failing crash struck inside the first map wave, with
        // every other map of the job still running.
        EXPECT_FALSE(result.jobs[0].completed);
        EXPECT_NE(result.jobs[0].error.find("out of attempts"),
                  std::string::npos);
        EXPECT_EQ(result.jobs[0].maps_completed, 0u);
        EXPECT_LT(result.jobs[0].finish_s, wide.map_task_s);
        EXPECT_TRUE(result.jobs[1].completed) << result.jobs[1].error;
        EXPECT_GT(result.jobs[1].finish_s, wide.map_task_s);
        EXPECT_EQ(result.cluster.master_failovers, master_crash ? 1u : 0u);
        // Next pass: crash in the late reports' epoch, just before them.
        plan.master_crash_time_s = wide.map_task_s - 0.01;
        ASSERT_EQ(
            std::floor(plan.master_crash_time_s / config.heartbeat_s),
            std::floor(wide.map_task_s / config.heartbeat_s));
    }
}

/**
 * Reports held behind a partition outlive a master crash: the standby
 * re-grants those tasks as new attempts elsewhere, and when the
 * partition heals the held reports of the old attempts arrive with the
 * right iteration and phase but a superseded attempt number. They are
 * stale; only the new attempts complete the tasks.
 */
TEST(MultiJob, HeldReportsOfSupersededAttemptsAreStale)
{
    ClusterConfig cluster;
    cluster.slaves = 8;
    cluster.racks = 2;
    std::vector<JobSubmission> subs(1);
    subs[0].spec = small_job("held", 4.0);
    const FairShareConfig config;
    const TaskProfile profile = derive_task_profile(subs[0].spec, cluster);
    fault::FaultPlan plan;
    plan.partition_rack = 1;
    plan.partition_time_s = 1.0;
    // The crash comes after rack 1's first wave finished behind the
    // partition; the heal lands while the re-granted attempts run.
    plan.master_crash_time_s = profile.map_task_s + 5.0;
    const double regrant =
        plan.master_crash_time_s + config.failover_delay_s;
    plan.partition_duration_s =
        regrant + profile.map_task_s / 2.0 - plan.partition_time_s;

    const MultiJobResult result =
        run_and_check_released(subs, cluster, config, plan);
    const JobOutcome& job = result.jobs[0];
    EXPECT_TRUE(job.completed) << job.error;
    EXPECT_EQ(result.cluster.master_failovers, 1u);
    EXPECT_EQ(result.cluster.partition_heals, 1u);
    EXPECT_EQ(job.maps_completed, profile.map_count);
    // Rack 1's maps ran twice: once held, once re-granted off-rack.
    EXPECT_GT(job.remote_map_launches, 0u);
}

/** Hung attempts hold their slot until the watchdog reclaims them;
    the cluster still finishes all its work. */
TEST(MultiJob, WatchdogReclaimsHungAttempts)
{
    fault::FaultPlan plan;
    plan.seed = 77;
    plan.task_hang_prob = 0.05;
    const MultiJobResult result = run_multi(4, &plan);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_TRUE(result.all_completed());
    std::uint32_t kills = 0;
    for (const JobOutcome& job : result.jobs)
        kills += job.watchdog_kills;
    EXPECT_GT(kills, 0u);
}

/**
 * Weighted fair share: two identical contending jobs, weights 1 and 4.
 * The heavy job holds ~4x the slots, so it must finish first.
 */
TEST(MultiJob, WeightsBiasSlotShare)
{
    ClusterConfig cluster;
    cluster.slaves = 8;
    cluster.racks = 2;
    std::vector<JobSubmission> subs(2);
    subs[0].spec = small_job("light", 24.0);
    subs[0].weight = 1.0;
    subs[1].spec = small_job("heavy", 24.0);
    subs[1].weight = 4.0;
    const MultiJobScheduler scheduler;
    const MultiJobResult result = scheduler.run(subs, cluster);
    ASSERT_TRUE(result.all_completed()) << result.error;
    EXPECT_LT(result.jobs[1].finish_s, result.jobs[0].finish_s);
}

/** Co-located shuffle-heavy maps queue on the shared rack uplink. */
TEST(MultiJob, SharedUplinksAccumulateContention)
{
    ClusterConfig cluster;
    cluster.slaves = 64;
    cluster.racks = 4;
    std::vector<JobSubmission> subs(2);
    for (JobSubmission& sub : subs) {
        sub.spec = small_job("shuffle-heavy", 16.0);
        sub.spec.map_output_ratio = 1.0;
    }
    FairShareConfig config;
    config.uplink_oversubscription = 16.0;
    const MultiJobScheduler scheduler(config);
    const MultiJobResult result = scheduler.run(subs, cluster);
    ASSERT_TRUE(result.all_completed()) << result.error;
    double wait = 0.0;
    for (const JobOutcome& job : result.jobs)
        wait += job.uplink_wait_s;
    EXPECT_GT(wait, 0.0);
    double shard_wait = 0.0;
    for (const ShardUtil& util : result.shard_util)
        shard_wait += util.uplink_wait_s;
    EXPECT_DOUBLE_EQ(shard_wait, wait);
}

/** Per-shard utilization is populated and consistent with the cluster
    total; heartbeat counts are part of the deterministic dump. */
TEST(MultiJob, ShardUtilizationSurfaced)
{
    const MultiJobResult result = run_multi(2, nullptr);
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_EQ(result.shard_util.size(), 16u);
    ASSERT_EQ(result.shards.size(), 16u);
    double busy = 0.0;
    std::uint64_t heartbeats = 0;
    std::uint64_t events = 0;
    for (std::size_t s = 0; s < result.shard_util.size(); ++s) {
        busy += result.shard_util[s].slot_busy_s;
        heartbeats += result.shard_util[s].progress_heartbeats;
        events += result.shards[s].events_processed;
    }
    EXPECT_DOUBLE_EQ(busy, result.cluster.slot_busy_s);
    EXPECT_GT(heartbeats, 0u);
    EXPECT_EQ(events, result.events);
    EXPECT_NE(result.dump().find("heartbeats="), std::string::npos);
}

/**
 * Host-side accounting is measured, not derived: one idle entry per
 * worker lane, each bounded by the run's wall time (the old per-shard
 * "barrier wait" summed to many times it), the coordinator's serial
 * seconds likewise, and both exported as dcb_host_* gauges.
 */
TEST(MultiJob, HostAccountingIsMeasuredPerLane)
{
    for (const unsigned threads : {1u, 4u}) {
        obs::MetricsRegistry registry;
        MultiJobOptions options;
        options.threads = threads;
        options.metrics = &registry;
        const auto start = std::chrono::steady_clock::now();
        const MultiJobResult result = MultiJobScheduler().run(
            mixed_submissions(), cluster_256x16(), options);
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
        ASSERT_TRUE(result.ok) << result.error;
        ASSERT_EQ(result.worker_idle_seconds.size(), threads);
        EXPECT_GT(result.coordinator_seconds, 0.0);
        EXPECT_LE(result.coordinator_seconds, wall);
        for (const double idle : result.worker_idle_seconds) {
            EXPECT_GE(idle, 0.0);
            EXPECT_LE(idle, wall);
        }
        if (threads == 1) {
            EXPECT_EQ(result.worker_idle_seconds[0], 0.0);
        }
        const std::string prom = registry.render_prometheus();
        EXPECT_NE(prom.find("dcb_host_coordinator_seconds "),
                  std::string::npos);
        EXPECT_NE(prom.find("dcb_host_worker_idle_seconds{worker=\"" +
                            std::to_string(threads - 1) + "\"}"),
                  std::string::npos);
        EXPECT_EQ(prom.find("barrier_wait"), std::string::npos);
    }
}

/** Config and submission errors are reported, never fatal. */
TEST(MultiJob, ValidationErrorsAreReported)
{
    const ClusterConfig cluster = cluster_256x16();
    std::vector<JobSubmission> subs(1);
    subs[0].spec = small_job("ok", 4.0);

    FairShareConfig bad;
    bad.heartbeat_s = 0.0;
    EXPECT_FALSE(MultiJobScheduler(bad).run(subs, cluster).ok);

    FairShareConfig lax;
    lax.task_timeout_factor = 2.0;  // inside the jitter clamp
    EXPECT_FALSE(MultiJobScheduler(lax).run(subs, cluster).ok);

    EXPECT_FALSE(MultiJobScheduler().run({}, cluster).ok);

    subs[0].weight = 0.0;
    const MultiJobResult bad_weight =
        MultiJobScheduler().run(subs, cluster);
    EXPECT_FALSE(bad_weight.ok);
    EXPECT_NE(bad_weight.error.find("weight"), std::string::npos);
}

}  // namespace
}  // namespace dcb::mapreduce
