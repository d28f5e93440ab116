/** @file Tests for the out-of-order core interval model. */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cpu/core.h"
#include "cpu/perf.h"
#include "obs/time_series.h"
#include "util/rng.h"

namespace dcb::cpu {
namespace {

using trace::MicroOp;
using trace::Mode;
using trace::OpClass;

Core
make_core()
{
    return Core(westmere_core_config(), mem::westmere_memory_config());
}

MicroOp
alu_op(std::uint64_t fetch_addr = 0x1000, std::uint8_t dep = 0)
{
    MicroOp op;
    op.cls = OpClass::kAlu;
    op.fetch_addr = fetch_addr;
    op.dep_dist = dep;
    return op;
}

MicroOp
load_op(std::uint64_t addr, std::uint64_t fetch_addr = 0x1000)
{
    MicroOp op;
    op.cls = OpClass::kLoad;
    op.addr = addr;
    op.fetch_addr = fetch_addr;
    return op;
}

TEST(Core, IpcBoundedByDispatchWidth)
{
    Core core = make_core();
    for (int i = 0; i < 50'000; ++i)
        core.consume(alu_op());
    EXPECT_GT(core.ipc(), 0.0);
    EXPECT_LE(core.ipc(), core.config().dispatch_width + 0.01);
}

TEST(Core, IndependentAluNearsFullWidth)
{
    Core core = make_core();
    for (int i = 0; i < 100'000; ++i)
        core.consume(alu_op());
    // Three ALU ports bound the ALU-only stream at IPC 3.
    EXPECT_GT(core.ipc(), 2.5);
}

TEST(Core, SerialChainBoundsIpcToOne)
{
    Core core = make_core();
    for (int i = 0; i < 50'000; ++i)
        core.consume(alu_op(0x1000, 1));
    EXPECT_LT(core.ipc(), 1.1);
    EXPECT_GT(core.ipc(), 0.8);
}

TEST(Core, CyclesMonotoneAndConsistent)
{
    Core core = make_core();
    double last = 0.0;
    for (int i = 0; i < 1000; ++i) {
        core.consume(alu_op());
        EXPECT_GE(core.cycles(), last);
        last = core.cycles();
    }
    EXPECT_EQ(core.instructions(), 1000u);
    EXPECT_GE(core.cycles(),
              1000.0 / core.config().retire_width - 1.0);
}

TEST(Core, CacheMissLoadsSlowerThanHits)
{
    Core hits = make_core();
    Core misses = make_core();
    util::Rng rng(5);
    for (int i = 0; i < 40'000; ++i) {
        hits.consume(load_op(0x2000 + (i % 8) * 8));
        misses.consume(load_op(rng.next_below(256ULL << 20)));
    }
    EXPECT_GT(hits.ipc(), misses.ipc() * 2);
}

TEST(Core, RandomLoadsStallRobOrLoadBuffer)
{
    Core core = make_core();
    util::Rng rng(6);
    for (int i = 0; i < 60'000; ++i)
        core.consume(load_op(rng.next_below(512ULL << 20)));
    const double window_stalls =
        core.stats().get(Event::kRobFullStallCycles) +
        core.stats().get(Event::kLoadBufStallCycles);
    EXPECT_GT(window_stalls, 0.0);
}

TEST(Core, SerialFpChainsStallRs)
{
    Core core = make_core();
    for (int i = 0; i < 50'000; ++i) {
        MicroOp op;
        op.cls = OpClass::kFpu;
        op.dep_dist = 1;
        op.fetch_addr = 0x1000;
        core.consume(op);
    }
    EXPECT_GT(core.stats().get(Event::kRsFullStallCycles), 0.0);
    // FP latency 4, serial: IPC near 0.25.
    EXPECT_LT(core.ipc(), 0.35);
}

TEST(Core, PartialRegisterWritesStallRat)
{
    Core clean = make_core();
    Core dirty = make_core();
    for (int i = 0; i < 30'000; ++i) {
        MicroOp op = alu_op();
        clean.consume(op);
        op.partial_reg = true;
        dirty.consume(op);
    }
    EXPECT_EQ(clean.stats().get(Event::kRatStallCycles), 0.0);
    EXPECT_GT(dirty.stats().get(Event::kRatStallCycles), 0.0);
    EXPECT_LT(dirty.ipc(), clean.ipc());
}

TEST(Core, MispredictsReduceIpc)
{
    Core random_branches = make_core();
    Core steady_branches = make_core();
    util::Rng rng(8);
    for (int i = 0; i < 50'000; ++i) {
        MicroOp op;
        op.cls = OpClass::kBranch;
        op.branch_key = 3;
        op.fetch_addr = 0x1000;
        op.taken = rng.next_bool(0.5);
        random_branches.consume(op);
        op.taken = true;
        steady_branches.consume(op);
    }
    EXPECT_GT(random_branches.branch_misprediction_ratio(), 0.3);
    EXPECT_LT(steady_branches.branch_misprediction_ratio(), 0.02);
    EXPECT_LT(random_branches.ipc(), steady_branches.ipc() * 0.8);
}

TEST(Core, KernelModeAttribution)
{
    Core core = make_core();
    for (int i = 0; i < 1000; ++i) {
        MicroOp op = alu_op();
        op.mode = i < 400 ? Mode::kKernel : Mode::kUser;
        core.consume(op);
    }
    EXPECT_NEAR(core.stats().kernel_instructions, 400.0, 0.1);
    EXPECT_NEAR(core.stats().user_instructions, 600.0, 0.1);
}

TEST(Core, LargeCodeFootprintCausesFetchStalls)
{
    Core small = make_core();
    Core big = make_core();
    util::Rng rng(10);
    for (int i = 0; i < 60'000; ++i) {
        small.consume(alu_op(0x1000 + (i % 512) * 4));
        big.consume(alu_op(0x1000 + rng.next_below(8 << 20)));
    }
    EXPECT_GT(big.stats().get(Event::kFetchStallCycles),
              small.stats().get(Event::kFetchStallCycles) + 100.0);
    EXPECT_GT(big.stats().get(Event::kL1IMiss), 10'000.0);
}

TEST(Core, StreamingLoadsAreBandwidthBound)
{
    CoreConfig slow_bus = westmere_core_config();
    slow_bus.memory_bandwidth_cycles_per_line = 64.0;
    CoreConfig fast_bus = westmere_core_config();
    fast_bus.memory_bandwidth_cycles_per_line = 1.0;
    Core slow(slow_bus, mem::westmere_memory_config());
    Core fast(fast_bus, mem::westmere_memory_config());
    for (int i = 0; i < 100'000; ++i) {
        slow.consume(load_op(static_cast<std::uint64_t>(i) * 8));
        fast.consume(load_op(static_cast<std::uint64_t>(i) * 8));
    }
    EXPECT_GT(fast.ipc(), slow.ipc() * 1.5);
}

TEST(Core, ResetCountersKeepsWarmState)
{
    Core core = make_core();
    for (int i = 0; i < 10'000; ++i)
        core.consume(load_op((i % 128) * 64));
    core.reset_counters();
    EXPECT_EQ(core.stats().get(Event::kInstRetired), 0.0);
    // Warm caches: post-reset accesses to the same lines hit.
    for (int i = 0; i < 1000; ++i)
        core.consume(load_op((i % 128) * 64));
    EXPECT_EQ(core.stats().get(Event::kL1DMiss), 0.0);
}

TEST(Core, WarmupAutoReset)
{
    Core core = make_core();
    core.set_counter_reset_at(5000);
    for (int i = 0; i < 8000; ++i)
        core.consume(alu_op());
    EXPECT_NEAR(core.stats().get(Event::kInstRetired), 3000.0, 0.1);
    EXPECT_EQ(core.instructions(), 8000u);
}

TEST(Core, StallCountersNonNegativeAndFinite)
{
    Core core = make_core();
    util::Rng rng(12);
    for (int i = 0; i < 30'000; ++i) {
        MicroOp op;
        const int kind = static_cast<int>(rng.next_below(5));
        op.cls = kind == 0 ? OpClass::kLoad
                 : kind == 1 ? OpClass::kStore
                 : kind == 2 ? OpClass::kBranch
                 : kind == 3 ? OpClass::kFpu
                             : OpClass::kAlu;
        op.addr = rng.next_below(64 << 20);
        op.fetch_addr = 0x1000 + rng.next_below(1 << 20);
        op.taken = rng.next_bool(0.6);
        op.branch_key = rng.next_below(64);
        op.dep_dist = static_cast<std::uint8_t>(rng.next_below(4));
        core.consume(op);
    }
    for (Event e : {Event::kFetchStallCycles, Event::kRatStallCycles,
                    Event::kLoadBufStallCycles, Event::kStoreBufStallCycles,
                    Event::kRsFullStallCycles, Event::kRobFullStallCycles}) {
        const double v = core.stats().get(e);
        EXPECT_GE(v, 0.0);
        EXPECT_TRUE(std::isfinite(v));
    }
    EXPECT_GT(core.ipc(), 0.0);
}

TEST(Core, StoreBufferBackpressure)
{
    // Random stores whose drain is slow fill the 32-entry store buffer.
    Core core = make_core();
    util::Rng rng(14);
    for (int i = 0; i < 60'000; ++i) {
        MicroOp op;
        op.cls = OpClass::kStore;
        op.addr = rng.next_below(512ULL << 20);
        op.fetch_addr = 0x1000;
        core.consume(op);
    }
    EXPECT_GT(core.stats().get(Event::kStoreBufStallCycles), 0.0);
}

/** A seeded op stream exercising every class, both modes, TLB walks,
    memory misses, prefetch streams and mispredicts. */
std::vector<MicroOp>
mixed_stream(std::size_t n)
{
    util::Rng rng(2024);
    std::vector<MicroOp> ops(n);
    std::uint64_t pc = 0x400000;
    std::uint64_t stream = 0x10000000;
    for (MicroOp& op : ops) {
        const std::uint64_t kind = rng.next_below(10);
        op.cls = kind < 3   ? OpClass::kLoad
                 : kind < 4 ? OpClass::kStore
                 : kind < 6 ? OpClass::kBranch
                 : kind < 7 ? OpClass::kFpu
                 : kind < 9 ? OpClass::kAlu
                            : OpClass::kNop;
        op.mode = rng.next_bool(0.2) ? Mode::kKernel : Mode::kUser;
        pc = rng.next_bool(0.05) ? 0x400000 + rng.next_below(8 << 20)
                                 : pc + 4;
        op.fetch_addr = pc;
        if (rng.next_bool(0.5)) {
            stream += 8;  // a unit-stride stream the prefetcher locks on
            op.addr = stream;
        } else {
            op.addr = rng.next_below(256ULL << 20);
        }
        op.taken = rng.next_bool(0.6);
        op.indirect = rng.next_bool(0.1);
        op.branch_key = rng.next_below(512);
        op.target_key = rng.next_below(4);
        op.partial_reg = rng.next_bool(0.05);
        op.src_regs = static_cast<std::uint8_t>(1 + rng.next_below(2));
        op.dep_dist = static_cast<std::uint8_t>(rng.next_below(6));
    }
    return ops;
}

/** Everything a run observes, for exact comparison. */
struct Observed
{
    std::vector<double> stats;
    std::vector<double> pmu;
    std::vector<double> rows;
    std::vector<std::uint64_t> structures;
};

Observed
run_in_batches(const std::vector<MicroOp>& ops, std::size_t batch)
{
    Core core = make_core();
    core.pmu().configure_events(default_event_set(), 3001);
    core.set_counter_reset_at(4999);
    obs::TimeSeriesRecorder recorder(Core::telemetry_columns(),
                                     Core::telemetry_additive());
    core.set_telemetry(&recorder, 1237);
    for (std::size_t i = 0; i < ops.size(); i += batch) {
        const std::size_t n = std::min(batch, ops.size() - i);
        if (batch == 1)
            core.consume(ops[i]);
        else
            core.consume_batch(&ops[i], n);
    }
    core.finish_observation();

    Observed o;
    for (std::size_t e = 0; e < kEventCount; ++e)
        o.stats.push_back(core.stats().get(static_cast<Event>(e)));
    o.stats.push_back(core.stats().user_instructions);
    o.stats.push_back(core.stats().kernel_instructions);
    o.stats.push_back(core.cycles());
    for (const PmuReading& r : core.pmu().readings()) {
        o.pmu.push_back(r.raw);
        o.pmu.push_back(r.enabled_instr);
        o.pmu.push_back(r.scaled);
    }
    o.pmu.push_back(core.pmu().fixed_instructions());
    o.pmu.push_back(core.pmu().fixed_cycles());
    for (const obs::IntervalRow& row : recorder.rows()) {
        o.rows.push_back(static_cast<double>(row.first_op));
        o.rows.push_back(static_cast<double>(row.op_count));
        o.rows.insert(o.rows.end(), row.values.begin(), row.values.end());
    }
    o.rows.insert(o.rows.end(), recorder.totals().begin(),
                  recorder.totals().end());
    const mem::CacheHierarchy& h = core.caches();
    o.structures = {h.l1i_misses(), h.l1d_misses(),    h.l2_misses(),
                    h.l3_misses(),  h.prefetch_fills(), core.itlb_walks(),
                    core.dtlb_walks(), core.instructions()};
    return o;
}

/**
 * The functional pass and the timing kernel run per delivered chunk, and
 * CoreStats is written back at chunk ends; none of that may show. One
 * stream, delivered an op at a time and in batches of 7, 64 and 1000
 * (the warm-up reset at op 4999 and every 1237-op telemetry row land
 * mid-batch, the PMU multiplexes groups every 3001 instructions), must
 * give bit-identical counters, PMU readings and telemetry rows.
 */
TEST(Core, BatchSplitInvariance)
{
    const std::vector<MicroOp> ops = mixed_stream(40'000);
    const Observed one = run_in_batches(ops, 1);
    EXPECT_GT(one.stats[static_cast<std::size_t>(Event::kDTlbWalk)], 0.0);
    EXPECT_GT(one.stats[static_cast<std::size_t>(Event::kITlbWalk)], 0.0);
    EXPECT_GT(one.stats[static_cast<std::size_t>(Event::kL3Miss)], 0.0);
    EXPECT_GT(one.stats[static_cast<std::size_t>(Event::kPrefetchFill)],
              0.0);
    EXPECT_GT(one.stats[static_cast<std::size_t>(Event::kBrMispred)], 0.0);
    EXPECT_GT(one.rows.size(), 20u * (kEventCount + 9));
    for (const std::size_t batch : {7u, 64u, 1000u}) {
        const Observed b = run_in_batches(ops, batch);
        EXPECT_EQ(b.stats, one.stats) << "batch " << batch;
        EXPECT_EQ(b.pmu, one.pmu) << "batch " << batch;
        EXPECT_EQ(b.rows, one.rows) << "batch " << batch;
        EXPECT_EQ(b.structures, one.structures) << "batch " << batch;
    }
}

TEST(Core, DeterministicAcrossRuns)
{
    auto run = [] {
        Core core = make_core();
        util::Rng rng(77);
        for (int i = 0; i < 20'000; ++i)
            core.consume(load_op(rng.next_below(16 << 20)));
        return core.cycles();
    };
    EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace dcb::cpu
