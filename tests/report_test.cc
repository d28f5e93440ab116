/** @file Tests for the report-rendering helpers and harness presets. */

#include <gtest/gtest.h>

#include "core/harness.h"
#include "core/report.h"

namespace dcb::core {
namespace {

cpu::CounterReport
fake_report(const std::string& name, double ipc, double l2)
{
    cpu::CounterReport r;
    r.workload = name;
    r.ipc = ipc;
    r.l2_mpki = l2;
    r.instructions = 1000;
    r.cycles = 1000 / ipc;
    return r;
}

TEST(Report, ClassAverageSelectsNamedSubset)
{
    const std::vector<cpu::CounterReport> reports = {
        fake_report("a", 1.0, 10),
        fake_report("b", 2.0, 20),
        fake_report("c", 3.0, 30),
    };
    const double avg = class_average(
        reports, {"a", "c"},
        [](const cpu::CounterReport& r) { return r.ipc; });
    EXPECT_NEAR(avg, 2.0, 1e-12);
}

TEST(Report, ClassAverageEmptySubsetIsZero)
{
    const std::vector<cpu::CounterReport> reports = {
        fake_report("a", 1.0, 10)};
    EXPECT_EQ(class_average(reports, {"nope"},
                            [](const cpu::CounterReport& r) {
                                return r.ipc;
                            }),
              0.0);
}

TEST(Report, ShapeCheckReturnsItsVerdict)
{
    EXPECT_TRUE(shape_check("always true", true));
    EXPECT_FALSE(shape_check("always false", false));
}

TEST(Report, PrintFigureTableHandlesMissingPaperValues)
{
    // Smoke test: must not crash with a paper getter returning "absent".
    const std::vector<cpu::CounterReport> reports = {
        fake_report("a", 1.0, 10)};
    print_figure_table(
        "test", reports, "ipc",
        [](const cpu::CounterReport& r) { return r.ipc; },
        [](const std::string&) { return -1.0; }, 2);
}

TEST(Harness, BenchConfigIsPaperMethodology)
{
    const HarnessConfig config = bench_config();
    EXPECT_GT(config.run.warmup_ops, 0u);  // ramp-up discard
    EXPECT_LT(config.run.warmup_ops, config.run.op_budget);
    // Table III machine.
    EXPECT_EQ(config.memory_config.l3.size_bytes, 12u << 20);
    EXPECT_EQ(config.core_config.rob_entries, 128u);
    EXPECT_FALSE(config.use_pmu);
}

TEST(Harness, PmuPathProducesComparableReport)
{
    HarnessConfig direct;
    direct.run.op_budget = 300'000;
    direct.run.warmup_ops = 0;
    HarnessConfig pmu = direct;
    pmu.use_pmu = true;
    const auto a = run_workload("K-means", direct).report;
    const auto b = run_workload("K-means", pmu).report;
    EXPECT_NEAR(a.ipc, b.ipc, a.ipc * 0.05);
    EXPECT_NEAR(a.l1i_mpki, b.l1i_mpki, a.l1i_mpki * 0.5 + 1.0);
}

TEST(Harness, UnknownWorkloadIsARecoverableError)
{
    HarnessConfig config;
    config.run.op_budget = 10'000;
    config.run.warmup_ops = 0;
    const RunResult result = run_workload("No Such Workload", config);
    EXPECT_FALSE(result.status.ok);
    EXPECT_NE(result.status.error.find("unknown workload"),
              std::string::npos);
    // The diagnostic lists what *would* have worked.
    EXPECT_NE(result.status.error.find("K-means"), std::string::npos);
}

TEST(Harness, ZeroBudgetIsARecoverableError)
{
    HarnessConfig config;
    config.run.op_budget = 0;
    config.run.warmup_ops = 0;
    // Naive Bayes would trip its trained-documents precondition.
    for (const char* name : {"Naive Bayes", "Sort"}) {
        const RunResult result = run_workload(name, config);
        EXPECT_FALSE(result.status.ok) << name;
        EXPECT_NE(result.status.error.find("op budget"), std::string::npos)
            << result.status.error;
    }
    const SuiteResult suite = run_suite({"K-means", "Grep"}, config);
    EXPECT_EQ(suite.failure_count(), 2u);
}

TEST(Harness, SuiteIsolatesPerWorkloadFailures)
{
    HarnessConfig config;
    config.run.op_budget = 60'000;
    config.run.warmup_ops = 0;
    const SuiteResult suite =
        run_suite({"K-means", "No Such Workload", "Sort"}, config);
    ASSERT_EQ(suite.runs.size(), 3u);
    EXPECT_TRUE(suite.runs[0].status.ok);
    EXPECT_FALSE(suite.runs[1].status.ok);
    EXPECT_TRUE(suite.runs[2].status.ok);  // later runs still happen
    EXPECT_EQ(suite.failure_count(), 1u);
    EXPECT_FALSE(suite.all_ok());
    EXPECT_EQ(suite.reports().size(), 2u);
    EXPECT_EQ(suite.names.size(), 3u);
}

TEST(Harness, AllOkSuiteKeepsEveryReport)
{
    HarnessConfig config;
    config.run.op_budget = 60'000;
    config.run.warmup_ops = 0;
    const SuiteResult suite = run_suite({"Sort", "Grep"}, config);
    EXPECT_TRUE(suite.all_ok());
    EXPECT_EQ(suite.reports().size(), 2u);
}

/** FNV-1a over the bytes of every CounterReport field. */
class ReportHash
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
    void mix_report(const cpu::CounterReport& r)
    {
        mix(r.workload.data(), r.workload.size());
        mix_d(r.instructions);
        mix_d(r.cycles);
        mix_d(r.ipc);
        mix_d(r.kernel_instr_fraction);
        for (const double s : {r.stalls.fetch, r.stalls.rat, r.stalls.load,
                               r.stalls.store, r.stalls.rs, r.stalls.rob})
            mix_d(s);
        mix_d(r.l1i_mpki);
        mix_d(r.itlb_walk_pki);
        mix_d(r.l2_mpki);
        mix_d(r.l3_service_ratio);
        mix_d(r.dtlb_walk_pki);
        mix_d(r.branch_misprediction_ratio);
        mix_u(r.sampled ? 1 : 0);
        mix_u(r.sample_windows);
        for (const double e : r.metric_stderr)
            mix_d(e);
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ULL;
};

/**
 * The simulator's counterpart of the scheduler golden hash: every
 * report field of all figure workloads at a small budget, exact,
 * full-warming sampled, through the multiplexed PMU, and with interval
 * telemetry armed (its rows hashed too). A change to the core, the
 * cache/TLB/branch models or a generator that moves any counter shows
 * up here; if intentional, re-pin and regenerate the figure CSVs and
 * BENCH artifacts.
 */
TEST(Harness, SuiteReportGoldenHashIsPinned)
{
    HarnessConfig base;
    base.run.op_budget = 100'000;
    base.run.warmup_ops = 25'000;
    base.jobs = 4;
    HarnessConfig sampled = base;
    sampled.sampling.ratio = 0.15;
    sampled.sampling.full_warming = true;
    HarnessConfig pmu = base;
    pmu.use_pmu = true;
    pmu.pmu_rotate_instr = 7'000;
    HarnessConfig telemetry = base;
    telemetry.telemetry.interval_ops = 9'000;

    const std::vector<std::string>& names = workloads::figure_order();
    ASSERT_EQ(names.size(), 26u);
    ReportHash h;
    std::uint64_t rows = 0;
    for (const HarnessConfig* config : {&base, &sampled, &pmu, &telemetry}) {
        const SuiteResult suite = run_suite(names, *config);
        ASSERT_TRUE(suite.all_ok());
        for (const RunResult& run : suite.runs) {
            h.mix_report(run.report);
            if (run.telemetry == nullptr)
                continue;
            for (const obs::IntervalRow& row : run.telemetry->rows()) {
                h.mix_u(row.first_op);
                h.mix_u(row.op_count);
                for (const double v : row.values)
                    h.mix_d(v);
                ++rows;
            }
        }
    }
    EXPECT_GT(rows, 26u * 5u);  // telemetry ticks land in every run
    EXPECT_EQ(h.value(), 0x7b7fde61efa99748ULL)
        << "simulator output changed; if intentional, re-pin and "
           "regenerate the figure CSVs and BENCH artifacts";
}

}  // namespace
}  // namespace dcb::core
