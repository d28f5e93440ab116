/**
 * @file
 * The simulator-stack workloads (sim_exact, sim_sampled), the paper
 * accuracy guard, and the sim ledger of traced runs.
 *
 * One call is core::run_workload(name, config): registry lookup,
 * generator, ExecCtx, core pipeline and the cache/TLB/branch models of
 * one suite workload on a fresh simulated machine.
 */

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/harness.h"
#include "core/paper_data.h"
#include "cpu/core.h"
#include "passes.h"
#include "perfbench.h"
#include "sample/plan.h"
#include "workloads/registry.h"

namespace dcb::perfbench {

namespace {

/** Ops per workload: a suite pass takes a few host seconds. */
constexpr std::uint64_t kExactBudget = 500'000;
constexpr std::uint64_t kSampledBudget = 4'000'000;
/** Ratio of the default `--sample` bridge plan. */
constexpr double kBridgeRatio = 0.02;
/** A ratio small enough to leave a single detailed window. */
constexpr double kOneWindowRatio = 1e-9;
constexpr std::size_t kMinPasses = 3;
/** Set-up runs per set-up sample: a few milliseconds a sample. */
constexpr std::size_t kSetupRepeats = 16;
/** Host-speed elasticities of the suite calls (see passes.h). The
    set-up's time did not move with either kernel: it is not scaled. */
constexpr Elasticity kExactElasticity{1.25, 0.54};
constexpr Elasticity kSampledElasticity{0.90, 0.52};
constexpr Elasticity kSetupElasticity{0.0, 0.0};

/**
 * The figure-bench methodology: the bench_config() Westmere machine
 * with a quarter of the budget discarded as warm-up, serial.
 */
core::HarnessConfig
suite_config(std::uint64_t seed, std::uint64_t budget)
{
    core::HarnessConfig config = core::bench_config();
    config.run.op_budget = budget;
    config.run.warmup_ops = budget / 4;
    config.run.seed = seed;
    config.jobs = 1;
    return config;
}

core::HarnessConfig
workload_config(std::uint64_t seed, bool sampled)
{
    core::HarnessConfig config =
        suite_config(seed, sampled ? kSampledBudget : kExactBudget);
    if (sampled)
        config.sampling.ratio = kBridgeRatio;
    return config;
}

/** Ops a run simulated or represented, warm-up included. */
double
run_ops(const core::HarnessConfig& config, const cpu::CounterReport& r)
{
    return static_cast<double>(config.run.warmup_ops) + r.instructions;
}

bool
report_finite(const cpu::CounterReport& r)
{
    if (!std::isfinite(r.instructions) || !std::isfinite(r.cycles) ||
        r.instructions <= 0.0)
        return false;
    for (std::size_t m = 0; m < cpu::kReportMetricCount; ++m)
        if (!std::isfinite(
                cpu::report_metric(r, static_cast<cpu::ReportMetric>(m))))
            return false;
    return true;
}

std::uint64_t
report_digest(const cpu::CounterReport& r)
{
    Digest d;
    d.add(r.workload);
    d.add(r.instructions);
    d.add(r.cycles);
    for (std::size_t m = 0; m < cpu::kReportMetricCount; ++m) {
        d.add(cpu::report_metric(r, static_cast<cpu::ReportMetric>(m)));
        d.add(r.metric_stderr[m]);
    }
    d.add(std::uint64_t{r.sample_windows});
    return d.value();
}

/** Mean relative IPC error and mean absolute stall-share error. */
struct Accuracy
{
    double ipc_err = 0.0;
    double stall_err = 0.0;
};

Accuracy
paper_accuracy(const std::vector<cpu::CounterReport>& reports)
{
    Accuracy a;
    std::size_t n = 0;
    for (const cpu::CounterReport& r : reports) {
        const auto p = core::paper_metrics(r.workload);
        if (!p || p->ipc <= 0.0)
            continue;
        a.ipc_err += std::fabs(r.ipc - p->ipc) / p->ipc;
        const cpu::StallBreakdown& s = r.stalls;
        a.stall_err += (std::fabs(s.fetch - p->stall_fetch) +
                        std::fabs(s.rat - p->stall_rat) +
                        std::fabs(s.load - p->stall_load) +
                        std::fabs(s.store - p->stall_store) +
                        std::fabs(s.rs - p->stall_rs) +
                        std::fabs(s.rob - p->stall_rob)) /
                       6.0;
        ++n;
    }
    if (n > 0) {
        a.ipc_err /= static_cast<double>(n);
        a.stall_err /= static_cast<double>(n);
    }
    return a;
}

void
add_accuracy(const std::vector<cpu::CounterReport>& reports,
             Result& result)
{
    const Accuracy a = paper_accuracy(reports);
    result.add("ipc_err_vs_paper", a.ipc_err, "ratio");
    result.add("stall_err_vs_paper", a.stall_err, "share");
}

const char*
category_suffix(workloads::Category c)
{
    switch (c) {
      case workloads::Category::kDataAnalysis: return "da";
      case workloads::Category::kService: return "svc";
      case workloads::Category::kSpecCpu: return "spec";
      case workloads::Category::kHpcc: return "hpcc";
    }
    return "other";
}

}  // namespace

Result
run_sim(const Options& options, bool sampled, const Spans& spans)
{
    Result result;
    std::vector<std::string> names;
    core::HarnessConfig config;
    // Set-up: the registry's suite, the machine and sampling config, a
    // registry check that every name constructs, and one simulated
    // machine built from the config to validate it.
    HostSpeed speed(sampled ? kSampledElasticity : kExactElasticity,
                    kSetupElasticity);
    const auto setup = [&] {
        names = workloads::figure_order();
        config = workload_config(options.seed, sampled);
        for (const std::string& name : names)
            if (workloads::make_workload(name) == nullptr)
                result.correct = false;
        if (sampled &&
            !sample::resolve_layout(config.sampling, config.run.op_budget,
                                    config.run.warmup_ops)
                 .sampled)
            result.correct = false;
        const cpu::Core machine(config.core_config, config.memory_config);
        if (machine.instructions() != 0)
            result.correct = false;
    };

    // The suite's size is fixed: the per-item state can exist before the
    // set-up fills `names`.
    const std::size_t n = workloads::figure_order().size();
    std::vector<core::RunResult> runs(n);
    std::vector<cpu::CounterReport> first(n);
    std::vector<std::uint64_t> digests(n, 0);
    std::vector<double> ops(n, 0.0);
    const PassTimes times = run_passes(
        n, options.seconds, kMinPasses, spans, speed, kSetupRepeats, setup,
        [&](std::size_t i) { return names[i]; },
        [&](std::size_t i) {
            runs[i] = core::run_workload(names[i], config, i);
        },
        [&](std::size_t i, std::size_t pass) {
            const core::RunResult& run = runs[i];
            ++result.attempted;
            bool ok = run.status.ok && report_finite(run.report);
            const std::uint64_t digest = ok ? report_digest(run.report) : 0;
            if (pass == 0 && digests[i] == 0) {
                digests[i] = digest;
                first[i] = run.report;
                ops[i] = run_ops(config, run.report);
            } else if (digest != digests[i]) {
                ok = false;  // a repeat must reproduce the first run
            }
            if (!ok) {
                ++result.failed;
                std::fprintf(stderr, "failed: %s: %s\n", names[i].c_str(),
                             run.status.ok ? "non-finite or changed report"
                                           : run.status.error.c_str());
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

    // Throughput: ops of one pass over the normalised time of one pass.
    double total_ops = 0.0;
    for (const double o : ops)
        total_ops += o;
    const std::vector<double> item_s = times.item_medians();
    const double pass_s = times.pass_seconds();
    result.add("sim_mops", total_ops / pass_s / 1e6, "Mop/s");
    result.add("events_per_s", total_ops / pass_s, "1/s");
    result.add("scenarios_per_s",
               static_cast<double>(names.size()) / pass_s, "1/s");
    result.add("scenario_p50_ms", 1e3 * quantile(item_s, 0.50), "ms");
    result.add("scenario_p95_ms", 1e3 * quantile(item_s, 0.95), "ms");
    result.add("cpu_s", times.pass_cpu_seconds(), "s");
    result.add("peak_rss_mb", times.peak_rss_mb, "MB");
    result.add("setup_s", median(times.setup_s), "s");
    add_accuracy(first, result);
    return result;
}

void
add_accuracy_probe(std::uint64_t seed, Result& result)
{
    const core::HarnessConfig config = workload_config(seed, true);
    const core::SuiteResult suite =
        core::run_suite(workloads::figure_order(), config);
    if (!suite.all_ok()) {
        result.correct = false;
        std::fprintf(stderr, "failed: accuracy probe: %zu runs failed\n",
                     suite.failure_count());
    }
    add_accuracy(suite.reports(), result);
}

void
sim_ledger(std::uint64_t seed, const Spans& spans, Result& result)
{
    // Three configurations of one suite through the public sampling
    // plan split host time by layer:
    //   all-skip:  bridge layout, no pre-window warming, one window --
    //              generator + ExecCtx accounting only;
    //   all-warm:  full warming, one window -- plus the functional
    //              cache/TLB/page-table/prefetcher/branch paths;
    //   exact:     plus the timed core pipeline.
    // The default bridge run is then priced at those rates.
    const core::HarnessConfig exact_cfg = suite_config(seed, kExactBudget);
    // The deterministic event counts come from an untimed exact run with
    // one in-memory telemetry interval. Telemetry adds per-op work to the
    // core, so the timed exact run (like sim_exact) has none.
    core::HarnessConfig counts_cfg = exact_cfg;
    counts_cfg.telemetry.interval_ops = std::uint64_t{1} << 40;
    core::HarnessConfig skip_cfg = suite_config(seed, kExactBudget);
    skip_cfg.sampling.ratio = kOneWindowRatio;
    skip_cfg.sampling.warm_ops = 0;
    core::HarnessConfig warm_cfg = suite_config(seed, kExactBudget);
    warm_cfg.sampling.ratio = kOneWindowRatio;
    warm_cfg.sampling.full_warming = true;
    core::HarnessConfig bridge_cfg = suite_config(seed, kExactBudget);
    bridge_cfg.sampling.ratio = kBridgeRatio;
    const sample::IntervalLayout bridge = sample::resolve_layout(
        bridge_cfg.sampling, bridge_cfg.run.op_budget,
        bridge_cfg.run.warmup_ops);

    struct Sums
    {
        double ops = 0.0, skip_s = 0.0, warm_s = 0.0, exact_s = 0.0;
    };
    std::map<std::string, Sums> by_cat;
    double bridge_s = 0.0, bridge_priced_s = 0.0, bridge_pipe_s = 0.0;
    double bridge_ops = 0.0;
    double trace_ops = 0.0, detailed_ops = 0.0;
    std::map<std::string, double> events;
    const std::vector<std::string>& names = workloads::figure_order();
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string& name = names[i];
        const auto timed = [&](const core::HarnessConfig& config,
                               const char* tag, core::RunResult& out) {
            const double start_us = spans.now_us();
            const auto t0 = Clock::now();
            out = core::run_workload(name, config, i);
            const double dt = seconds_since(t0);
            spans.end(name + " " + tag, "ledger", kLaneSim, start_us);
            if (!out.status.ok || !report_finite(out.report)) {
                result.correct = false;
                std::fprintf(stderr, "failed: ledger %s %s\n", tag,
                             name.c_str());
            }
            return dt;
        };
        core::RunResult skip, warm, exact, sampled;
        const double t_skip = timed(skip_cfg, "all-skip", skip);
        const double t_warm = timed(warm_cfg, "all-warm", warm);
        const double t_exact = timed(exact_cfg, "exact", exact);
        const double t_bridge = timed(bridge_cfg, "bridge", sampled);
        if (!exact.status.ok)
            continue;

        const double n = run_ops(exact_cfg, exact.report);
        const auto workload = workloads::make_workload(name);
        Sums& s = by_cat[category_suffix(workload->info().category)];
        s.ops += n;
        s.skip_s += t_skip;
        s.warm_s += t_warm;
        s.exact_s += t_exact;

        // Price the bridge run's op split at this workload's rates.
        const double g = t_skip / n;
        const double m = (t_warm - t_skip) / n;
        const double p = (t_exact - t_warm) / n;
        const double nb = run_ops(bridge_cfg, sampled.report);
        const double usable = nb - static_cast<double>(bridge.warmup_ops);
        const double period = static_cast<double>(bridge.period_ops);
        const double det = usable * static_cast<double>(bridge.window_ops) /
                           period;
        const double warmed = usable *
                              static_cast<double>(bridge.warm_ops) / period;
        const double skipped = nb - det - warmed;
        bridge_s += t_bridge;
        bridge_ops += nb;
        bridge_priced_s += skipped * g + warmed * (g + m) +
                           det * (g + m + p);
        bridge_pipe_s += det * p;

        trace_ops += n;
        detailed_ops += static_cast<double>(sampled.report.sample_windows *
                                            bridge.window_ops);
        const core::RunResult counted =
            core::run_workload(name, counts_cfg, i);
        if (!counted.status.ok ||
            report_digest(counted.report) != report_digest(exact.report)) {
            result.correct = false;
            std::fprintf(stderr, "failed: ledger counts %s\n", name.c_str());
        }
        if (counted.telemetry != nullptr) {
            const obs::TimeSeriesRecorder& rec = *counted.telemetry;
            for (const char* col : {"l1i_miss", "l2_miss", "l3_miss",
                                    "dtlb_walk", "br_mispred"}) {
                const int c = rec.column_index(col);
                if (c < 0)
                    continue;
                for (const obs::IntervalRow& row : rec.rows())
                    events[col] += row.values[static_cast<std::size_t>(c)];
            }
        }
    }
    for (const auto& [cat, s] : by_cat) {
        result.add("workloads.gen_ns_per_op." + cat, 1e9 * s.skip_s / s.ops,
                   "ns/op");
        result.add("mem.warm_ns_per_op." + cat,
                   1e9 * (s.warm_s - s.skip_s) / s.ops, "ns/op");
        result.add("cpu.pipe_ns_per_op." + cat,
                   1e9 * (s.exact_s - s.warm_s) / s.ops, "ns/op");
    }
    result.add("sample.overhead_ns_per_op",
               1e9 * (bridge_s - bridge_priced_s) / bridge_ops, "ns/op");
    result.add("sample.pipe_frac", bridge_pipe_s / bridge_s, "ratio");

    std::vector<double> ctor_ms;
    for (int r = 0; r < 5; ++r) {
        const double start_us = spans.now_us();
        const auto t0 = Clock::now();
        const cpu::Core core(exact_cfg.core_config, exact_cfg.memory_config);
        ctor_ms.push_back(1e3 * seconds_since(t0));
        spans.end("cpu::Core ctor", "ledger", kLaneSim, start_us);
    }
    result.add("cpu.core_ctor_ms", median(ctor_ms), "ms");

    result.add("trace.ops", trace_ops, "count");
    result.add("cpu.detailed_ops", detailed_ops, "count");
    result.add("mem.l1i_misses", events["l1i_miss"], "count");
    result.add("mem.l2_misses", events["l2_miss"], "count");
    result.add("mem.l3_misses", events["l3_miss"], "count");
    result.add("mem.dtlb_walks", events["dtlb_walk"], "count");
    result.add("cpu.branch_mispredicts", events["br_mispred"], "count");
}

}  // namespace dcb::perfbench
