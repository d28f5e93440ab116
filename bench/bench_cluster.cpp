/**
 * @file
 * Cluster-scale benchmark of the sharded multi-job engine: a 512-node /
 * 32-rack cluster serving 16 concurrent fair-share jobs, run through
 * the serial reference (threads=1) and the sharded parallel engine,
 * verified bit-identical, timed, and written to BENCH_cluster.json
 * (atomic write) with per-shard utilization.
 *
 * The same scenario is then re-run under a correlated-fault plan (node
 * crash, rack power loss, partition + heal, master failover, hangs,
 * crashes, cascades) and held to the same serial/sharded/replay
 * bit-identity -- the chaos machinery at 512-node scale.
 *
 * A third fault-free run executes with the observability plane fully
 * armed (labeled metrics registry + cluster trace) and is byte-diffed
 * against the unarmed dump: observation must never perturb the
 * simulation. --check-obs-overhead gates the armed/unarmed wall-clock
 * ratio (serialization excluded -- files are written after timing).
 *
 * Host-side accounting of the sharded run -- the coordinator's serial
 * seconds and each worker lane's barrier idle seconds, both measured
 * by the engine -- is printed and written to the JSON next to the
 * per-shard handler busy seconds.
 *
 * Usage: ./bench_cluster [--nodes N] [--racks N] [--jobs N]
 *                        [--threads N] [--check-speedup X]
 *                        [--dump-serial FILE] [--dump-sharded FILE]
 *                        [--dump-observed FILE]
 *                        [--obs-metrics-out FILE] [--trace-out FILE]
 *                        [--check-obs-overhead X] [--json FILE]
 *
 *   --threads 0 (default) uses one worker per hardware thread, capped
 *   at the rack count. --check-speedup X fails the run when the sharded
 *   wall-clock speedup is below X -- skipped with a note on hosts with
 *   fewer than 4 hardware threads, where the parallel region is
 *   starved (same policy as bench_throughput). --dump-* write the
 *   canonical MultiJobResult dumps so CI can byte-diff serial vs
 *   sharded vs observed across invocations. --obs-metrics-out writes
 *   the armed run's Prometheus text to FILE and its per-barrier
 *   snapshot rows to FILE.dcx. --check-obs-overhead X fails the run
 *   when the median over interleaved (unarmed, armed) repeat pairs of
 *   the per-pair ratio armed / unarmed - 1 exceeds X.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "mapreduce/fairshare.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/quantile.h"
#include "obs/trace_writer.h"
#include "util/atomic_file.h"

namespace {

using namespace dcb;
using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Interleaved (unarmed, armed) pairs behind --check-obs-overhead. */
constexpr int kObsOverheadPairs = 15;

/** The benchmark fleet: job j is a pure function of (j, job_count). */
std::vector<mapreduce::JobSubmission>
make_fleet(std::uint32_t job_count)
{
    std::vector<mapreduce::JobSubmission> subs;
    subs.reserve(job_count);
    for (std::uint32_t j = 0; j < job_count; ++j) {
        mapreduce::JobSubmission sub;
        sub.spec.name = "fleet";
        sub.spec.input_gb = 192.0 + 48.0 * (j % 5);
        sub.spec.total_instructions_g = 30.0 * sub.spec.input_gb;
        sub.spec.map_output_ratio = (j % 3 == 0) ? 0.8 : 0.2;
        if (j % 4 == 3)
            sub.spec.iterations = 2;  // iterative (Mahout-style) jobs
        sub.submit_time_s = 4.0 * j;  // staggered arrivals
        sub.weight = 1.0 + (j % 3);
        subs.push_back(sub);
    }
    return subs;
}

/** Peak RSS in bytes (ru_maxrss is KiB on Linux). */
std::uint64_t
peak_rss_bytes()
{
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
}

bool
write_text(const std::string& path, const std::string& text)
{
    std::string temp;
    std::FILE* f = util::open_file_atomic(path.c_str(), &temp);
    if (f == nullptr)
        return false;
    std::fwrite(text.data(), 1, text.size(), f);
    return util::commit_file_atomic(f, temp, path.c_str());
}

}  // namespace

int
main(int argc, char** argv)
{
    std::uint32_t nodes = 512;
    std::uint32_t racks = 32;
    std::uint32_t jobs = 16;
    unsigned threads = 0;
    double check_speedup = -1.0;
    double check_obs_overhead = -1.0;
    std::string dump_serial_path;
    std::string dump_sharded_path;
    std::string dump_observed_path;
    std::string metrics_path;
    std::string trace_path;
    std::string json_path = "BENCH_cluster.json";
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
        if (const char* v = value("--nodes"))
            nodes = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
        else if (const char* v = value("--racks"))
            racks = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
        else if (const char* v = value("--jobs"))
            jobs = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
        else if (const char* v = value("--threads"))
            threads = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        else if (const char* v = value("--check-speedup"))
            check_speedup = std::strtod(v, nullptr);
        else if (const char* v = value("--check-obs-overhead"))
            check_obs_overhead = std::strtod(v, nullptr);
        else if (const char* v = value("--dump-serial"))
            dump_serial_path = v;
        else if (const char* v = value("--dump-sharded"))
            dump_sharded_path = v;
        else if (const char* v = value("--dump-observed"))
            dump_observed_path = v;
        else if (const char* v = value("--obs-metrics-out"))
            metrics_path = v;
        else if (const char* v = value("--trace-out"))
            trace_path = v;
        else if (const char* v = value("--json"))
            json_path = v;
    }
    const unsigned hardware_threads = std::thread::hardware_concurrency();
    if (threads == 0)
        threads = std::max(1u, hardware_threads);
    threads = std::min(threads, racks);

    mapreduce::ClusterConfig cluster;
    cluster.slaves = nodes;
    cluster.racks = racks;
    const std::vector<mapreduce::JobSubmission> fleet = make_fleet(jobs);
    mapreduce::FairShareConfig fair;
    fair.attempt_jitter_sigma = 0.25;  // realistic duration spread
    const mapreduce::MultiJobScheduler scheduler(fair);

    std::printf("cluster bench: %u nodes / %u racks / %u jobs, "
                "sharded at %u threads (%u hardware)\n\n",
                nodes, racks, jobs, threads, hardware_threads);

    // --- Fault-free: the speedup measurement -------------------------
    mapreduce::MultiJobOptions serial_opt;
    serial_opt.threads = 1;
    const auto serial_start = Clock::now();
    const mapreduce::MultiJobResult serial =
        scheduler.run(fleet, cluster, serial_opt);
    const double serial_seconds = seconds_since(serial_start);
    if (!serial.ok) {
        std::fprintf(stderr, "error: %s\n", serial.error.c_str());
        return 1;
    }

    mapreduce::MultiJobOptions sharded_opt;
    sharded_opt.threads = threads;
    const auto sharded_start = Clock::now();
    const mapreduce::MultiJobResult sharded =
        scheduler.run(fleet, cluster, sharded_opt);
    const double sharded_seconds = seconds_since(sharded_start);

    const std::string serial_dump = serial.dump();
    const bool identical = serial_dump == sharded.dump();
    const double speedup =
        sharded_seconds > 0.0 ? serial_seconds / sharded_seconds : 0.0;
    std::uint64_t completed = 0;
    for (const mapreduce::JobOutcome& job : serial.jobs)
        completed += job.completed ? 1 : 0;
    std::printf("fault-free: makespan %.1f sim-s, %" PRIu64 "/%u jobs "
                "completed, %" PRIu64 " events over %" PRIu64 " epochs\n",
                serial.makespan_s, completed, jobs, serial.events,
                serial.epochs);
    std::printf("wall clock: %.3f s serial, %.3f s at %u threads "
                "(speedup %.2fx)\n",
                serial_seconds, sharded_seconds, threads, speedup);
    std::printf("sharded results bit-identical to serial: %s\n",
                identical ? "yes" : "NO -- BUG");
    double shard_busy = 0.0;
    for (const mapreduce::ShardStats& st : sharded.shards)
        shard_busy += st.busy_seconds;
    double idle_max = 0.0;
    for (const double idle : sharded.worker_idle_seconds)
        idle_max = std::max(idle_max, idle);
    std::printf("sharded host time: coordinator %.3f s, shard handlers "
                "%.3f s, worst lane idle %.3f s\n",
                sharded.coordinator_seconds, shard_busy, idle_max);
    const obs::LatencyStats& att = serial.attempt_durations;
    std::printf("attempt durations (n=%" PRIu64 "): p50 %.1f s, "
                "p95 %.1f s, p99 %.1f s, p999 %.1f s\n\n",
                att.count, att.p50, att.p95, att.p99, att.p999);

    // --- Observability armed: must not perturb the simulation --------
    obs::MetricsRegistry registry;
    if (!metrics_path.empty())
        registry.set_snapshot_spill(metrics_path + ".dcx");
    obs::TraceWriter cluster_trace;
    mapreduce::MultiJobOptions observed_opt;
    observed_opt.threads = threads;
    observed_opt.metrics = &registry;
    observed_opt.trace = &cluster_trace;
    const auto observed_start = Clock::now();
    const mapreduce::MultiJobResult observed =
        scheduler.run(fleet, cluster, observed_opt);
    double armed_seconds = seconds_since(observed_start);
    const std::string observed_dump = observed.dump();
    const bool obs_identical = observed_dump == serial_dump;
    double unarmed_seconds = sharded_seconds;
    double obs_overhead =
        unarmed_seconds > 0.0 ? armed_seconds / unarmed_seconds - 1.0
                              : 0.0;
    int obs_pairs = 0;
    if (check_obs_overhead >= 0.0) {
        // The gate re-times back-to-back (unarmed, armed) pairs with
        // fresh in-memory sinks (artifacts discarded) and takes the
        // *median per-pair ratio*: the two runs of a pair are
        // temporally adjacent, so slow host drift inflates both sides
        // together and cancels, and the median discards the pairs a
        // noisy-neighbor burst hit on one side only -- a minimum would
        // instead select exactly such a pair. Alternating which side
        // runs first cancels any order effect.
        const auto time_run = [&](bool armed) {
            obs::MetricsRegistry rep_registry;
            obs::TraceWriter rep_trace;
            mapreduce::MultiJobOptions rep_opt = sharded_opt;
            if (armed) {
                rep_opt.metrics = &rep_registry;
                rep_opt.trace = &rep_trace;
            }
            const auto start = Clock::now();
            (void)scheduler.run(fleet, cluster, rep_opt);
            return seconds_since(start);
        };
        std::vector<double> ratios;
        for (obs_pairs = 0; obs_pairs < kObsOverheadPairs; ++obs_pairs) {
            const bool armed_first = obs_pairs % 2 == 1;
            const double first = time_run(armed_first);
            const double second = time_run(!armed_first);
            const double u = armed_first ? second : first;
            const double a = armed_first ? first : second;
            unarmed_seconds = std::min(unarmed_seconds, u);
            armed_seconds = std::min(armed_seconds, a);
            if (u > 0.0)
                ratios.push_back(a / u - 1.0);
        }
        if (!ratios.empty()) {
            const auto mid = ratios.begin() + ratios.size() / 2;
            std::nth_element(ratios.begin(), mid, ratios.end());
            obs_overhead = *mid;
        }
    }
    std::printf("observability armed: %.3f s wall (%+.1f%% vs %.3f s "
                "unarmed%s); dump bit-identical: %s\n",
                armed_seconds, 100.0 * obs_overhead, unarmed_seconds,
                obs_pairs > 0 ? ", median of the per-pair ratios" : "",
                obs_identical ? "yes" : "NO -- BUG");
    std::printf("metrics: %zu series, %" PRIu64 " snapshots (one per "
                "barrier), %zu trace events\n\n",
                registry.series_count(), registry.snapshot_count(),
                cluster_trace.size());

    // --- Correlated faults at scale: bit-identity only ---------------
    fault::FaultPlan plan;
    plan.seed = 0xC1A05C41EULL;
    plan.task_crash_prob = 0.01;
    plan.task_hang_prob = 0.004;
    plan.slow_node_fraction = 0.08;
    plan.slow_multiplier = 1.7;
    plan.node_crash_time_s = 60.0;
    plan.crash_node = nodes / 3;
    plan.rack_crash_time_s = 120.0;
    plan.crash_rack = racks / 2;
    plan.partition_time_s = 80.0;
    plan.partition_duration_s = 45.0;
    plan.partition_rack = racks / 4;
    plan.master_crash_time_s = 100.0;
    plan.cascade_prob = 0.4;

    const auto run_chaos = [&](unsigned t) {
        fault::FaultInjector injector(plan);
        mapreduce::MultiJobOptions options;
        options.threads = t;
        options.injector = &injector;
        return scheduler.run(fleet, cluster, options);
    };
    const auto chaos_serial_start = Clock::now();
    const mapreduce::MultiJobResult chaos_serial = run_chaos(1);
    const double chaos_serial_seconds =
        seconds_since(chaos_serial_start);
    const auto chaos_sharded_start = Clock::now();
    const mapreduce::MultiJobResult chaos_sharded = run_chaos(threads);
    const double chaos_sharded_seconds =
        seconds_since(chaos_sharded_start);
    const bool chaos_identical =
        chaos_serial.dump() == chaos_sharded.dump();
    const mapreduce::ClusterOutcome& co = chaos_serial.cluster;
    std::printf("chaos: makespan %.1f sim-s; nodes lost %u, racks lost "
                "%u, partitions %u (heals %u), failovers %u, cascades "
                "%u, blacklisted %u\n",
                chaos_serial.makespan_s, co.nodes_lost, co.racks_lost,
                co.partitions, co.partition_heals, co.master_failovers,
                co.cascades_triggered, co.nodes_blacklisted);
    std::printf("chaos wall clock: %.3f s serial, %.3f s at %u threads; "
                "bit-identical: %s\n\n",
                chaos_serial_seconds, chaos_sharded_seconds, threads,
                chaos_identical ? "yes" : "NO -- BUG");

    // --- Artifacts ---------------------------------------------------
    if (!dump_serial_path.empty() &&
        !write_text(dump_serial_path, serial_dump)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     dump_serial_path.c_str());
        return 1;
    }
    if (!dump_sharded_path.empty() &&
        !write_text(dump_sharded_path, sharded.dump())) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     dump_sharded_path.c_str());
        return 1;
    }
    if (!dump_observed_path.empty() &&
        !write_text(dump_observed_path, observed_dump)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     dump_observed_path.c_str());
        return 1;
    }
    if (!metrics_path.empty()) {
        if (!registry.finalize_snapshots()) {
            std::fprintf(stderr, "error: cannot write %s.dcx\n",
                         metrics_path.c_str());
            return 1;
        }
        if (!registry.write_prometheus(metrics_path)) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         metrics_path.c_str());
            return 1;
        }
        std::printf("wrote %s and %s.dcx\n", metrics_path.c_str(),
                    metrics_path.c_str());
    }
    if (!trace_path.empty()) {
        if (!cluster_trace.write(trace_path)) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         trace_path.c_str());
            return 1;
        }
        std::printf("wrote %s (%zu trace events)\n", trace_path.c_str(),
                    cluster_trace.size());
    }

    if (json_path != "none") {
        obs::RunManifest manifest;
        manifest.add_host_info();
        manifest.set("bench", "bench_cluster");
        manifest.set("nodes", std::uint64_t{nodes});
        manifest.set("racks", std::uint64_t{racks});
        manifest.set("jobs", std::uint64_t{jobs});
        manifest.set("threads", std::uint64_t{threads});
        manifest.set("hardware_concurrency",
                     std::uint64_t{hardware_threads});
        manifest.set("obs_bit_identical", obs_identical);
        manifest.set("metrics_series",
                     std::uint64_t{registry.series_count()});
        manifest.set("metrics_snapshots", registry.snapshot_count());
        if (!metrics_path.empty())
            manifest.set("obs_metrics_out", metrics_path);

        std::string out = "{\n";
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "  \"nodes\": %u,\n  \"racks\": %u,\n"
                      "  \"jobs\": %u,\n  \"threads\": %u,\n"
                      "  \"hardware_concurrency\": %u,\n",
                      nodes, racks, jobs, threads, hardware_threads);
        out += buf;
        std::snprintf(buf, sizeof buf,
                      "  \"makespan_s\": %.6f,\n  \"events\": %" PRIu64
                      ",\n  \"epochs\": %" PRIu64 ",\n",
                      serial.makespan_s, serial.events, serial.epochs);
        out += buf;
        std::snprintf(buf, sizeof buf,
                      "  \"serial_seconds\": %.6f,\n"
                      "  \"sharded_seconds\": %.6f,\n"
                      "  \"speedup\": %.4f,\n"
                      "  \"bit_identical\": %s,\n",
                      serial_seconds, sharded_seconds, speedup,
                      identical ? "true" : "false");
        out += buf;
        std::snprintf(buf, sizeof buf,
                      "  \"serial_coordinator_seconds\": %.6f,\n"
                      "  \"coordinator_seconds\": %.6f,\n"
                      "  \"worker_idle_seconds\": [",
                      serial.coordinator_seconds,
                      sharded.coordinator_seconds);
        out += buf;
        for (std::size_t w = 0; w < sharded.worker_idle_seconds.size();
             ++w) {
            std::snprintf(buf, sizeof buf, "%s%.6f", w > 0 ? ", " : "",
                          sharded.worker_idle_seconds[w]);
            out += buf;
        }
        out += "],\n";
        std::snprintf(buf, sizeof buf,
                      "  \"chaos_serial_seconds\": %.6f,\n"
                      "  \"chaos_sharded_seconds\": %.6f,\n"
                      "  \"chaos_bit_identical\": %s,\n"
                      "  \"chaos_nodes_lost\": %u,\n"
                      "  \"chaos_master_failovers\": %u,\n",
                      chaos_serial_seconds, chaos_sharded_seconds,
                      chaos_identical ? "true" : "false", co.nodes_lost,
                      co.master_failovers);
        out += buf;
        std::snprintf(buf, sizeof buf,
                      "  \"obs_armed_seconds\": %.6f,\n"
                      "  \"obs_unarmed_seconds\": %.6f,\n"
                      "  \"obs_overhead\": %.4f,\n"
                      "  \"obs_overhead_pairs\": %d,\n"
                      "  \"obs_bit_identical\": %s,\n"
                      "  \"metrics_series\": %zu,\n"
                      "  \"metrics_snapshots\": %" PRIu64
                      ",\n  \"trace_events\": %zu,\n",
                      armed_seconds, unarmed_seconds, obs_overhead,
                      obs_pairs, obs_identical ? "true" : "false",
                      registry.series_count(),
                      registry.snapshot_count(), cluster_trace.size());
        out += buf;
        out += "  \"shards\": [\n";
        for (std::size_t s = 0; s < sharded.shards.size(); ++s) {
            const mapreduce::ShardStats& st = sharded.shards[s];
            const mapreduce::ShardUtil& ut = sharded.shard_util[s];
            std::snprintf(
                buf, sizeof buf,
                "    {\"shard\": %zu, \"events\": %" PRIu64
                ", \"heartbeats\": %" PRIu64
                ", \"slot_busy_s\": %.3f, \"uplink_wait_s\": %.3f, "
                "\"busy_seconds\": %.6f, \"steals\": %" PRIu64 "}%s\n",
                s, st.events_processed, ut.progress_heartbeats,
                ut.slot_busy_s, ut.uplink_wait_s, st.busy_seconds,
                st.steals,
                s + 1 < sharded.shards.size() ? "," : "");
            out += buf;
        }
        out += "  ],\n";
        out += "  \"attempt_durations\": " +
               obs::latency_stats_json(att) + ",\n";
        std::snprintf(buf, sizeof buf,
                      "  \"attempt_sketch_tuples\": %zu,\n"
                      "  \"peak_rss_bytes\": %llu,\n",
                      serial.attempt_sketch.tuples().size(),
                      static_cast<unsigned long long>(peak_rss_bytes()));
        out += buf;
        out += "  \"manifest\": " + manifest.json_fragment(2) + "\n";
        out += "}\n";
        if (!write_text(json_path, out)) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        std::printf("wrote %s\n", json_path.c_str());
    }

    if (check_speedup > 0.0) {
        if (hardware_threads < 4) {
            std::printf("speedup check skipped: %u hardware threads "
                        "starve the parallel region\n",
                        hardware_threads);
        } else if (speedup < check_speedup) {
            std::fprintf(stderr,
                         "FAIL: cluster speedup %.2fx below required "
                         "%.2fx\n",
                         speedup, check_speedup);
            return 1;
        }
    }
    if (check_obs_overhead >= 0.0 &&
        obs_overhead > check_obs_overhead) {
        std::fprintf(stderr,
                     "FAIL: observability overhead %.1f%% above the "
                     "allowed %.1f%%\n",
                     100.0 * obs_overhead, 100.0 * check_obs_overhead);
        return 1;
    }
    if (!obs_identical)
        std::fprintf(stderr, "FAIL: metrics/tracing changed the "
                             "simulation result\n");
    return identical && chaos_identical && obs_identical ? 0 : 1;
}
