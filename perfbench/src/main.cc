/**
 * @file
 * Entry point of the repository benchmark.
 *
 *   dcb_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--out-dir DIR]
 *
 * Workloads: sim_exact, sim_sampled, cluster_fleet, chaos_sweep (see
 * perfbench/README.md). With --trace 0 the run measures the workload's
 * calls for S seconds and reports the end-to-end metrics. With
 * --trace 1 it measures the same calls with and without a span around
 * each (tracing overhead), then runs every per-layer ledger and reports
 * the per-layer metrics; the spans are written once at the end to
 * DIR/<workload>-seed<N>.trace.json.
 *
 * Standard output ends with a manifest line (host, build, the reference
 * kernels' times as a calibration score, output digest) and the result
 * line
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * The exit code is 0 only for a correct run.
 */

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/trace_writer.h"
#include "perfbench.h"

namespace dcb::perfbench {

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

namespace {

bool
parse_options(int argc, char** argv, Options& o)
{
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char* value = argv[i + 1];
        if (flag == "--workload") {
            o.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(value, nullptr, 10);
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(value, nullptr);
        } else if (flag == "--trace") {
            o.trace = std::strcmp(value, "0") != 0;
        } else if (flag == "--out-dir") {
            o.out_dir = value;
        } else {
            return false;
        }
    }
    return have_workload && argc % 2 == 1 && o.seconds > 0.0 &&
           std::isfinite(o.seconds);
}

std::string
result_json(const Result& r)
{
    std::string out = "{\"correct\": ";
    out += r.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric& m = r.metrics[i];
        out += (i > 0 ? ", " : "") + obs::json_quote(m.name) +
               ": {\"value\": " + obs::json_double(m.value) +
               ", \"unit\": " + obs::json_quote(m.unit) + "}";
    }
    out += "}}";
    return out;
}

}  // namespace

}  // namespace dcb::perfbench

int
main(int argc, char** argv)
{
    using namespace dcb;
    using namespace dcb::perfbench;

    Options options;
    if (!parse_options(argc, argv, options)) {
        std::fprintf(stderr,
                     "usage: %s --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--out-dir DIR]\n",
                     argv[0]);
        return 2;
    }
    const std::string& w = options.workload;
    if (w != "sim_exact" && w != "sim_sampled" && w != "cluster_fleet" &&
        w != "chaos_sweep") {
        std::fprintf(stderr,
                     "error: unknown workload '%s' (sim_exact, "
                     "sim_sampled, cluster_fleet, chaos_sweep)\n",
                     w.c_str());
        return 2;
    }

    obs::RunManifest manifest;
    manifest.set("workload", w);
    manifest.set("seed", options.seed);
    manifest.set("seconds", options.seconds);
    manifest.set("trace", options.trace);
    manifest.add_host_info();

    std::unique_ptr<obs::TraceWriter> writer;
    if (options.trace) {
        writer = std::make_unique<obs::TraceWriter>();
        writer->name_process(obs::TraceWriter::kHostPid,
                             "perfbench (host time)");
        writer->name_thread(obs::TraceWriter::kHostPid, kLaneCalls,
                            w + " calls");
        writer->name_thread(obs::TraceWriter::kHostPid, kLaneSim,
                            "sim ledger");
        writer->name_thread(obs::TraceWriter::kHostPid, kLaneFleet,
                            "fleet ledger");
        writer->name_thread(obs::TraceWriter::kHostPid, kLaneChaos,
                            "chaos ledger");
    }
    const Spans spans(writer.get());

    Result result;
    if (w == "sim_exact" || w == "sim_sampled")
        result = run_sim(options, w == "sim_sampled", spans);
    else if (w == "cluster_fleet")
        result = run_fleet(options, spans);
    else
        result = run_chaos(options, spans);
    manifest.set("digest", result.digest);
    // Host comparability: the reference kernels' median times on this
    // host during the run (a fixed calibration score), the scale they
    // gave, and the un-normalised pass time.
    manifest.set("reference_compute_ms", 1e3 * result.reference_compute_s);
    manifest.set("reference_memory_ms", 1e3 * result.reference_memory_s);
    manifest.set("time_scale", result.time_scale);
    manifest.set("raw_pass_s", result.raw_pass_s);

    if (options.trace) {
        // Every layer's ledger, whichever workload's calls were traced.
        sim_ledger(options.seed, spans, result);
        fleet_ledger(options.seed, spans, result);
        chaos_ledger(options.seed, spans, result);
        if (!options.out_dir.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(options.out_dir, ec);
            const std::string path = options.out_dir + "/" + w + "-seed" +
                                     std::to_string(options.seed) +
                                     ".trace.json";
            if (!writer->write(path)) {
                std::fprintf(stderr, "error: cannot write %s\n",
                             path.c_str());
                result.correct = false;
            } else {
                manifest.set("trace_file", path);
                manifest.set("trace_spans",
                             static_cast<std::uint64_t>(writer->size()));
            }
        }
    }
    for (const Metric& m : result.metrics)
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "error: metric %s is not finite\n",
                         m.name.c_str());
            result.correct = false;
        }
    if (result.attempted == 0)
        result.correct = false;

    std::string stamp = manifest.to_json();
    for (char& c : stamp)
        if (c == '\n')
            c = ' ';
    std::printf("manifest: %s\n", stamp.c_str());
    std::printf("%s\n", result_json(result).c_str());
    return result.correct && result.failed == 0 ? 0 : 1;
}
