#include "passes.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>

namespace dcb::perfbench {

namespace {

/** Calls between reference samples, in host seconds of calls. */
constexpr double kSampleEverySeconds = 0.2;

double
sum_of_medians(const std::vector<std::vector<double>>& times)
{
    double total = 0.0;
    for (const std::vector<double>& t : times)
        total += median(t);
    return total;
}

/** Typical kernel times on the VM the bounds were set on. */
constexpr double kNominalComputeSeconds = 0.0015;
constexpr double kNominalMemorySeconds = 0.004;

/** The reference kernels' tables, filled once before the first sample. */
struct ReferenceTables
{
    /** Memory kernel: 64 MiB of random words, a 2 MiB 16-way tag array. */
    std::vector<std::uint64_t> data = std::vector<std::uint64_t>(1u << 23);
    std::vector<std::uint64_t> tags = std::vector<std::uint64_t>(1u << 18);
    /** Compute kernel: a 256 KiB permutation walked by dependent loads. */
    std::vector<std::uint32_t> small = std::vector<std::uint32_t>(1u << 16);

    ReferenceTables()
    {
        std::uint64_t x = 88172645463325252ULL;
        for (std::uint64_t& v : data) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v = x;
        }
        for (std::uint32_t& v : small) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v = static_cast<std::uint32_t>(x & (small.size() - 1));
        }
    }
};

ReferenceTables&
reference_tables()
{
    static ReferenceTables tables;
    return tables;
}

/**
 * Random reads over the 64 MiB table, each followed by a lookup and
 * update in the tag array: a cache model's pattern.
 */
std::uint64_t
memory_kernel(std::vector<std::uint64_t>& tags)
{
    const ReferenceTables& t = reference_tables();
    constexpr std::size_t kWays = 16;
    const std::size_t set_mask = tags.size() / kWays - 1;
    std::uint64_t x = 0x1234567ULL;
    std::uint64_t hits = 0;
    for (int i = 0; i < 40'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t v = t.data[(x >> 8) & (t.data.size() - 1)];
        std::uint64_t* ways = &tags[((v >> 6) & set_mask) * kWays];
        const std::uint64_t tag = v >> 20;
        bool hit = false;
        for (std::size_t w = 0; w < kWays && !hit; ++w)
            hit = ways[w] == tag;
        if (hit)
            ++hits;
        else
            ways[x & (kWays - 1)] = tag;
    }
    return hits;
}

/**
 * Integer arithmetic, data-dependent branches and dependent loads in a
 * cache-resident table.
 */
std::uint64_t
compute_kernel()
{
    const ReferenceTables& t = reference_tables();
    std::uint32_t p = 1;
    std::uint64_t x = 0x2545F4914F6CDD1DULL;
    std::uint64_t acc = 0;
    for (int i = 0; i < 60'000; ++i) {
        p = t.small[p ^ static_cast<std::uint32_t>(i & 7)];
        for (int k = 0; k < 8; ++k) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if (x & 1)
                acc += x >> 60;
        }
    }
    return acc + p;
}

}  // namespace

void
HostSpeed::sample()
{
    ReferenceTables& t = reference_tables();  // built outside the timing
    for (std::size_t r = 0; r < kRunsPerPoint; ++r) {
        auto t0 = Clock::now();
        const std::uint64_t c = compute_kernel();
        compute_s_.push_back(seconds_since(t0));
        t0 = Clock::now();
        const std::uint64_t m = memory_kernel(t.tags);
        memory_s_.push_back(seconds_since(t0));
        // Keep the kernels' results observable so they are not folded
        // away.
        if (c == ~std::uint64_t{0} || m == ~std::uint64_t{0})
            std::fprintf(stderr, "reference kernel: impossible result\n");
    }
}

double
HostSpeed::scale_between(std::size_t point, const Elasticity& e) const
{
    const std::size_t last = points() - 1;
    const std::size_t first = std::min(point, last - 1);
    const auto window = [&](const std::vector<double>& runs) {
        const auto begin = runs.begin() + static_cast<std::ptrdiff_t>(
                                              first * kRunsPerPoint);
        return median(std::vector<double>(
            begin, begin + static_cast<std::ptrdiff_t>(2 * kRunsPerPoint)));
    };
    return scale(e, window(compute_s_), window(memory_s_));
}

double
HostSpeed::scale(const Elasticity& e, double compute_s, double memory_s)
{
    return std::pow(kNominalComputeSeconds / compute_s, e.compute) *
           std::pow(kNominalMemorySeconds / memory_s, e.memory);
}

std::vector<double>
PassTimes::item_medians() const
{
    std::vector<double> out;
    out.reserve(item_s.size());
    for (const std::vector<double>& t : item_s)
        out.push_back(median(t));
    return out;
}

double
PassTimes::pass_seconds() const
{
    return sum_of_medians(item_s);
}

double
PassTimes::pass_cpu_seconds() const
{
    return sum_of_medians(item_cpu_s);
}

double
PassTimes::trace_overhead() const
{
    const double untraced = pass_seconds();
    return untraced > 0.0 ? sum_of_medians(traced_s) / untraced - 1.0
                          : 0.0;
}

PassTimes
run_passes(std::size_t items, double seconds, std::size_t min_passes,
           const Spans& spans, HostSpeed& speed, std::size_t setup_repeats,
           const std::function<void()>& setup,
           const std::function<std::string(std::size_t)>& label,
           const std::function<void(std::size_t)>& call,
           const std::function<void(std::size_t, std::size_t)>& check)
{
    const bool traced = spans.writer() != nullptr;
    PassTimes out;
    out.item_s.resize(items);
    out.item_cpu_s.resize(items);
    out.traced_s.resize(items);
    // The sample point before each call, parallel to item_s / traced_s.
    std::vector<std::vector<std::size_t>> point(items), traced_point(items);
    // The sample point before each set-up, parallel to setup_s.
    std::vector<std::size_t> setup_point;
    const auto timed_setup = [&] {
        const auto t0 = Clock::now();
        for (std::size_t r = 0; r < setup_repeats; ++r)
            setup();
        out.setup_s.push_back(seconds_since(t0) /
                              static_cast<double>(setup_repeats));
        setup_point.push_back(speed.points() - 1);
    };
    speed.sample();
    timed_setup();
    double since_sample = 0.0;
    const auto start = Clock::now();
    while (out.passes < min_passes || seconds_since(start) < seconds) {
        for (std::size_t i = 0; i < items; ++i) {
            // Traced runs pair each call with a spanned twin; the order
            // alternates by pass so drift cancels out of the overhead.
            for (int twin = 0; twin < (traced ? 2 : 1); ++twin) {
                const bool with_span =
                    traced && (twin == 0) == (out.passes % 2 == 0);
                const double span_start = with_span ? spans.now_us() : 0.0;
                const double cpu0 = cpu_seconds();
                const auto t0 = Clock::now();
                call(i);
                const double dt = seconds_since(t0);
                const double cpu = cpu_seconds() - cpu0;
                if (with_span) {
                    spans.end(label(i), "call", kLaneCalls, span_start);
                    out.traced_s[i].push_back(dt);
                    traced_point[i].push_back(speed.points() - 1);
                } else {
                    out.item_s[i].push_back(dt);
                    out.item_cpu_s[i].push_back(cpu);
                    point[i].push_back(speed.points() - 1);
                }
                check(i, out.passes);
                since_sample += dt;
                if (since_sample >= kSampleEverySeconds) {
                    speed.sample();
                    since_sample = 0.0;
                }
            }
        }
        ++out.passes;
        timed_setup();
        speed.sample();
        since_sample = 0.0;
    }
    out.peak_rss_mb = peak_rss_mb() - kReferenceMiB;
    out.raw_pass_s = sum_of_medians(out.item_s);
    for (std::size_t i = 0; i < items; ++i) {
        for (std::size_t c = 0; c < point[i].size(); ++c) {
            const double scale = speed.scale_between(point[i][c]);
            out.item_s[i][c] *= scale;
            out.item_cpu_s[i][c] *= scale;
        }
        for (std::size_t c = 0; c < traced_point[i].size(); ++c)
            out.traced_s[i][c] *= speed.scale_between(traced_point[i][c]);
    }
    for (std::size_t k = 0; k < out.setup_s.size(); ++k)
        out.setup_s[k] *= speed.setup_scale_between(setup_point[k]);
    return out;
}

void
stamp_host_speed(const HostSpeed& speed, const PassTimes& times,
                 Result& result)
{
    result.reference_compute_s = speed.compute_seconds();
    result.reference_memory_s = speed.memory_seconds();
    result.time_scale = speed.scale();
    result.raw_pass_s = times.raw_pass_s;
}

}  // namespace dcb::perfbench
