#include "analytics/kmeans.h"

#include <cmath>

#include "util/assert.h"

namespace dcb::analytics {

namespace {
constexpr std::uint64_t kDimLoopSite = 0x4D001;
constexpr std::uint64_t kArgminSite = 0x4D002;
constexpr std::uint64_t kPointLoopSite = 0x4D003;
}  // namespace

Kmeans::Kmeans(trace::ExecCtx& ctx, mem::AddressSpace& space,
               const std::vector<double>& points, std::size_t n,
               std::uint32_t dims, std::uint32_t k)
    : ctx_(ctx), n_(n), dims_(dims), k_(k),
      points_(space, n * dims, "kmeans_points"),
      centers_(space, static_cast<std::size_t>(k) * dims, "kmeans_centers"),
      new_centers_(space, static_cast<std::size_t>(k) * dims, 0.0,
                   "kmeans_new_centers"),
      counts_(space, k, 0ull, "kmeans_counts"),
      assign_(space, n, 0u, "kmeans_assign")
{
    DCB_EXPECTS(points.size() == n * dims);
    DCB_EXPECTS(k >= 1 && n >= k);
    points_.host().assign(points.begin(), points.end());
    // Initialize centers from the first k points (deterministic seeding).
    for (std::uint32_t c = 0; c < k_; ++c)
        for (std::uint32_t d = 0; d < dims_; ++d)
            centers_[static_cast<std::size_t>(c) * dims_ + d] =
                points_[static_cast<std::size_t>(c) * dims_ + d];
}

void
Kmeans::begin_pass()
{
    for (std::size_t i = 0; i < new_centers_.size(); ++i) {
        new_centers_[i] = 0.0;
        ctx_.store(new_centers_.addr(i));
    }
    for (std::uint32_t c = 0; c < k_; ++c) {
        counts_[c] = 0;
        ctx_.store(counts_.addr(c));
    }
}

double
Kmeans::assign_block(std::size_t start, std::size_t count)
{
    const std::size_t end = std::min(start + count, n_);
    double inertia = 0.0;
    for (std::size_t p = start; p < end; ++p) {
        const std::size_t prow = p * dims_;
        double best = 1e300;
        std::uint32_t best_c = 0;
        for (std::uint32_t c = 0; c < k_; ++c) {
            const std::size_t crow = static_cast<std::size_t>(c) * dims_;
            double dist = 0.0;
            for (std::uint32_t d = 0; d < dims_; ++d) {
                ctx_.load(points_.addr(prow + d));
                ctx_.load(centers_.addr(crow + d));
                const double diff = points_[prow + d] - centers_[crow + d];
                dist += diff * diff;
                // sub + FMA into a single running sum: serial FP chain.
                ctx_.fpu(1);
                ctx_.fpu(1, true);
                if ((d & 3) == 3)
                    ctx_.branch(kDimLoopSite, d + 1 < dims_);
            }
            const bool better = dist < best;
            // min/argmin compiles to minsd + cmov: no control hazard.
            ctx_.fpu(1);
            ctx_.alu(1);
            ctx_.branch(kArgminSite, c + 1 < k_);  // center loop
            if (better) {
                best = dist;
                best_c = c;
            }
        }
        inertia += best;
        assign_[p] = best_c;
        ctx_.store(assign_.addr(p));
        // Accumulate into the new center.
        const std::size_t crow = static_cast<std::size_t>(best_c) * dims_;
        for (std::uint32_t d = 0; d < dims_; ++d) {
            ctx_.load(new_centers_.addr(crow + d));
            new_centers_[crow + d] += points_[prow + d];
            ctx_.fpu(1);
            ctx_.store(new_centers_.addr(crow + d));
        }
        ++counts_[best_c];
        ctx_.load(counts_.addr(best_c));
        ctx_.alu(1);
        ctx_.store(counts_.addr(best_c));
        ctx_.branch(kPointLoopSite, p + 1 < end);
    }
    return inertia;
}

double
Kmeans::finish_pass()
{
    // Recompute centers; track total center movement.
    double shift = 0.0;
    for (std::uint32_t c = 0; c < k_; ++c) {
        ctx_.load(counts_.addr(c));
        if (counts_[c] == 0)
            continue;  // keep the old center for empty clusters
        const std::size_t crow = static_cast<std::size_t>(c) * dims_;
        for (std::uint32_t d = 0; d < dims_; ++d) {
            ctx_.load(new_centers_.addr(crow + d));
            const double updated = new_centers_[crow + d] /
                                   static_cast<double>(counts_[c]);
            const double diff = updated - centers_[crow + d];
            shift += diff * diff;
            centers_[crow + d] = updated;
            ctx_.fpu(3);
            ctx_.store(centers_.addr(crow + d));
        }
    }
    return std::sqrt(shift);
}

double
Kmeans::assign_points(double* inertia_out)
{
    begin_pass();
    const double inertia = assign_block(0, n_);
    if (inertia_out)
        *inertia_out = inertia;
    return finish_pass();
}

KmeansResult
Kmeans::run(std::uint32_t max_iters, double epsilon)
{
    KmeansResult result;
    for (std::uint32_t it = 0; it < max_iters; ++it) {
        double inertia = 0.0;
        const double shift = assign_points(&inertia);
        ++result.iterations;
        result.inertia = inertia;
        result.inertia_history.push_back(inertia);
        if (shift < epsilon)
            break;
    }
    return result;
}

}  // namespace dcb::analytics
