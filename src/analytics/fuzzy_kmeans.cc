#include "analytics/fuzzy_kmeans.h"

#include <cmath>

#include "util/assert.h"

namespace dcb::analytics {

namespace {
constexpr std::uint64_t kDimLoopSite = 0x464B01;
constexpr std::uint64_t kCenterLoopSite = 0x464B02;
constexpr std::uint64_t kPointLoopSite = 0x464B03;
}  // namespace

FuzzyKmeans::FuzzyKmeans(trace::ExecCtx& ctx, mem::AddressSpace& space,
                         const std::vector<double>& points, std::size_t n,
                         std::uint32_t dims, std::uint32_t k,
                         double fuzziness)
    : ctx_(ctx), n_(n), dims_(dims), k_(k), m_(fuzziness),
      points_(space, n * dims, "fkm_points"),
      centers_(space, static_cast<std::size_t>(k) * dims, "fkm_centers"),
      num_(space, static_cast<std::size_t>(k) * dims, 0.0, "fkm_num"),
      den_(space, k, 0.0, "fkm_den"),
      dist_(space, k, 0.0, "fkm_dist"),
      memberships_(space, n * k, 0.0, "fkm_memberships")
{
    DCB_EXPECTS(points.size() == n * dims);
    DCB_EXPECTS(k >= 1 && n >= k);
    DCB_EXPECTS(fuzziness > 1.0);
    points_.host().assign(points.begin(), points.end());
    for (std::uint32_t c = 0; c < k_; ++c)
        for (std::uint32_t d = 0; d < dims_; ++d)
            centers_[static_cast<std::size_t>(c) * dims_ + d] =
                points_[static_cast<std::size_t>(c) * dims_ + d];
}

void
FuzzyKmeans::begin_pass()
{
    for (std::size_t i = 0; i < num_.size(); ++i) {
        num_[i] = 0.0;
        ctx_.store(num_.addr(i));
    }
    for (std::uint32_t c = 0; c < k_; ++c) {
        den_[c] = 0.0;
        ctx_.store(den_.addr(c));
    }
}

double
FuzzyKmeans::process_block(std::size_t start, std::size_t count)
{
    // Membership exponent on *squared* distances: (d2_c/d2_j)^(1/(m-1)).
    const double exponent = 1.0 / (m_ - 1.0);
    const std::size_t end = std::min(start + count, n_);
    double objective = 0.0;
    for (std::size_t p = start; p < end; ++p) {
        const std::size_t prow = p * dims_;
        // Squared distances to every center.
        for (std::uint32_t c = 0; c < k_; ++c) {
            const std::size_t crow = static_cast<std::size_t>(c) * dims_;
            double d2 = 0.0;
            for (std::uint32_t d = 0; d < dims_; ++d) {
                ctx_.load(points_.addr(prow + d));
                ctx_.load(centers_.addr(crow + d));
                const double diff = points_[prow + d] - centers_[crow + d];
                d2 += diff * diff;
                ctx_.fpu(2);
                if ((d & 3) == 3)
                    ctx_.branch(kDimLoopSite, d + 1 < dims_);
            }
            dist_[c] = d2 > 1e-12 ? d2 : 1e-12;
            ctx_.store(dist_.addr(c));
            ctx_.branch(kCenterLoopSite, c + 1 < k_);
        }
        // Memberships: u_c = 1 / sum_j (d_c/d_j)^(1/(m-1)) on squared d.
        for (std::uint32_t c = 0; c < k_; ++c) {
            double denom = 0.0;
            ctx_.load(dist_.addr(c));
            for (std::uint32_t j = 0; j < k_; ++j) {
                ctx_.load(dist_.addr(j));
                denom += std::pow(dist_[c] / dist_[j], exponent);
                // pow() is a short dependent chain feeding a running sum.
                ctx_.fpu(3, true);
                ctx_.fpu(3);
                ctx_.branch(kCenterLoopSite, j + 1 < k_);
            }
            const double u = 1.0 / denom;
            ctx_.fpu(1);
            memberships_[p * k_ + c] = u;
            ctx_.store(memberships_.addr(p * k_ + c));
            const double um = std::pow(u, m_);
            ctx_.fpu(4, true);
            objective += um * dist_[c];
            ctx_.fpu(2, true);
            // Weighted accumulation into center numerators.
            const std::size_t crow = static_cast<std::size_t>(c) * dims_;
            for (std::uint32_t d = 0; d < dims_; ++d) {
                ctx_.load(num_.addr(crow + d));
                num_[crow + d] += um * points_[prow + d];
                ctx_.fpu(2);
                ctx_.store(num_.addr(crow + d));
            }
            ctx_.load(den_.addr(c));
            den_[c] += um;
            ctx_.fpu(1);
            ctx_.store(den_.addr(c));
        }
        ctx_.branch(kPointLoopSite, p + 1 < end);
    }
    return objective;
}

double
FuzzyKmeans::finish_pass()
{
    // Center update.
    double shift = 0.0;
    for (std::uint32_t c = 0; c < k_; ++c) {
        ctx_.load(den_.addr(c));
        if (den_[c] <= 0.0)
            continue;
        const std::size_t crow = static_cast<std::size_t>(c) * dims_;
        for (std::uint32_t d = 0; d < dims_; ++d) {
            ctx_.load(num_.addr(crow + d));
            const double updated = num_[crow + d] / den_[c];
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
FuzzyKmeans::iterate(double* objective_out)
{
    begin_pass();
    const double objective = process_block(0, n_);
    if (objective_out)
        *objective_out = objective;
    return finish_pass();
}

FuzzyKmeansResult
FuzzyKmeans::run(std::uint32_t max_iters, double epsilon)
{
    FuzzyKmeansResult result;
    for (std::uint32_t it = 0; it < max_iters; ++it) {
        double objective = 0.0;
        const double shift = iterate(&objective);
        ++result.iterations;
        result.objective = objective;
        result.objective_history.push_back(objective);
        if (shift < epsilon)
            break;
    }
    return result;
}

}  // namespace dcb::analytics
