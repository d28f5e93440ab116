#ifndef DCBENCH_ANALYTICS_FUZZY_KMEANS_H_
#define DCBENCH_ANALYTICS_FUZZY_KMEANS_H_

/**
 * @file
 * Fuzzy K-means kernel (workload #7, Mahout): fuzzy c-means with soft
 * memberships u_pc = 1 / sum_j (d_pc / d_pj)^(2/(m-1)). Every point
 * contributes to every center, so the per-point FP work is several times
 * that of hard K-means -- matching Table I, where Fuzzy K-means retires
 * ~5x the instructions of K-means on the same 150 GB input.
 */

#include <cstdint>
#include <vector>

#include "analytics/simdata.h"
#include "trace/exec_ctx.h"

namespace dcb::analytics {

/** Result of one fuzzy c-means run. */
struct FuzzyKmeansResult
{
    std::uint32_t iterations = 0;
    double objective = 0.0;  ///< sum_pc u_pc^m d_pc^2
    std::vector<double> objective_history;
};

/** Narrated fuzzy c-means. */
class FuzzyKmeans
{
  public:
    /**
     * @param fuzziness The exponent m (> 1; Mahout default 2.0).
     */
    FuzzyKmeans(trace::ExecCtx& ctx, mem::AddressSpace& space,
                const std::vector<double>& points, std::size_t n,
                std::uint32_t dims, std::uint32_t k, double fuzziness);

    FuzzyKmeansResult run(std::uint32_t max_iters, double epsilon);

    const SimVec<double>::Storage& centers() const
    {
        return centers_.host();
    }

    /** Soft membership of point p in cluster c after the last run. */
    double membership(std::size_t p, std::uint32_t c) const
    {
        return memberships_[p * k_ + c];
    }

    // --- Block-wise pass API (op-budget friendly) ----------------------

    /** Zero the weighted-sum accumulators. */
    void begin_pass();

    /**
     * Process points [start, start+count).
     * @return Objective contribution of the block.
     */
    double process_block(std::size_t start, std::size_t count);

    /** Update the centers; returns the total center shift. */
    double finish_pass();

    std::size_t num_points() const { return n_; }

  private:
    double iterate(double* objective_out);

    trace::ExecCtx& ctx_;
    std::size_t n_;
    std::uint32_t dims_;
    std::uint32_t k_;
    double m_;
    SimVec<double> points_;
    SimVec<double> centers_;
    SimVec<double> num_;   ///< weighted sums (k x dims)
    SimVec<double> den_;   ///< weight totals (k)
    SimVec<double> dist_;  ///< per-point squared distances (k)
    SimVec<double> memberships_;  ///< n x k
};

}  // namespace dcb::analytics

#endif  // DCBENCH_ANALYTICS_FUZZY_KMEANS_H_
