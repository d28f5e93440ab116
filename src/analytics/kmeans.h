#ifndef DCBENCH_ANALYTICS_KMEANS_H_
#define DCBENCH_ANALYTICS_KMEANS_H_

/**
 * @file
 * K-means kernel (workload #6, Mahout): Lloyd's algorithm. The assignment
 * step streams points against a small resident center set (dense FP
 * distance computations, highly regular branches), which is why K-means
 * sits at the high-IPC end of the paper's data-analysis spectrum.
 */

#include <cstdint>
#include <vector>

#include "analytics/simdata.h"
#include "trace/exec_ctx.h"

namespace dcb::analytics {

/** Result of one K-means run. */
struct KmeansResult
{
    std::uint32_t iterations = 0;
    double inertia = 0.0;  ///< sum of squared distances to assigned center
    std::vector<double> inertia_history;  ///< per-iteration objective
};

/** Narrated Lloyd K-means over points stored in simulated memory. */
class Kmeans
{
  public:
    /**
     * @param points Row-major points (n x dims), copied in.
     */
    Kmeans(trace::ExecCtx& ctx, mem::AddressSpace& space,
           const std::vector<double>& points, std::size_t n,
           std::uint32_t dims, std::uint32_t k);

    /**
     * Run Lloyd iterations until centers move less than `epsilon` or
     * `max_iters` is hit.
     */
    KmeansResult run(std::uint32_t max_iters, double epsilon);

    /** Final centers, row-major (k x dims). */
    const SimVec<double>::Storage& centers() const
    {
        return centers_.host();
    }
    /** Final assignment of each point. */
    const SimVec<std::uint32_t>::Storage& assignments() const
    {
        return assign_.host();
    }

    // --- Block-wise pass API (lets callers honour op budgets) ---------

    /** Zero the per-pass accumulators. */
    void begin_pass();

    /**
     * Assign points [start, start+count) and accumulate center sums.
     * @return Inertia contribution of the block.
     */
    double assign_block(std::size_t start, std::size_t count);

    /** Recompute centers from the accumulated sums; returns the shift. */
    double finish_pass();

    std::size_t num_points() const { return n_; }

  private:
    double assign_points(double* inertia_out);

    trace::ExecCtx& ctx_;
    std::size_t n_;
    std::uint32_t dims_;
    std::uint32_t k_;
    SimVec<double> points_;
    SimVec<double> centers_;
    SimVec<double> new_centers_;
    SimVec<std::uint64_t> counts_;
    SimVec<std::uint32_t> assign_;
};

}  // namespace dcb::analytics

#endif  // DCBENCH_ANALYTICS_KMEANS_H_
