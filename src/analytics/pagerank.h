#ifndef DCBENCH_ANALYTICS_PAGERANK_H_
#define DCBENCH_ANALYTICS_PAGERANK_H_

/**
 * @file
 * PageRank kernel (workload #10, Mahout): damped power iteration over a
 * CSR web graph. The edge loop is a sequential sweep of sources with a
 * Zipf-skewed scatter into destination ranks -- the irregular
 * graph-analytics access pattern that gives PageRank the highest L2 MPKI
 * among the paper's data-analysis workloads.
 */

#include <cstdint>
#include <vector>

#include "analytics/simdata.h"
#include "datagen/graph.h"
#include "trace/exec_ctx.h"

namespace dcb::analytics {

/** Result of a PageRank run. */
struct PageRankResult
{
    std::uint32_t iterations = 0;
    double final_delta = 0.0;  ///< L1 rank change of the last iteration
};

/** Narrated damped power iteration. */
class PageRank
{
  public:
    /**
     * @param graph   The web graph (kept by reference; must outlive this).
     * @param damping Damping factor (0.85 as in the original paper [14]).
     */
    PageRank(trace::ExecCtx& ctx, mem::AddressSpace& space,
             const datagen::CsrGraph& graph, double damping);

    /** Iterate until the L1 delta drops below `epsilon` or `max_iters`. */
    PageRankResult run(std::uint32_t max_iters, double epsilon);

    /** Ranks after the last run (sums to ~1). */
    const SimVec<double>::Storage& ranks() const
    {
        return ranks_.host();
    }

    // --- Block-wise iteration API (op-budget friendly) -----------------

    /** Reset the next-rank accumulators for a new iteration. */
    void begin_iteration();

    /** Scatter contributions of source nodes [lo, hi). */
    void process_nodes(std::uint32_t lo, std::uint32_t hi);

    /** Apply damping/dangling mass; returns the L1 rank delta. */
    double finish_iteration();

    std::uint32_t num_nodes() const { return graph_.num_nodes; }

  private:
    double dangling_ = 0.0;
    trace::ExecCtx& ctx_;
    const datagen::CsrGraph& graph_;
    double damping_;
    mem::Region csr_offsets_region_;
    mem::Region csr_targets_region_;
    SimVec<double> ranks_;
    SimVec<double> next_;
};

}  // namespace dcb::analytics

#endif  // DCBENCH_ANALYTICS_PAGERANK_H_
