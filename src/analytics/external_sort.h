#ifndef DCBENCH_ANALYTICS_EXTERNAL_SORT_H_
#define DCBENCH_ANALYTICS_EXTERNAL_SORT_H_

/**
 * @file
 * Sort kernel (workload #1, "Hadoop example").
 *
 * Mirrors the structure of Hadoop's Sort: records are sorted in
 * memory-sized runs (narrated bottom-up merge sort -- comparisons and
 * moves only, the paper's "simple computing logic, only comparing"), and
 * runs are then combined by a narrated k-way merge. I/O (run spills and
 * re-reads) is charged by the caller through the OS model, which is what
 * gives Sort its distinctive ~24% kernel-instruction share and top disk
 * write rate (Figures 4 and 5).
 */

#include <cstdint>
#include <vector>

#include "analytics/simdata.h"
#include "trace/exec_ctx.h"

namespace dcb::analytics {

/** A sortable record: 8-byte key, 8-byte payload handle. */
struct SortRecord
{
    std::uint64_t key = 0;
    std::uint64_t payload = 0;
};

/** Result of a sort run. */
struct SortResult
{
    std::uint64_t comparisons = 0;
    std::uint64_t moves = 0;
    std::uint64_t runs = 0;
};

/** Narrated external merge sort over simulated memory. */
class ExternalSort
{
  public:
    /**
     * @param ctx        Execution context to narrate into.
     * @param space      Address space for the record buffers.
     * @param run_records In-memory run size (records per spill).
     */
    ExternalSort(trace::ExecCtx& ctx, mem::AddressSpace& space,
                 std::size_t capacity, std::size_t run_records);

    /**
     * Sort `records` (copied in). After return, sorted() holds the
     * keys in nondecreasing order.
     */
    SortResult sort(const std::vector<SortRecord>& records);

    const SimVec<SortRecord>::Storage& sorted() const
    {
        return out_->host();
    }

  private:
    void merge_pass(SimVec<SortRecord>& src, SimVec<SortRecord>& dst,
                    std::size_t width, std::size_t n, SortResult& r);

    trace::ExecCtx& ctx_;
    std::size_t run_records_;
    SimVec<SortRecord> buf_a_;
    SimVec<SortRecord> buf_b_;
    SimVec<SortRecord>* out_ = nullptr;
};

}  // namespace dcb::analytics

#endif  // DCBENCH_ANALYTICS_EXTERNAL_SORT_H_
