#ifndef DCBENCH_MEM_CACHE_H_
#define DCBENCH_MEM_CACHE_H_

/**
 * @file
 * A single level of set-associative cache with selectable replacement.
 *
 * The simulator tracks tags only (no data): the paper's counter metrics
 * depend on hit/miss behaviour, not on values. Accesses are by full
 * byte address; the cache extracts set index and tag from the line-aligned
 * address.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/config.h"
#include "util/fastdiv.h"
#include "util/rng.h"

namespace dcb::mem {

/** Replacement policy for SetAssocCache. */
enum class Replacement { kLru, kRandom };

/** Tag-only set-associative cache model. */
class SetAssocCache
{
  public:
    SetAssocCache(const CacheGeometry& geometry, Replacement policy,
                  std::uint64_t rng_seed = 1);

    /**
     * Look up an address, filling the line on miss.
     * @return true on hit.
     *
     * Consecutive accesses to the same line (sequential instruction
     * fetch, page-granular TLB lookups) take an inline fast path that
     * replays exactly the hit-path state updates without the set walk.
     */
    bool access(std::uint64_t addr)
    {
        const std::uint64_t line_addr = addr >> line_shift_;
        if (line_addr == memo_line_addr_) {
            // The memoized line was the last one touched, so it is still
            // resident: only fill/invalidate/flush (which drop the memo)
            // or a demand eviction (which rewrites it) can displace it.
            ++stamp_;
            ++hits_;
            stamps_[memo_way_] = stamp_;
            return true;
        }
        return access_slow(line_addr);
    }

    /** Look up without filling or updating recency (probe only). */
    bool probe(std::uint64_t addr) const;

    /**
     * Insert a line without touching the demand hit/miss counters
     * (prefetch fill). An already-present line only has its recency
     * refreshed.
     * @return true when the line was already present.
     */
    bool fill(std::uint64_t addr);

    /**
     * probe() and fill() in one set walk: install the line when absent;
     * a present line keeps its recency, as after a bare probe.
     * @return true when the line was installed.
     */
    bool fill_if_absent(std::uint64_t addr);

    /** Invalidate a single line if present. */
    void invalidate(std::uint64_t addr);

    /** Drop all contents and reset recency (counters are kept). */
    void flush();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t accesses() const { return hits_ + misses_; }
    /** Miss ratio in [0,1]; 0 when never accessed. */
    double miss_ratio() const;

    /** Zero the hit/miss counters (contents are kept). */
    void reset_counters();

    const CacheGeometry& geometry() const { return geometry_; }

  private:
    /** Tag of an empty way. Lines are at least 2 bytes, so every real
        tag is below 2^63 and never equals it. */
    static constexpr std::uint64_t kNoTag = ~std::uint64_t{0};
    static constexpr std::size_t kNoWay = ~std::size_t{0};

    std::uint64_t set_index(std::uint64_t line_addr) const;
    std::uint64_t tag_of(std::uint64_t line_addr) const;
    /** Index of (set, tag) in the rows, kNoWay when absent. */
    std::size_t find_way(std::uint64_t set, std::uint64_t tag) const;
    std::size_t find_way(std::uint64_t addr) const;
    /** First empty way of the set, else its least recently used. */
    std::size_t lru_way(std::uint64_t set) const;
    /** Install (set, tag) over lru_way(set) with the current stamp. */
    void install(std::uint64_t set, std::uint64_t tag);
    bool access_slow(std::uint64_t line_addr);

    CacheGeometry geometry_;
    Replacement policy_;
    std::uint32_t line_shift_;
    std::uint32_t ways_;
    std::uint64_t num_sets_;
    /**
     * Power-of-two set counts (every structure of the Table III machine
     * except the 12288-set L3) index with a precomputed shift+mask
     * instead of a 64-bit divide on every access.
     */
    bool pow2_sets_;
    std::uint32_t set_shift_ = 0;  ///< log2(num_sets_) when pow2
    std::uint64_t set_mask_ = 0;   ///< num_sets_ - 1 when pow2
    /** Reciprocal divmod for the non-pow2 fallback (12288-set L3):
        same index/tag as `%` and `/` without the per-access divide. */
    util::FastDiv set_div_;
    /**
     * Struct-of-arrays rows, sets * ways, row-major by set. An empty
     * way holds tag kNoTag and stamp 0; a resident line holds its tag
     * and its last-touch stamp (>= 1, unique within the cache). So a
     * tag match alone finds a line, and the smallest stamp of a set is
     * its first empty way or else its LRU line.
     */
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> stamps_;
    /** Last line touched by access() (kNoTag when disarmed; line
        addresses are below 2^63) and its row index. */
    std::uint64_t memo_line_addr_ = kNoTag;
    std::size_t memo_way_ = 0;
    std::uint64_t stamp_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    util::Rng rng_;
};

}  // namespace dcb::mem

#endif  // DCBENCH_MEM_CACHE_H_
