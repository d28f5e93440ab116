#include "mem/cache.h"

#include <algorithm>
#include <bit>

#include "util/assert.h"

namespace dcb::mem {

SetAssocCache::SetAssocCache(const CacheGeometry& geometry,
                             Replacement policy, std::uint64_t rng_seed)
    : geometry_(geometry), policy_(policy),
      line_shift_(std::countr_zero(geometry.line_bytes)),
      ways_(geometry.ways), num_sets_(geometry.num_sets()),
      pow2_sets_(std::has_single_bit(geometry.num_sets())),
      set_div_(geometry.num_sets()),
      tags_(geometry.num_lines(), kNoTag),
      stamps_(geometry.num_lines(), 0), rng_(rng_seed)
{
    DCB_EXPECTS(std::has_single_bit(
        static_cast<std::uint64_t>(geometry.line_bytes)));
    DCB_EXPECTS(geometry.line_bytes >= 2);  // keeps kNoTag unreachable
    DCB_EXPECTS(num_sets_ >= 1);
    if (pow2_sets_) {
        set_shift_ = static_cast<std::uint32_t>(std::countr_zero(num_sets_));
        set_mask_ = num_sets_ - 1;
    }
}

std::uint64_t
SetAssocCache::set_index(std::uint64_t line_addr) const
{
    // Modulo indexing handles non-power-of-two set counts (the E5645's
    // 12 MB L3 has 12288 sets; real hardware hashes the index). For the
    // pow2 sets the mask selects exactly the same bits, so the fast path
    // produces bit-identical placement; the non-pow2 fallback goes
    // through a precomputed-reciprocal divmod (util::FastDiv) instead
    // of a hardware divide, with identical results (util_test asserts
    // equality against `%` exhaustively around the index space).
    return pow2_sets_ ? (line_addr & set_mask_) : set_div_.rem(line_addr);
}

std::uint64_t
SetAssocCache::tag_of(std::uint64_t line_addr) const
{
    return pow2_sets_ ? (line_addr >> set_shift_)
                      : set_div_.quot(line_addr);
}

std::size_t
SetAssocCache::find_way(std::uint64_t set, std::uint64_t tag) const
{
    // A tag is resident in at most one way and empty ways never match,
    // so a select over the whole row needs no early exit.
    const std::size_t base = set * ways_;
    const std::uint64_t* row = tags_.data() + base;
    std::size_t way = kNoWay;
    for (std::uint32_t w = 0; w < ways_; ++w)
        way = row[w] == tag ? base + w : way;
    return way;
}

std::size_t
SetAssocCache::find_way(std::uint64_t addr) const
{
    const std::uint64_t line_addr = addr >> line_shift_;
    return find_way(set_index(line_addr), tag_of(line_addr));
}

std::size_t
SetAssocCache::lru_way(std::uint64_t set) const
{
    // Argmin of the stamps, first index on ties: empty ways hold 0, so
    // this is the first empty way when there is one.
    const std::size_t base = set * ways_;
    const std::uint64_t* row = stamps_.data() + base;
    std::uint32_t best = 0;
    std::uint64_t best_stamp = row[0];
    for (std::uint32_t w = 1; w < ways_; ++w) {
        const bool older = row[w] < best_stamp;
        best = older ? w : best;
        best_stamp = older ? row[w] : best_stamp;
    }
    return base + best;
}

void
SetAssocCache::install(std::uint64_t set, std::uint64_t tag)
{
    const std::size_t way = lru_way(set);
    tags_[way] = tag;
    stamps_[way] = stamp_;
}

bool
SetAssocCache::access_slow(std::uint64_t line_addr)
{
    ++stamp_;
    const std::uint64_t set = set_index(line_addr);
    const std::uint64_t tag = tag_of(line_addr);
    std::size_t way = find_way(set, tag);
    const bool hit = way != kNoWay;
    if (hit) {
        stamps_[way] = stamp_;
        ++hits_;
    } else {
        ++misses_;
        way = lru_way(set);
        if (policy_ == Replacement::kRandom && stamps_[way] != 0) {
            // No empty way: evict at random.
            way = set * ways_ + rng_.next_below(ways_);
        }
        tags_[way] = tag;
        stamps_[way] = stamp_;
    }
    memo_line_addr_ = line_addr;
    memo_way_ = way;
    return hit;
}

bool
SetAssocCache::probe(std::uint64_t addr) const
{
    return find_way(addr) != kNoWay;
}

bool
SetAssocCache::fill(std::uint64_t addr)
{
    memo_line_addr_ = kNoTag;  // the fill may evict the memoized line
    ++stamp_;
    const std::uint64_t line_addr = addr >> line_shift_;
    const std::uint64_t set = set_index(line_addr);
    const std::uint64_t tag = tag_of(line_addr);
    const std::size_t way = find_way(set, tag);
    if (way != kNoWay) {
        stamps_[way] = stamp_;
        return true;
    }
    // Prefetch fills always evict LRU, independent of the demand policy.
    install(set, tag);
    return false;
}

bool
SetAssocCache::fill_if_absent(std::uint64_t addr)
{
    const std::uint64_t line_addr = addr >> line_shift_;
    const std::uint64_t set = set_index(line_addr);
    const std::uint64_t tag = tag_of(line_addr);
    if (find_way(set, tag) != kNoWay)
        return false;
    memo_line_addr_ = kNoTag;
    ++stamp_;
    install(set, tag);
    return true;
}

void
SetAssocCache::invalidate(std::uint64_t addr)
{
    memo_line_addr_ = kNoTag;
    const std::size_t way = find_way(addr);
    if (way != kNoWay) {
        tags_[way] = kNoTag;
        stamps_[way] = 0;
    }
}

void
SetAssocCache::flush()
{
    memo_line_addr_ = kNoTag;
    std::fill(tags_.begin(), tags_.end(), kNoTag);
    std::fill(stamps_.begin(), stamps_.end(), 0);
    stamp_ = 0;
}

double
SetAssocCache::miss_ratio() const
{
    const std::uint64_t total = hits_ + misses_;
    return total ? static_cast<double>(misses_) / static_cast<double>(total)
                 : 0.0;
}

void
SetAssocCache::reset_counters()
{
    hits_ = 0;
    misses_ = 0;
}

}  // namespace dcb::mem
