/** @file Unit and property tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include <bit>
#include <deque>
#include <map>
#include <tuple>
#include <vector>

#include "mem/cache.h"
#include "util/rng.h"

namespace dcb::mem {
namespace {

CacheGeometry
geometry(std::uint64_t size, std::uint32_t ways, std::uint32_t line = 64)
{
    return CacheGeometry{size, ways, line};
}

TEST(Cache, ColdMissThenHit)
{
    SetAssocCache cache(geometry(1024, 2), Replacement::kLru);
    EXPECT_FALSE(cache.access(0x100));
    EXPECT_TRUE(cache.access(0x100));
    EXPECT_TRUE(cache.access(0x13F));  // same 64-byte line
    EXPECT_FALSE(cache.access(0x140));  // next line
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(Cache, LruEvictsOldest)
{
    // 2-way, 64B lines, 2 sets -> set stride is 128 bytes.
    SetAssocCache cache(geometry(256, 2), Replacement::kLru);
    const std::uint64_t a = 0x0000;
    const std::uint64_t b = 0x0100;  // same set as a
    const std::uint64_t c = 0x0200;  // same set again
    cache.access(a);
    cache.access(b);
    cache.access(a);        // a is now MRU
    cache.access(c);        // evicts b
    EXPECT_TRUE(cache.probe(a));
    EXPECT_FALSE(cache.probe(b));
    EXPECT_TRUE(cache.probe(c));
}

TEST(Cache, ProbeDoesNotDisturbState)
{
    SetAssocCache cache(geometry(256, 2), Replacement::kLru);
    EXPECT_FALSE(cache.probe(0x40));
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_FALSE(cache.access(0x40));
    EXPECT_TRUE(cache.probe(0x40));
}

TEST(Cache, FillDoesNotCount)
{
    SetAssocCache cache(geometry(256, 2), Replacement::kLru);
    cache.fill(0x40);
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_TRUE(cache.access(0x40));  // prefetched line hits
}

TEST(Cache, InvalidateAndFlush)
{
    SetAssocCache cache(geometry(256, 2), Replacement::kLru);
    cache.access(0x40);
    cache.invalidate(0x40);
    EXPECT_FALSE(cache.probe(0x40));
    cache.access(0x40);
    cache.access(0x80);
    cache.flush();
    EXPECT_FALSE(cache.probe(0x40));
    EXPECT_FALSE(cache.probe(0x80));
    // Counters survive a flush.
    EXPECT_GT(cache.accesses(), 0u);
}

TEST(Cache, MissRatioAndReset)
{
    SetAssocCache cache(geometry(1024, 4), Replacement::kLru);
    cache.access(0x0);
    cache.access(0x0);
    EXPECT_NEAR(cache.miss_ratio(), 0.5, 1e-12);
    cache.reset_counters();
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_TRUE(cache.access(0x0));  // contents kept
}

TEST(Cache, NonPowerOfTwoSetCount)
{
    // 12288 sets like the E5645 L3: 12 MB, 16-way.
    SetAssocCache cache(geometry(12 * 1024 * 1024, 16), Replacement::kLru);
    for (std::uint64_t i = 0; i < 1000; ++i)
        cache.access(i * 64);
    for (std::uint64_t i = 0; i < 1000; ++i)
        EXPECT_TRUE(cache.probe(i * 64)) << i;
}

TEST(Cache, WorkingSetLargerThanCacheThrashes)
{
    SetAssocCache cache(geometry(4096, 4), Replacement::kLru);
    // Two full passes over 4x the capacity: second pass still misses.
    for (int pass = 0; pass < 2; ++pass)
        for (std::uint64_t a = 0; a < 4 * 4096; a += 64)
            cache.access(a);
    EXPECT_GT(cache.miss_ratio(), 0.95);
}

TEST(Cache, WorkingSetSmallerThanCacheHits)
{
    SetAssocCache cache(geometry(8192, 4), Replacement::kLru);
    for (int pass = 0; pass < 10; ++pass)
        for (std::uint64_t a = 0; a < 4096; a += 64)
            cache.access(a);
    // Only the first pass misses.
    EXPECT_LT(cache.miss_ratio(), 0.11);
}

TEST(Cache, RandomReplacementStillCaches)
{
    SetAssocCache cache(geometry(4096, 4), Replacement::kRandom);
    for (int pass = 0; pass < 4; ++pass)
        for (std::uint64_t a = 0; a < 2048; a += 64)
            cache.access(a);
    EXPECT_LT(cache.miss_ratio(), 0.3);
}

/**
 * Reference LRU model: per-set deque of tags, front = MRU. Used to
 * verify the cache against an independently written implementation over
 * random traces and geometries.
 */
class ReferenceLru
{
  public:
    ReferenceLru(std::uint64_t sets, std::uint32_t ways,
                 std::uint32_t line_shift)
        : sets_(sets), ways_(ways), line_shift_(line_shift),
          state_(sets)
    {
    }

    bool
    access(std::uint64_t addr)
    {
        const std::uint64_t line = addr >> line_shift_;
        const std::uint64_t set = line % sets_;
        const std::uint64_t tag = line / sets_;
        auto& q = state_[set];
        for (auto it = q.begin(); it != q.end(); ++it) {
            if (*it == tag) {
                q.erase(it);
                q.push_front(tag);
                return true;
            }
        }
        q.push_front(tag);
        if (q.size() > ways_)
            q.pop_back();
        return false;
    }

  private:
    std::uint64_t sets_;
    std::uint32_t ways_;
    std::uint32_t line_shift_;
    std::vector<std::deque<std::uint64_t>> state_;
};

/** (size, ways) sweep for the property test. */
class CacheVsReference
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 std::uint32_t>>
{
};

TEST_P(CacheVsReference, AgreesOnRandomTrace)
{
    const auto [size, ways] = GetParam();
    const CacheGeometry g = geometry(size, ways);
    SetAssocCache cache(g, Replacement::kLru);
    ReferenceLru ref(g.num_sets(), ways, 6);
    util::Rng rng(size * 31 + ways);
    for (int i = 0; i < 20'000; ++i) {
        // Mix of random and sequential addresses in a 4x working set.
        std::uint64_t addr;
        if (rng.next_bool(0.5))
            addr = rng.next_below(size * 4);
        else
            addr = (static_cast<std::uint64_t>(i) * 64) % (size * 2);
        EXPECT_EQ(cache.access(addr), ref.access(addr)) << "op " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheVsReference,
    ::testing::Values(std::make_tuple(1024ULL, 1u),
                      std::make_tuple(4096ULL, 2u),
                      std::make_tuple(8192ULL, 4u),
                      std::make_tuple(32768ULL, 8u),
                      std::make_tuple(12288ULL * 64, 16u)));  // non-pow2 sets

/**
 * The array-of-structs cache the struct-of-arrays rows replaced, kept
 * verbatim (modulo indexing by `%` and `/`) as the reference model: an
 * explicit valid bit per way, victim = first invalid way else the
 * smallest stamp, random replacement drawing only when every way is
 * valid, and fill_if_absent() as the probe-then-fill pair the hierarchy
 * used to issue.
 */
class AosReferenceCache
{
  public:
    AosReferenceCache(const CacheGeometry& g, Replacement policy,
                      std::uint64_t rng_seed)
        : ways_(g.ways), policy_(policy),
          line_shift_(static_cast<std::uint32_t>(
              std::countr_zero(g.line_bytes))),
          num_sets_(g.num_sets()), lines_(g.num_lines()), rng_(rng_seed)
    {
    }

    bool access(std::uint64_t addr)
    {
        ++stamp_;
        const std::uint64_t line_addr = addr >> line_shift_;
        const std::uint64_t set = line_addr % num_sets_;
        const std::uint64_t tag = line_addr / num_sets_;
        if (Line* line = find_line(set, tag)) {
            line->lru = stamp_;
            ++hits_;
            return true;
        }
        ++misses_;
        Line* victim = pick_victim(set);
        victim->valid = true;
        victim->tag = tag;
        victim->lru = stamp_;
        return false;
    }

    bool probe(std::uint64_t addr) { return find(addr) != nullptr; }

    bool fill(std::uint64_t addr)
    {
        ++stamp_;
        const std::uint64_t line_addr = addr >> line_shift_;
        const std::uint64_t set = line_addr % num_sets_;
        const std::uint64_t tag = line_addr / num_sets_;
        if (Line* line = find_line(set, tag)) {
            line->lru = stamp_;
            return true;
        }
        Line* base = &lines_[set * ways_];
        Line* victim = base;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
            if (base[w].lru < victim->lru)
                victim = &base[w];
        }
        victim->valid = true;
        victim->tag = tag;
        victim->lru = stamp_;
        return false;
    }

    bool fill_if_absent(std::uint64_t addr)
    {
        if (probe(addr))
            return false;
        fill(addr);
        return true;
    }

    void invalidate(std::uint64_t addr)
    {
        if (Line* line = find(addr))
            line->valid = false;
    }

    void flush()
    {
        for (Line& line : lines_)
            line.valid = false;
        stamp_ = 0;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    Line* find(std::uint64_t addr)
    {
        const std::uint64_t line_addr = addr >> line_shift_;
        return find_line(line_addr % num_sets_, line_addr / num_sets_);
    }

    Line* find_line(std::uint64_t set, std::uint64_t tag)
    {
        Line* base = &lines_[set * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w)
            if (base[w].valid && base[w].tag == tag)
                return &base[w];
        return nullptr;
    }

    Line* pick_victim(std::uint64_t set)
    {
        Line* base = &lines_[set * ways_];
        Line* victim = base;
        if (policy_ == Replacement::kRandom) {
            for (std::uint32_t w = 0; w < ways_; ++w)
                if (!base[w].valid)
                    return &base[w];
            return &base[rng_.next_below(ways_)];
        }
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (!base[w].valid)
                return &base[w];
            if (base[w].lru < victim->lru)
                victim = &base[w];
        }
        return victim;
    }

    std::uint32_t ways_;
    Replacement policy_;
    std::uint32_t line_shift_;
    std::uint64_t num_sets_;
    std::vector<Line> lines_;
    std::uint64_t stamp_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    util::Rng rng_;
};

/**
 * Seeded mixes of access, probe, fill, fill_if_absent, invalidate and
 * flush against the reference model, under LRU and random replacement,
 * on power-of-two geometries and the 12288-set L3. Every result must
 * agree, and after every op so must the residency of the whole address
 * pool, which pins every victim choice.
 */
TEST(Cache, MatchesReferenceModelForAnyOpMix)
{
    struct Case
    {
        CacheGeometry g;
        Replacement policy;
    };
    const std::vector<Case> cases = {
        {geometry(1024, 1), Replacement::kLru},
        {geometry(4096, 4), Replacement::kLru},
        {geometry(32768, 8), Replacement::kLru},
        {geometry(32768, 8), Replacement::kRandom},
        {geometry(256 * 4096, 4, 4096), Replacement::kLru},  // a TLB
        {geometry(12288 * 64 * 16, 16), Replacement::kLru},  // Table III L3
        {geometry(12288 * 64 * 2, 2), Replacement::kRandom},
    };
    for (std::size_t c = 0; c < cases.size(); ++c) {
        const CacheGeometry& g = cases[c].g;
        SetAssocCache cache(g, cases[c].policy, 7 + c);
        AosReferenceCache ref(g, cases[c].policy, 7 + c);
        util::Rng rng(0xCAC4E + c);
        // A pool of lines over a few sets, three times what they hold,
        // plus far addresses (large tags) in the same sets.
        const std::uint64_t sets = g.num_sets();
        const std::uint32_t hot_sets = 5;
        std::vector<std::uint64_t> pool;
        for (std::uint64_t k = 0; k < 3ull * hot_sets * g.ways; ++k) {
            const std::uint64_t set = rng.next_below(hot_sets) * 97 % sets;
            const std::uint64_t tag = rng.next_bool(0.8)
                                          ? rng.next_below(4 * g.ways)
                                          : (rng.next_u64() >> 20);
            pool.push_back((tag * sets + set) * g.line_bytes +
                           rng.next_below(g.line_bytes));
        }
        for (int i = 0; i < 20'000; ++i) {
            const std::uint64_t addr = pool[rng.next_below(pool.size())];
            const std::uint64_t roll = rng.next_below(1000);
            if (roll < 600) {
                ASSERT_EQ(cache.access(addr), ref.access(addr))
                    << "case " << c << " op " << i;
            } else if (roll < 700) {
                ASSERT_EQ(cache.probe(addr), ref.probe(addr));
            } else if (roll < 820) {
                ASSERT_EQ(cache.fill(addr), ref.fill(addr));
            } else if (roll < 940) {
                ASSERT_EQ(cache.fill_if_absent(addr),
                          ref.fill_if_absent(addr));
            } else if (roll < 999) {
                cache.invalidate(addr);
                ref.invalidate(addr);
            } else {
                cache.flush();
                ref.flush();
            }
            for (const std::uint64_t a : pool)
                ASSERT_EQ(cache.probe(a), ref.probe(a))
                    << "case " << c << " op " << i << " addr " << a;
        }
        EXPECT_EQ(cache.hits(), ref.hits());
        EXPECT_EQ(cache.misses(), ref.misses());
        EXPECT_GT(cache.hits(), 500u);
        EXPECT_GT(cache.misses(), 500u);
    }
}

/**
 * The Table III L3 indexes 12288 sets through FastDiv instead of `%`;
 * this pins the indexing to modulo semantics behaviorally. In a
 * direct-mapped 12288-set cache, two addresses conflict (second access
 * evicts the first) exactly when their line addresses are congruent
 * mod 12288 -- including line addresses far above 2^32, where a broken
 * reciprocal would first diverge.
 */
TEST(Cache, NonPow2SetIndexMatchesModuloSemantics)
{
    constexpr std::uint64_t kSets = 12288;
    constexpr std::uint64_t kLine = 64;
    SetAssocCache cache(geometry(kSets * kLine, 1), Replacement::kLru);

    util::Rng rng(2026);
    for (int trial = 0; trial < 200; ++trial) {
        const std::uint64_t line_a = rng.next_u64() >> 8;
        const std::uint64_t addr_a = line_a * kLine;
        // Same set, different tag: must evict.
        const std::uint64_t addr_conflict = (line_a + kSets) * kLine;
        // Different set: must coexist.
        const std::uint64_t addr_neighbor = (line_a + 1) * kLine;

        cache.flush();
        EXPECT_FALSE(cache.access(addr_a));
        EXPECT_FALSE(cache.access(addr_conflict));
        EXPECT_FALSE(cache.access(addr_a)) << "line " << line_a;

        cache.flush();
        EXPECT_FALSE(cache.access(addr_a));
        EXPECT_FALSE(cache.access(addr_neighbor));
        EXPECT_TRUE(cache.access(addr_a)) << "line " << line_a;
    }
}

}  // namespace
}  // namespace dcb::mem
