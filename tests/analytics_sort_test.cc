/** @file Tests for the narrated external merge sort. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analytics/external_sort.h"
#include "test_support.h"
#include "util/rng.h"

namespace dcb::analytics {
namespace {

std::vector<SortRecord>
random_records(std::size_t n, std::uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<SortRecord> records(n);
    for (auto& r : records) {
        r.key = rng.next_u64();
        r.payload = rng.next_u64();
    }
    return records;
}

bool
keys_sorted(const SimVec<SortRecord>::Storage& v, std::size_t n)
{
    for (std::size_t i = 1; i < n; ++i)
        if (v[i - 1].key > v[i].key)
            return false;
    return true;
}

TEST(ExternalSort, SortsRandomInput)
{
    test::KernelEnv env;
    ExternalSort sorter(env.ctx, env.space, 4096, 512);
    const auto input = random_records(3000, 1);
    const SortResult r = sorter.sort(input);
    EXPECT_TRUE(keys_sorted(sorter.sorted(), 3000));
    EXPECT_EQ(r.runs, (3000 + 511) / 512u);
    EXPECT_GT(r.comparisons, 0u);
}

TEST(ExternalSort, PreservesMultiset)
{
    test::KernelEnv env;
    ExternalSort sorter(env.ctx, env.space, 1024, 128);
    auto input = random_records(1000, 2);
    sorter.sort(input);
    std::vector<std::uint64_t> in_keys;
    std::vector<std::uint64_t> out_keys;
    for (std::size_t i = 0; i < input.size(); ++i) {
        in_keys.push_back(input[i].key);
        out_keys.push_back(sorter.sorted()[i].key);
    }
    std::sort(in_keys.begin(), in_keys.end());
    std::sort(out_keys.begin(), out_keys.end());
    EXPECT_EQ(in_keys, out_keys);
}

TEST(ExternalSort, PayloadTravelsWithKey)
{
    test::KernelEnv env;
    ExternalSort sorter(env.ctx, env.space, 256, 64);
    std::vector<SortRecord> input;
    for (std::uint64_t i = 0; i < 200; ++i)
        input.push_back({200 - i, 1000 + (200 - i)});
    sorter.sort(input);
    for (std::size_t i = 0; i < 200; ++i)
        EXPECT_EQ(sorter.sorted()[i].payload, sorter.sorted()[i].key + 1000);
}

TEST(ExternalSort, HandlesTinyInputs)
{
    test::KernelEnv env;
    ExternalSort sorter(env.ctx, env.space, 16, 4);
    EXPECT_EQ(sorter.sort({}).runs, 0u);
    const SortResult one = sorter.sort({{5, 0}});
    EXPECT_EQ(one.runs, 1u);
    EXPECT_EQ(sorter.sorted()[0].key, 5u);
    sorter.sort({{9, 0}, {1, 0}});
    EXPECT_TRUE(keys_sorted(sorter.sorted(), 2));
}

TEST(ExternalSort, AlreadySortedAndReversed)
{
    test::KernelEnv env;
    ExternalSort sorter(env.ctx, env.space, 512, 64);
    std::vector<SortRecord> asc;
    std::vector<SortRecord> desc;
    for (std::uint64_t i = 0; i < 500; ++i) {
        asc.push_back({i, i});
        desc.push_back({500 - i, i});
    }
    sorter.sort(asc);
    EXPECT_TRUE(keys_sorted(sorter.sorted(), 500));
    sorter.sort(desc);
    EXPECT_TRUE(keys_sorted(sorter.sorted(), 500));
}

TEST(ExternalSort, DuplicateKeys)
{
    test::KernelEnv env;
    ExternalSort sorter(env.ctx, env.space, 512, 64);
    util::Rng rng(3);
    std::vector<SortRecord> input;
    for (int i = 0; i < 400; ++i)
        input.push_back({rng.next_below(5), static_cast<std::uint64_t>(i)});
    sorter.sort(input);
    EXPECT_TRUE(keys_sorted(sorter.sorted(), 400));
}

TEST(ExternalSort, ComparisonCountIsNLogNish)
{
    test::KernelEnv env;
    const std::size_t n = 4096;
    ExternalSort sorter(env.ctx, env.space, n, 256);
    const SortResult r = sorter.sort(random_records(n, 4));
    const double n_log_n = n * std::log2(static_cast<double>(n));
    EXPECT_LT(static_cast<double>(r.comparisons), n_log_n * 1.05);
    EXPECT_GT(static_cast<double>(r.comparisons), n_log_n * 0.5);
    EXPECT_EQ(r.moves, n * 12);  // n moves per pass, log2(n) passes
}

TEST(ExternalSort, NarratesWork)
{
    test::KernelEnv env;
    ExternalSort sorter(env.ctx, env.space, 1024, 128);
    const std::uint64_t before = env.sink.ops;
    sorter.sort(random_records(1024, 5));
    // At least a handful of ops per record per pass.
    EXPECT_GT(env.sink.ops - before, 1024u * 10 * 3);
}

/** Property sweep over sizes incl. non-powers of two. */
class SortSizes : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SortSizes, SortsCorrectly)
{
    const std::size_t n = GetParam();
    test::KernelEnv env;
    ExternalSort sorter(env.ctx, env.space, n + 1, 100);
    sorter.sort(random_records(n, 100 + n));
    EXPECT_TRUE(keys_sorted(sorter.sorted(), n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SortSizes,
                         ::testing::Values(3, 7, 100, 255, 256, 257, 999,
                                           2048));

}  // namespace
}  // namespace dcb::analytics
