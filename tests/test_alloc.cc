/**
 * @file
 * Allocation policy tests: equal/proportional shares and QoS targets.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "alloc/qos_alloc.hh"
#include "alloc/static_alloc.hh"

namespace fscache
{
namespace
{

TEST(StaticAlloc, EqualShareExact)
{
    Allocation a = equalShare(100, 3);
    EXPECT_EQ(a.size(), 3u);
    EXPECT_EQ(std::accumulate(a.begin(), a.end(), 0u), 100u);
    EXPECT_EQ(a[0], 34u);
    EXPECT_EQ(a[1], 33u);
    EXPECT_EQ(a[2], 33u);
}

TEST(StaticAlloc, ProportionalShareExactSum)
{
    Allocation a = proportionalShare(1000, {1.0, 2.0, 7.0});
    EXPECT_EQ(std::accumulate(a.begin(), a.end(), 0u), 1000u);
    EXPECT_EQ(a[0], 100u);
    EXPECT_EQ(a[1], 200u);
    EXPECT_EQ(a[2], 700u);
}

TEST(StaticAlloc, ProportionalRounding)
{
    Allocation a = proportionalShare(10, {1.0, 1.0, 1.0});
    EXPECT_EQ(std::accumulate(a.begin(), a.end(), 0u), 10u);
    for (auto v : a)
        EXPECT_GE(v, 3u);
}

TEST(QosAlloc, PaperConfiguration)
{
    // 8MB / 64B = 131072 lines; 4 subjects at 4096 lines each;
    // 28 background threads split the rest.
    Allocation a = qosAllocation(131072, 32, 4, 4096);
    EXPECT_EQ(a.size(), 32u);
    for (std::uint32_t p = 0; p < 4; ++p)
        EXPECT_EQ(a[p], 4096u);
    std::uint64_t rest = 131072 - 4 * 4096;
    std::uint64_t sum = 0;
    for (std::uint32_t p = 4; p < 32; ++p) {
        EXPECT_NEAR(a[p], rest / 28.0, 1.0);
        sum += a[p];
    }
    EXPECT_EQ(sum, rest);
}

TEST(QosAlloc, AllSubjects)
{
    Allocation a = qosAllocation(131072, 32, 32, 4096);
    for (auto v : a)
        EXPECT_EQ(v, 4096u);
}

TEST(QosAlloc, NoSubjects)
{
    Allocation a = qosAllocation(1000, 4, 0, 0);
    EXPECT_EQ(std::accumulate(a.begin(), a.end(), 0u), 1000u);
}

} // namespace
} // namespace fscache
