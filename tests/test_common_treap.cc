/**
 * @file
 * Order-statistic treap tests, including randomized differential
 * tests against a sorted-vector reference model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/order_stat_treap.hh"
#include "common/random.hh"

namespace fscache
{
namespace
{

TEST(Treap, EmptyBasics)
{
    OrderStatTreap<std::uint64_t> t;
    EXPECT_EQ(t.size(), 0u);
    EXPECT_TRUE(t.empty());
    EXPECT_FALSE(t.contains(42));
    EXPECT_EQ(t.countLess(7), 0u);
}

TEST(Treap, SingleElement)
{
    OrderStatTreap<std::uint64_t> t;
    t.insert(5);
    EXPECT_EQ(t.size(), 1u);
    EXPECT_TRUE(t.contains(5));
    EXPECT_EQ(t.minKey(), 5u);
    EXPECT_EQ(t.maxKey(), 5u);
    EXPECT_EQ(t.countLess(5), 0u);
    EXPECT_EQ(t.countLess(6), 1u);
    EXPECT_EQ(t.futilityRank(5), 1u);
    t.erase(5);
    EXPECT_TRUE(t.empty());
}

TEST(Treap, OrderedInsertAndKth)
{
    OrderStatTreap<std::uint64_t> t;
    for (std::uint64_t k = 0; k < 100; ++k)
        t.insert(k * 3);
    EXPECT_EQ(t.size(), 100u);
    for (std::uint32_t k = 0; k < 100; ++k)
        EXPECT_EQ(t.kth(k), k * 3);
    EXPECT_EQ(t.minKey(), 0u);
    EXPECT_EQ(t.maxKey(), 297u);
}

TEST(Treap, CountLessSemantics)
{
    OrderStatTreap<std::uint64_t> t;
    for (std::uint64_t k = 10; k <= 50; k += 10)
        t.insert(k); // 10 20 30 40 50
    EXPECT_EQ(t.countLess(10), 0u);
    EXPECT_EQ(t.countLess(11), 1u);
    EXPECT_EQ(t.countLess(30), 2u);
    EXPECT_EQ(t.countLess(55), 5u);
}

TEST(Treap, FutilityRankMatchesPaperDefinition)
{
    // Most useful (largest key) has rank 1; least useful rank M.
    OrderStatTreap<std::uint64_t> t;
    for (std::uint64_t k = 1; k <= 8; ++k)
        t.insert(k);
    EXPECT_EQ(t.futilityRank(8), 1u);
    EXPECT_EQ(t.futilityRank(1), 8u);
    EXPECT_EQ(t.futilityRank(5), 4u);
}

TEST(Treap, EraseMiddleKeepsOrder)
{
    OrderStatTreap<std::uint64_t> t;
    for (std::uint64_t k = 0; k < 10; ++k)
        t.insert(k);
    t.erase(4);
    t.erase(7);
    EXPECT_EQ(t.size(), 8u);
    EXPECT_FALSE(t.contains(4));
    std::vector<std::uint64_t> expect{0, 1, 2, 3, 5, 6, 8, 9};
    for (std::uint32_t k = 0; k < expect.size(); ++k)
        EXPECT_EQ(t.kth(k), expect[k]);
}

TEST(Treap, NodePoolReuse)
{
    OrderStatTreap<std::uint64_t> t;
    for (int round = 0; round < 50; ++round) {
        for (std::uint64_t k = 0; k < 64; ++k)
            t.insert(k);
        for (std::uint64_t k = 0; k < 64; ++k)
            t.erase(k);
    }
    EXPECT_TRUE(t.empty());
    t.insert(7);
    EXPECT_EQ(t.minKey(), 7u);
}

TEST(Treap, Clear)
{
    OrderStatTreap<std::uint64_t> t;
    for (std::uint64_t k = 0; k < 32; ++k)
        t.insert(k);
    t.clear();
    EXPECT_TRUE(t.empty());
    t.insert(3);
    EXPECT_EQ(t.size(), 1u);
}

TEST(Treap, RandomizedDifferential)
{
    OrderStatTreap<std::uint64_t> t;
    std::set<std::uint64_t> ref;
    Rng rng(12345);

    for (int op = 0; op < 20000; ++op) {
        std::uint64_t key = rng.below(5000);
        if (rng.chance(0.5)) {
            if (ref.insert(key).second)
                t.insert(key);
        } else {
            if (ref.erase(key) > 0)
                t.erase(key);
        }
        if (op % 500 == 0 && !ref.empty()) {
            EXPECT_EQ(t.size(), ref.size());
            EXPECT_EQ(t.minKey(), *ref.begin());
            EXPECT_EQ(t.maxKey(), *ref.rbegin());
            std::uint64_t probe = rng.below(5200);
            auto expect_less = static_cast<std::uint32_t>(
                std::distance(ref.begin(), ref.lower_bound(probe)));
            EXPECT_EQ(t.countLess(probe), expect_less);
        }
    }
    EXPECT_EQ(t.size(), ref.size());
}

TEST(Treap, RandomizedKth)
{
    OrderStatTreap<std::uint64_t> t;
    std::set<std::uint64_t> ref;
    Rng rng(999);
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t key = rng();
        if (ref.insert(key).second)
            t.insert(key);
    }
    std::vector<std::uint64_t> sorted(ref.begin(), ref.end());
    for (std::uint32_t k = 0; k < sorted.size(); k += 37)
        EXPECT_EQ(t.kth(k), sorted[k]);
}

TEST(Treap, ClearRetainsNodePool)
{
    OrderStatTreap<std::uint64_t> t;
    for (std::uint64_t k = 0; k < 256; ++k)
        t.insert(k);
    EXPECT_EQ(t.poolSize(), 256u);

    // clear() must hand every slot back without shrinking the pool:
    // a clear + refill cycle allocates nothing.
    t.clear();
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.poolSize(), 256u);
    for (std::uint64_t k = 0; k < 256; ++k)
        t.insert(1000 + k);
    EXPECT_EQ(t.size(), 256u);
    EXPECT_EQ(t.poolSize(), 256u) << "refill after clear grew the "
                                     "pool";
    EXPECT_EQ(t.minKey(), 1000u);
    EXPECT_EQ(t.maxKey(), 1255u);

    // Repeated cycles stay allocation-stable too.
    for (int round = 0; round < 5; ++round) {
        t.clear();
        for (std::uint64_t k = 0; k < 256; ++k)
            t.insert(k * 7);
        EXPECT_EQ(t.poolSize(), 256u);
    }
}

TEST(Treap, StructKeyWithTieBreak)
{
    struct Key
    {
        std::uint64_t primary;
        std::uint32_t line;
        bool operator<(const Key &o) const
        {
            if (primary != o.primary)
                return primary < o.primary;
            return line < o.line;
        }
        bool operator==(const Key &o) const
        {
            return primary == o.primary && line == o.line;
        }
    };
    OrderStatTreap<Key> t;
    // Same primary, distinct lines — must coexist.
    t.insert({0, 1});
    t.insert({0, 2});
    t.insert({0, 3});
    t.insert({5, 0});
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.minKey().line, 1u);
    EXPECT_EQ(t.maxKey().primary, 5u);
    t.erase({0, 2});
    EXPECT_EQ(t.size(), 3u);
    EXPECT_FALSE(t.contains({0, 2}));
    EXPECT_TRUE(t.contains({0, 3}));
}

} // namespace
} // namespace fscache
