/**
 * @file
 * Futility ranking tests: exact LRU / LFU / OPT / random orderings,
 * normalized futility, worst-line queries, relocation and retag.
 */

#include <gtest/gtest.h>

#include "cache/tag_store.hh"
#include "common/random.hh"
#include "ranking/coarse_ts_lru_ranking.hh"
#include "ranking/exact_lru_ranking.hh"
#include "ranking/lfu_ranking.hh"
#include "ranking/opt_ranking.hh"
#include "ranking/random_ranking.hh"
#include "ranking/ranking_factory.hh"

namespace fscache
{
namespace
{

TEST(ExactLru, OrderFollowsRecency)
{
    ExactLruRanking r(8);
    r.onInstall(0, 0, kNeverUsed);
    r.onInstall(1, 0, kNeverUsed);
    r.onInstall(2, 0, kNeverUsed);
    // Line 0 is oldest => least useful.
    EXPECT_EQ(r.worstIn(0), 0u);
    EXPECT_DOUBLE_EQ(r.exactFutility(0), 1.0);
    EXPECT_NEAR(r.exactFutility(2), 1.0 / 3.0, 1e-12);

    r.onHit(0, kNeverUsed); // 0 becomes MRU
    EXPECT_EQ(r.worstIn(0), 1u);
    EXPECT_NEAR(r.exactFutility(0), 1.0 / 3.0, 1e-12);
}

TEST(ExactLru, EvictRemovesFromOrder)
{
    ExactLruRanking r(4);
    r.onInstall(0, 0, kNeverUsed);
    r.onInstall(1, 0, kNeverUsed);
    r.onEvict(0);
    EXPECT_EQ(r.partLines(0), 1u);
    EXPECT_EQ(r.worstIn(0), 1u);
    EXPECT_DOUBLE_EQ(r.exactFutility(1), 1.0);
}

TEST(ExactLru, PartitionsAreIndependent)
{
    ExactLruRanking r(8);
    r.onInstall(0, 0, kNeverUsed);
    r.onInstall(1, 1, kNeverUsed);
    r.onInstall(2, 0, kNeverUsed);
    EXPECT_EQ(r.partLines(0), 2u);
    EXPECT_EQ(r.partLines(1), 1u);
    EXPECT_EQ(r.worstIn(0), 0u);
    EXPECT_EQ(r.worstIn(1), 1u);
    EXPECT_DOUBLE_EQ(r.exactFutility(1), 1.0); // alone => rank 1/1
    EXPECT_EQ(r.partOf(2), 0);
}

TEST(ExactLru, WorstInEmptyPartition)
{
    ExactLruRanking r(4);
    EXPECT_EQ(r.worstIn(3), kInvalidLine);
    EXPECT_EQ(r.partLines(3), 0u);
}

TEST(ExactLru, RelocationPreservesOrder)
{
    ExactLruRanking r(8);
    r.onInstall(0, 0, kNeverUsed);
    r.onInstall(1, 0, kNeverUsed);
    r.onRelocate(0, 5); // oldest line moves to slot 5
    EXPECT_EQ(r.worstIn(0), 5u);
    EXPECT_DOUBLE_EQ(r.exactFutility(5), 1.0);
    EXPECT_EQ(r.partOf(5), 0);
}

TEST(ExactLru, RetagMovesBetweenPartitions)
{
    ExactLruRanking r(8);
    r.onInstall(0, 0, kNeverUsed);
    r.onInstall(1, 0, kNeverUsed);
    r.onRetag(0, 2);
    EXPECT_EQ(r.partLines(0), 1u);
    EXPECT_EQ(r.partLines(2), 1u);
    EXPECT_EQ(r.partOf(0), 2);
    EXPECT_DOUBLE_EQ(r.exactFutility(0), 1.0);
}

TEST(Opt, FarthestNextUseIsMostFutile)
{
    OptRanking r(8);
    r.onInstall(0, 0, 100);
    r.onInstall(1, 0, 50);
    r.onInstall(2, 0, 500);
    EXPECT_EQ(r.worstIn(0), 2u);
    EXPECT_DOUBLE_EQ(r.exactFutility(2), 1.0);
    EXPECT_NEAR(r.exactFutility(1), 1.0 / 3.0, 1e-12);
}

TEST(Opt, NeverUsedRanksWorst)
{
    OptRanking r(8);
    r.onInstall(0, 0, kNeverUsed);
    r.onInstall(1, 0, 1000000);
    EXPECT_EQ(r.worstIn(0), 0u);
}

TEST(Opt, HitUpdatesNextUse)
{
    OptRanking r(8);
    r.onInstall(0, 0, 100);
    r.onInstall(1, 0, 200);
    r.onHit(0, 900); // line 0 now reused farther away than line 1
    EXPECT_EQ(r.worstIn(0), 0u);
}

TEST(Opt, TwoNeverUsedLinesCoexist)
{
    OptRanking r(8);
    r.onInstall(0, 0, kNeverUsed);
    r.onInstall(1, 0, kNeverUsed);
    EXPECT_EQ(r.partLines(0), 2u);
    // Tie broken by line id; both must be valid queries.
    EXPECT_GT(r.exactFutility(0), 0.0);
    EXPECT_GT(r.exactFutility(1), 0.0);
}

TEST(Lfu, FrequencyDominates)
{
    LfuRanking r(8);
    r.onInstall(0, 0, kNeverUsed);
    r.onInstall(1, 0, kNeverUsed);
    r.onHit(0, kNeverUsed);
    r.onHit(0, kNeverUsed);
    // Line 1 has freq 1 < line 0 freq 3.
    EXPECT_EQ(r.worstIn(0), 1u);
    EXPECT_EQ(r.frequency(0), 3u);
    r.onHit(1, kNeverUsed);
    r.onHit(1, kNeverUsed);
    r.onHit(1, kNeverUsed);
    EXPECT_EQ(r.worstIn(0), 0u); // now line 0 (freq 3) < line 1 (4)
}

TEST(Lfu, RecencyBreaksTies)
{
    LfuRanking r(8);
    r.onInstall(0, 0, kNeverUsed);
    r.onInstall(1, 0, kNeverUsed);
    // Equal frequency; line 0 is older => less useful.
    EXPECT_EQ(r.worstIn(0), 0u);
}

TEST(RandomRanking, FreshDrawPerQuery)
{
    // A fresh uniform per query makes argmax selection a uniformly
    // random victim (the worst-case baseline); stable per-residence
    // values would bias evictions toward young lines.
    RandomRanking r(8, Rng(3));
    r.onInstall(0, 0, kNeverUsed);
    double f1 = r.schemeFutility(0);
    double f2 = r.schemeFutility(0);
    EXPECT_NE(f1, f2);
    EXPECT_GE(f1, 0.0);
    EXPECT_LT(f1, 1.0);
    // Exact futility still reflects LRU order.
    EXPECT_DOUBLE_EQ(r.exactFutility(0), 1.0);
}

TEST(RandomRanking, DeferredReKeysCollapseToSerialOrder)
{
    // Random's exact order is recency: one class of
    // ranking/class_ranking_base.hh.
    // A long hit run — with re-hits of the same lines — must leave
    // exactly the exact-LRU state of a twin that is queried after
    // every hit.
    RandomRanking rank(128, Rng(5));
    RandomRanking twin(128, Rng(5));
    for (LineId i = 0; i < 100; ++i) {
        rank.onInstall(i, 0, kNeverUsed);
        twin.onInstall(i, 0, kNeverUsed);
    }
    LineId id = 17;
    for (int i = 0; i < 300; ++i) {
        id = (id * 31 + 7) % 100; // includes repeats
        rank.onHit(id, kNeverUsed);
        twin.onHit(id, kNeverUsed);
        (void)twin.exactFutility(id); // forces an immediate flush
    }
    EXPECT_EQ(rank.worstIn(0), twin.worstIn(0));
    for (LineId i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(rank.exactFutility(i), twin.exactFutility(i))
            << "line " << i;
}

TEST(RankingFactory, BuildsAllKinds)
{
    TagStore tags(16);
    for (RankKind kind : {RankKind::ExactLru, RankKind::CoarseTsLru,
                          RankKind::Lfu, RankKind::Opt,
                          RankKind::Random}) {
        auto r = makeRanking(kind, 16, &tags, 1);
        ASSERT_NE(r, nullptr);
        r->onInstall(0, 0, 10);
        EXPECT_EQ(r->worstIn(0), 0u);
        EXPECT_FALSE(r->name().empty());
    }
    EXPECT_EQ(parseRankKind("opt"), RankKind::Opt);
    EXPECT_EQ(parseRankKind("coarse"), RankKind::CoarseTsLru);
}

TEST(ExactLru, FutilityIsNormalizedRank)
{
    ExactLruRanking r(64);
    for (LineId i = 0; i < 10; ++i)
        r.onInstall(i, 0, kNeverUsed);
    // Oldest first: line i has futility (10 - i) / 10.
    for (LineId i = 0; i < 10; ++i)
        EXPECT_NEAR(r.exactFutility(i), (10.0 - i) / 10.0, 1e-12);
}

} // namespace
} // namespace fscache
