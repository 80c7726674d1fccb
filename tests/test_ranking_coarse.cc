/**
 * @file
 * Coarse-grain timestamp LRU tests (paper Section V.A): timestamp
 * advancement every K = size/16 accesses, 8-bit wraparound
 * distances, agreement with exact LRU at coarse granularity.
 */

#include <gtest/gtest.h>

#include "cache/tag_store.hh"
#include "ranking/coarse_ts_lru_ranking.hh"

namespace fscache
{
namespace
{

class CoarseTsFixture : public ::testing::Test
{
  protected:
    CoarseTsFixture() : tags_(256), rank_(256, &tags_) {}

    /** Install line id under part and keep the tag store in sync. */
    void
    install(LineId id, PartId part)
    {
        tags_.install(id, 0x1000 + id, part);
        rank_.onInstall(id, part, kNeverUsed);
    }

    TagStore tags_;
    CoarseTsLruRanking rank_;
};

TEST_F(CoarseTsFixture, FreshLineHasZeroDistance)
{
    install(0, 0);
    // Partition size 1 => K = max(1, 1/16) = 1, so the install
    // itself bumped the clock once: distance is now 1.
    EXPECT_EQ(rank_.tsDistance(0), 1u);
}

TEST_F(CoarseTsFixture, ClockAdvancesEveryKAccesses)
{
    // Fill to 32 lines => K = 2.
    for (LineId i = 0; i < 32; ++i)
        install(i, 0);
    std::uint32_t ts_before = rank_.currentTs(0);
    rank_.onHit(0, kNeverUsed);
    rank_.onHit(1, kNeverUsed);
    EXPECT_EQ(rank_.currentTs(0), (ts_before + 1) & 0xff);
}

TEST_F(CoarseTsFixture, OlderLinesHaveLargerDistance)
{
    for (LineId i = 0; i < 64; ++i)
        install(i, 0); // K = 4 once size reaches 64
    // Touch lines 32..63 again; 0..31 age.
    for (LineId i = 32; i < 64; ++i)
        rank_.onHit(i, kNeverUsed);
    EXPECT_GT(rank_.tsDistance(0), rank_.tsDistance(63));
    EXPECT_GT(rank_.schemeFutility(0), rank_.schemeFutility(63));
}

TEST_F(CoarseTsFixture, SchemeFutilityNormalized)
{
    install(0, 0);
    double f = rank_.schemeFutility(0);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    EXPECT_EQ(rank_.tsMax(), 255u);
}

TEST_F(CoarseTsFixture, WraparoundDistance)
{
    install(0, 0);
    // Advance the partition clock 300 times (size 1 => K = 1).
    for (int i = 0; i < 300; ++i)
        rank_.onHit(0, kNeverUsed);
    // After each hit the line is retagged to current ts; distance
    // stays small despite >256 bumps.
    EXPECT_LE(rank_.tsDistance(0), 1u);
}

TEST_F(CoarseTsFixture, ExactShadowTracksTrueLru)
{
    for (LineId i = 0; i < 8; ++i)
        install(i, 0);
    EXPECT_EQ(rank_.worstIn(0), 0u);
    rank_.onHit(0, kNeverUsed);
    EXPECT_EQ(rank_.worstIn(0), 1u);
    EXPECT_DOUBLE_EQ(rank_.exactFutility(1), 1.0);
}

TEST_F(CoarseTsFixture, PerPartitionClocks)
{
    install(0, 0);
    install(1, 1);
    std::uint32_t ts1 = rank_.currentTs(1);
    // Hammer partition 0 only.
    for (int i = 0; i < 50; ++i)
        rank_.onHit(0, kNeverUsed);
    EXPECT_EQ(rank_.currentTs(1), ts1);
    EXPECT_NE(rank_.currentTs(0), ts1 + 0);
}

TEST_F(CoarseTsFixture, CoarseAgreesWithExactOnOldVsNew)
{
    // With 128 lines and K = 8, a line untouched for a long time
    // must have strictly larger coarse futility than a fresh one.
    for (LineId i = 0; i < 128; ++i)
        install(i, 0);
    for (int round = 0; round < 4; ++round)
        for (LineId i = 64; i < 128; ++i)
            rank_.onHit(i, kNeverUsed);
    double old_fut = rank_.schemeFutility(3);
    double new_fut = rank_.schemeFutility(127);
    EXPECT_GT(old_fut, new_fut);
}

TEST_F(CoarseTsFixture, HitRunsLeaveExactSerialOrder)
{
    // A long hit run — with re-hits of the same lines, enough
    // touches to compact the exact order's stamp axis
    // (ranking/stamp_axis.hh) mid-run — must leave
    // exactly the state of a twin whose order is observed after
    // every hit (queries interleaved with updates must never
    // perturb the order).
    TagStore twin_tags(256);
    CoarseTsLruRanking twin(256, &twin_tags);
    for (LineId i = 0; i < 100; ++i) {
        install(i, 0);
        twin_tags.install(i, 0x1000 + i, 0);
        twin.onInstall(i, 0, kNeverUsed);
    }
    LineId id = 17;
    for (int i = 0; i < 300; ++i) {
        id = (id * 31 + 7) % 100; // includes repeats
        rank_.onHit(id, kNeverUsed);
        twin.onHit(id, kNeverUsed);
        (void)twin.exactFutility(id); // observe mid-run
    }
    EXPECT_EQ(rank_.worstIn(0), twin.worstIn(0));
    for (LineId i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(rank_.exactFutility(i),
                         twin.exactFutility(i))
            << "line " << i;
}

TEST_F(CoarseTsFixture, SchemeFutilityManyMatchesSerialQueries)
{
    // The batched entry point must return exactly the per-id serial
    // answers — including right after a run of hits (the coarse
    // override reads only the ts_ array, never the exact-order
    // structure; the values must not differ).
    for (LineId i = 0; i < 64; ++i)
        install(i, 0);
    for (LineId i = 0; i < 32; ++i)
        rank_.onHit(i, kNeverUsed);
    std::vector<LineId> ids;
    for (LineId i = 0; i < 64; i += 3)
        ids.push_back(i);
    std::vector<double> batched(ids.size(), -2.0);
    rank_.schemeFutilityMany(ids, batched.data());
    for (std::size_t i = 0; i < ids.size(); ++i)
        EXPECT_DOUBLE_EQ(batched[i], rank_.schemeFutility(ids[i]))
            << "id " << ids[i];
}

TEST_F(CoarseTsFixture, RetagKeepsLineRanked)
{
    install(0, 0);
    install(1, 0);
    tags_.retag(0, 3);
    rank_.onRetag(0, 3);
    EXPECT_EQ(rank_.partOf(0), 3);
    EXPECT_EQ(rank_.partLines(3), 1u);
    EXPECT_DOUBLE_EQ(rank_.exactFutility(0), 1.0);
    // Distance is now measured against partition 3's clock.
    EXPECT_LE(rank_.tsDistance(0), 255u);
}

} // namespace
} // namespace fscache
