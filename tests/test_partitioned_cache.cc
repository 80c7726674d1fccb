/**
 * @file
 * PartitionedCache facade tests: hit/miss bookkeeping, fill
 * behaviour, occupancy conservation, eviction stats, Vantage
 * demotion accounting, zcache relocation consistency, and
 * fully-associative candidate synthesis.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"

namespace fscache
{
namespace
{

CacheSpec
smallSpec(SchemeKind scheme, std::uint32_t parts,
          ArrayKind array = ArrayKind::SetAssoc)
{
    CacheSpec spec;
    spec.array.kind = array;
    spec.array.numLines = 256;
    spec.array.ways = 16;
    spec.ranking = RankKind::ExactLru;
    spec.scheme.kind = scheme;
    spec.numParts = parts;
    spec.seed = 11;
    return spec;
}

TEST(PartitionedCache, HitAndMissCounters)
{
    auto cache = buildCache(smallSpec(SchemeKind::None, 1));
    cache->setTarget(0, 256);
    cache->access(0, 1);
    cache->access(0, 2);
    cache->access(0, 1);
    EXPECT_EQ(cache->stats(0).misses, 2u);
    EXPECT_EQ(cache->stats(0).hits, 1u);
    EXPECT_EQ(cache->stats(0).insertions, 2u);
    EXPECT_EQ(cache->actualSize(0), 2u);
}

TEST(PartitionedCache, NoEvictionWhileFilling)
{
    auto cache = buildCache(smallSpec(SchemeKind::None, 1,
                                      ArrayKind::RandomCands));
    for (Addr a = 0; a < 256; ++a) {
        AccessOutcome out = cache->access(0, a);
        EXPECT_FALSE(out.hit);
        EXPECT_FALSE(out.evicted) << "premature eviction at " << a;
    }
    EXPECT_EQ(cache->actualSize(0), 256u);
    // The next distinct access must evict.
    AccessOutcome out = cache->access(0, 1000);
    EXPECT_TRUE(out.evicted);
}

TEST(PartitionedCache, OccupancyConservation)
{
    auto cache = buildCache(smallSpec(SchemeKind::Fs, 4));
    cache->setTargets({64, 64, 64, 64});
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        auto part = static_cast<PartId>(rng.below(4));
        cache->access(part, (part + 1) * 100000 + rng.below(500));
    }
    std::uint32_t total = 0;
    for (PartId p = 0; p < 4; ++p)
        total += cache->actualSize(p);
    EXPECT_EQ(total, 256u);
}

TEST(PartitionedCache, EvictionStatsAttributedToOwner)
{
    auto cache = buildCache(smallSpec(SchemeKind::None, 2));
    // Partition 0 floods the cache; partition 1 inserts a little.
    for (Addr a = 0; a < 1000; ++a)
        cache->access(0, a);
    for (Addr a = 0; a < 10; ++a)
        cache->access(1, 1u << 20 | a);
    std::uint64_t ev0 = cache->stats(0).evictions;
    std::uint64_t ev1 = cache->stats(1).evictions;
    EXPECT_GT(ev0, 700u);
    // Conservation: insertions - evictions == residency.
    EXPECT_EQ(cache->stats(0).insertions - ev0,
              cache->actualSize(0));
    EXPECT_EQ(cache->stats(1).insertions - ev1,
              cache->actualSize(1));
}

TEST(PartitionedCache, LruEvictionOrderSingleSet)
{
    // 16 lines, 16 ways => one set; exact LRU must evict the
    // least recently used line.
    CacheSpec spec = smallSpec(SchemeKind::None, 1);
    spec.array.numLines = 16;
    auto cache = buildCache(spec);
    for (Addr a = 0; a < 16; ++a)
        cache->access(0, a);
    cache->access(0, 0); // refresh line 0
    AccessOutcome out = cache->access(0, 100);
    EXPECT_TRUE(out.evicted);
    EXPECT_NEAR(out.victimFutility, 1.0, 1e-12);
    // Address 1 was LRU; it must be gone, address 0 must remain.
    EXPECT_TRUE(cache->access(0, 0).hit);
    EXPECT_FALSE(cache->access(0, 1).hit);
}

TEST(PartitionedCache, OptBeladySmallExample)
{
    // 2-line fully-associative cache, classic Belady sequence.
    CacheSpec spec = smallSpec(SchemeKind::None, 1,
                               ArrayKind::FullyAssoc);
    spec.array.numLines = 2;
    spec.ranking = RankKind::Opt;
    auto cache = buildCache(spec);

    // Sequence: A B A C A B ; with OPT, C evicts B (A is reused
    // sooner), so the final B misses but A never misses after load.
    //
    // next-use indices:        0    1    2    3    4    5
    Addr seq[] =              {10,  20,  10,  30,  10,  20};
    AccessTime next_use[] =   {2,   5,   4,   kNeverUsed, kNeverUsed,
                               kNeverUsed};
    bool expect_hit[] = {false, false, true, false, true, false};
    for (int i = 0; i < 6; ++i) {
        AccessOutcome out = cache->access(0, seq[i], next_use[i]);
        EXPECT_EQ(out.hit, expect_hit[i]) << "access " << i;
    }
}

TEST(PartitionedCache, VantageDemotionAccounting)
{
    CacheSpec spec = smallSpec(SchemeKind::Vantage, 2);
    spec.ranking = RankKind::CoarseTsLru;
    auto cache = buildCache(spec);
    // Targets within the managed fraction (0.9 * 256 = 230).
    cache->setTargets({100, 100});

    Rng rng(9);
    for (int i = 0; i < 30000; ++i) {
        auto part = static_cast<PartId>(rng.below(2));
        cache->access(part, (part + 1) * 100000 + rng.below(400));
    }
    auto &vantage = dynamic_cast<VantageScheme &>(cache->scheme());
    EXPECT_GT(vantage.demotions(), 0u);
    // Managed partitions must hover near their targets; the
    // unmanaged region absorbs the rest.
    std::uint32_t unmanaged =
        cache->array().tags().partSize(vantage.unmanagedPart());
    EXPECT_GT(unmanaged, 0u);
    EXPECT_EQ(cache->actualSize(0) + cache->actualSize(1) + unmanaged,
              256u);
    EXPECT_LT(cache->actualSize(0), 130u);
    EXPECT_LT(cache->actualSize(1), 130u);
}

TEST(PartitionedCache, ZCacheRelocationKeepsLookupsConsistent)
{
    CacheSpec spec = smallSpec(SchemeKind::None, 1, ArrayKind::ZCache);
    spec.array.banks = 4;
    spec.array.walkLevels = 2;
    auto cache = buildCache(spec);

    Rng rng(3);
    std::vector<Addr> pool;
    for (int i = 0; i < 40000; ++i) {
        Addr a;
        if (!pool.empty() && rng.chance(0.6)) {
            a = pool[rng.below(pool.size())];
        } else {
            a = rng();
            pool.push_back(a);
            if (pool.size() > 600)
                pool.erase(pool.begin(),
                           pool.begin() + 300);
        }
        cache->access(0, a);
    }
    // Invariants held throughout (fs_assert would have fired);
    // check final occupancy consistency.
    EXPECT_EQ(cache->actualSize(0),
              cache->array().tags().validCount());
    EXPECT_EQ(cache->ranking().partLines(0), cache->actualSize(0));
}

TEST(PartitionedCache, FullyAssocCandidatesFromAllPartitions)
{
    CacheSpec spec = smallSpec(SchemeKind::PF, 4,
                               ArrayKind::FullyAssoc);
    spec.array.numLines = 64;
    auto cache = buildCache(spec);
    cache->setTargets({16, 16, 16, 16});
    Rng rng(4);
    for (int i = 0; i < 5000; ++i) {
        auto part = static_cast<PartId>(rng.below(4));
        cache->access(part, (part + 1) * 100000 + rng.below(200));
    }
    // PF on fully-assoc enforces near-exact sizes.
    for (PartId p = 0; p < 4; ++p)
        EXPECT_NEAR(cache->actualSize(p), 16.0, 2.0);
    // And full associativity: every partition's AEF is 1.
    for (PartId p = 0; p < 4; ++p)
        EXPECT_DOUBLE_EQ(cache->assocDist(p).aef(), 1.0);
}

TEST(PartitionedCache, ResetStatsPreservesContents)
{
    auto cache = buildCache(smallSpec(SchemeKind::None, 1));
    for (Addr a = 0; a < 100; ++a)
        cache->access(0, a);
    cache->resetStats();
    EXPECT_EQ(cache->stats(0).misses, 0u);
    EXPECT_EQ(cache->actualSize(0), 100u);
    EXPECT_TRUE(cache->access(0, 5).hit);
}

TEST(PartitionedCache, DeviationSampledOnEvictions)
{
    auto cache = buildCache(smallSpec(SchemeKind::Fs, 2));
    cache->setTargets({128, 128});
    Rng rng(6);
    for (int i = 0; i < 5000; ++i) {
        auto part = static_cast<PartId>(rng.below(2));
        cache->access(part, (part + 1) * 100000 + rng.below(4000));
    }
    EXPECT_GT(cache->deviation(0).samples(), 0u);
    EXPECT_GT(cache->deviation(1).samples(), 0u);
    EXPECT_DOUBLE_EQ(cache->deviation(0).target(), 128.0);
}

/**
 * Regression: resetStats() must also clear the deviation-sampling
 * countdown. Before the fix the countdown carried pre-reset
 * evictions across the warmup boundary, so the first measured sample
 * landed early — here after only two post-reset evictions instead of
 * the configured four.
 */
TEST(PartitionedCache, ResetStatsClearsDeviationSampleCountdown)
{
    auto cache = buildCache(smallSpec(SchemeKind::Fs, 2));
    cache->setTargets({128, 128});
    cache->setDeviationSampleInterval(4);

    auto evictions = [&cache] {
        return cache->stats(0).evictions + cache->stats(1).evictions;
    };
    // Unique addresses: every access misses, and once the array is
    // full every install evicts exactly one line.
    Addr next_addr = 1;
    auto evictOnce = [&] {
        std::uint64_t before = evictions();
        while (evictions() == before)
            cache->access(0, next_addr++ * 64);
    };

    // Two pre-reset evictions: the countdown sits mid-interval (2 of
    // 4) and no sample has been taken yet.
    evictOnce();
    evictOnce();
    ASSERT_EQ(evictions(), 2u);
    EXPECT_EQ(cache->deviation(0).samples(), 0u);

    cache->resetStats();
    EXPECT_EQ(cache->deviation(0).samples(), 0u);

    // The first measured sample must land on the 4th post-reset
    // eviction — not the 2nd, which is where a carried-over
    // countdown would put it.
    evictOnce();
    evictOnce();
    evictOnce();
    ASSERT_EQ(evictions(), 3u);
    EXPECT_EQ(cache->deviation(0).samples(), 0u)
        << "deviation sample countdown leaked across resetStats()";
    evictOnce();
    ASSERT_EQ(evictions(), 4u);
    EXPECT_EQ(cache->deviation(0).samples(), 1u);
}

} // namespace
} // namespace fscache
