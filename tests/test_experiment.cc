/**
 * @file
 * Experiment-harness tests: cache assembly from specs, the untimed
 * driver's warmup handling, insertion-rate control accuracy, and
 * target-proportional prefill.
 */

#include <gtest/gtest.h>

#include "alloc/static_alloc.hh"
#include "sim/experiment.hh"
#include "trace/benchmark_profiles.hh"
#include "trace/stream_generator.hh"

namespace fscache
{
namespace
{

TEST(BuildCache, WiringMatchesSpec)
{
    CacheSpec spec;
    spec.array.kind = ArrayKind::SkewAssoc;
    spec.array.numLines = 512;
    spec.array.banks = 4;
    spec.array.skewWays = 2;
    spec.ranking = RankKind::Lfu;
    spec.scheme.kind = SchemeKind::Prism;
    spec.numParts = 3;
    auto cache = buildCache(spec);
    EXPECT_EQ(cache->cacheLines(), 512u);
    EXPECT_EQ(cache->numPartitions(), 3u);
    EXPECT_EQ(cache->array().name(), "skew-4b-2w");
    EXPECT_EQ(cache->ranking().name(), "lfu");
    EXPECT_EQ(cache->scheme().name(), "prism");
}

TEST(RunUntimed, WarmupResetsStats)
{
    CacheSpec spec;
    spec.array.numLines = 256;
    spec.array.ways = 16;
    spec.scheme.kind = SchemeKind::None;
    spec.numParts = 1;
    auto cache = buildCache(spec);

    Workload wl = Workload::duplicate("h264ref", 1, 10000, 3);
    runUntimed(*cache, wl, 0.5);
    // Stats only cover the second half.
    EXPECT_LE(cache->stats(0).accesses(), 5001u);
    EXPECT_GE(cache->stats(0).accesses(), 4999u);
}

/**
 * Hand-written per-access round-robin reference for runUntimed: one
 * access per non-exhausted thread per round, in thread order, with
 * the stats reset once exactly `warmup` accesses have been issued
 * (never, when warmup is 0).
 */
void
replayRoundRobin(PartitionedCache &cache, const Workload &wl,
                 std::uint64_t warmup)
{
    const std::uint32_t nt = wl.threadCount();
    std::vector<std::uint64_t> pos(nt, 0);
    std::uint64_t done = 0;
    bool any = true;
    while (any) {
        any = false;
        for (std::uint32_t t = 0; t < nt; ++t) {
            const TraceBuffer &trace = wl.thread(t).trace;
            if (pos[t] >= trace.size())
                continue;
            any = true;
            const Access &acc = trace[pos[t]++];
            cache.access(static_cast<PartId>(t), acc.addr,
                         acc.nextUse);
            if (++done == warmup)
                cache.resetStats();
        }
    }
}

/** The first n records of a trace. */
TraceBuffer
prefix(const TraceBuffer &trace, std::uint64_t n)
{
    TraceBuffer out;
    for (std::uint64_t i = 0; i < n; ++i)
        out.append(trace.addr(i), trace.instrGap(i));
    return out;
}

/** runUntimed against the reference on a real generated workload
 *  whose threads run out at different times, so the round-robin
 *  cursor must skip exhausted threads: same interleave, same reset
 *  point, so every counter and deviation sample must match. */
TEST(RunUntimed, MatchesPerAccessRoundRobinReference)
{
    Workload wl = Workload::mix({"mcf", "lbm", "h264ref"}, 20000, 42);
    wl.thread(1).trace = prefix(wl.thread(1).trace, 5000);
    wl.thread(2).trace = prefix(wl.thread(2).trace, 12001);
    const std::uint64_t total = 20000 + 5000 + 12001;

    CacheSpec spec;
    spec.array.kind = ArrayKind::SetAssoc;
    spec.array.numLines = 256;
    spec.array.ways = 16;
    spec.ranking = RankKind::CoarseTsLru;
    spec.scheme.kind = SchemeKind::Fs;
    spec.numParts = 3;
    spec.seed = 11;

    for (double fraction : {0.2, 0.0}) {
        SCOPED_TRACE(fraction);
        auto warmup = static_cast<std::uint64_t>(fraction * total);

        auto driven = buildCache(spec);
        driven->setTargets({96, 64, 96});
        runUntimed(*driven, wl, fraction);

        auto reference = buildCache(spec);
        reference->setTargets({96, 64, 96});
        replayRoundRobin(*reference, wl, warmup);

        std::uint64_t measured = 0;
        for (std::uint32_t p = 0; p < spec.numParts; ++p) {
            SCOPED_TRACE(p);
            const CachePartStats &a = reference->stats(p);
            const CachePartStats &b = driven->stats(p);
            EXPECT_EQ(a.hits, b.hits);
            EXPECT_EQ(a.misses, b.misses);
            EXPECT_EQ(a.insertions, b.insertions);
            EXPECT_EQ(a.evictions, b.evictions);
            EXPECT_EQ(reference->deviation(p).samples(),
                      driven->deviation(p).samples());
            measured += b.accesses();
        }
        EXPECT_EQ(measured, total - warmup);
    }
}

TEST(DriveByInsertionRate, FractionsEnforced)
{
    CacheSpec spec;
    spec.array.kind = ArrayKind::RandomCands;
    spec.array.numLines = 1024;
    spec.scheme.kind = SchemeKind::None;
    spec.numParts = 2;
    auto cache = buildCache(spec);
    cache->setTargets({512, 512});

    std::vector<std::unique_ptr<TraceSource>> src;
    src.push_back(std::make_unique<StreamGenerator>(0, 1, 1,
                                                    Rng(1)));
    src.push_back(std::make_unique<StreamGenerator>(1ull << 40, 1,
                                                    1, Rng(2)));
    driveByInsertionRate(*cache, src, {0.3, 0.7}, 20000, 1000, 5);

    double frac0 =
        static_cast<double>(cache->stats(0).insertions) /
        (cache->stats(0).insertions + cache->stats(1).insertions);
    EXPECT_NEAR(frac0, 0.3, 0.02);
}

TEST(DriveByInsertionRate, ZeroWeightPartitionStaysIdle)
{
    // QoS/occupancy sweeps deliberately idle a partition with
    // weight 0; that must not abort, and the idle partition must
    // receive no insertions (regression: cumulative() used to
    // assert every probability > 0).
    CacheSpec spec;
    spec.array.kind = ArrayKind::RandomCands;
    spec.array.numLines = 1024;
    spec.scheme.kind = SchemeKind::None;
    spec.numParts = 3;
    auto cache = buildCache(spec);
    cache->setTargets({512, 256, 256});

    std::vector<std::unique_ptr<TraceSource>> src;
    for (std::uint32_t t = 0; t < 3; ++t)
        src.push_back(std::make_unique<StreamGenerator>(
            static_cast<Addr>(t) << 40, 1, 1, Rng(t + 1)));
    std::vector<double> prefill{0.5, 0.0, 0.5};
    driveByInsertionRate(*cache, src, {0.6, 0.0, 0.4}, 5000, 500, 5,
                         &prefill);

    EXPECT_EQ(cache->stats(1).insertions, 0u);
    EXPECT_GT(cache->stats(0).insertions, 0u);
    EXPECT_GT(cache->stats(2).insertions, 0u);
    double frac0 =
        static_cast<double>(cache->stats(0).insertions) /
        (cache->stats(0).insertions + cache->stats(2).insertions);
    EXPECT_NEAR(frac0, 0.6, 0.03);
}

TEST(DriveByInsertionRate, PrefillReachesTargets)
{
    CacheSpec spec;
    spec.array.kind = ArrayKind::RandomCands;
    spec.array.numLines = 4096;
    spec.ranking = RankKind::ExactLru;
    spec.scheme.kind = SchemeKind::FsAnalytic;
    spec.numParts = 2;
    auto cache = buildCache(spec);
    cache->setTargets({4096 * 3 / 4, 4096 / 4});

    std::vector<std::unique_ptr<TraceSource>> src;
    src.push_back(std::make_unique<StreamGenerator>(0, 1, 1,
                                                    Rng(1)));
    src.push_back(std::make_unique<StreamGenerator>(1ull << 40, 1,
                                                    1, Rng(2)));
    std::vector<double> prefill{0.75, 0.25};
    // Zero post-warmup work: sizes must already be near target
    // right after the prefill + tiny warmup.
    driveByInsertionRate(*cache, src, {0.5, 0.5}, 200, 0, 5,
                         &prefill);
    EXPECT_NEAR(cache->actualSize(0), 3072.0, 160.0);
    EXPECT_NEAR(cache->actualSize(1), 1024.0, 160.0);
}

} // namespace
} // namespace fscache
