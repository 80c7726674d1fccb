/**
 * @file
 * End-to-end statistical properties from the paper, verified on
 * real simulations (moderate sizes for test runtime):
 *
 *  - a non-partitioned random-candidates cache follows the x^R
 *    associativity law (AEF = R/(R+1));
 *  - analytic FS enforces sizes statistically while the unscaled
 *    partition keeps full R-candidate associativity (Fig. 4/5);
 *  - feedback FS converges to targets on a real set-assoc array;
 *  - PF's associativity collapses as N -> R (Fig. 2);
 *  - PriSM's abnormality rate explodes at N = 2R (Sec. VIII.A);
 *  - miss curves decrease with cache size, and stay flat for a
 *    streaming thread.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "analytic/assoc_model.hh"
#include "analytic/scaling_solver.hh"
#include "partition/futility_scaling_analytic.hh"
#include "sim/experiment.hh"
#include "trace/benchmark_profiles.hh"
#include "trace/stack_dist_generator.hh"

namespace fscache
{
namespace
{

/** A reuse-heavy generator whose stack depths span the cache. */
std::unique_ptr<TraceSource>
reuseSource(Addr base, std::uint64_t max_depth, std::uint64_t seed)
{
    StackDistConfig cfg;
    cfg.pNew = 0.05;
    cfg.depth = DepthDist::logUniform(1, max_depth);
    cfg.maxResident = max_depth * 2;
    cfg.meanInstrGap = 1;
    return std::make_unique<StackDistGenerator>(cfg, base, Rng(seed));
}

TEST(Integration, RandomCandsFollowsXPowerRLaw)
{
    CacheSpec spec;
    spec.array.kind = ArrayKind::RandomCands;
    spec.array.numLines = 8192;
    spec.array.randomCands = 16;
    spec.ranking = RankKind::ExactLru;
    spec.scheme.kind = SchemeKind::None;
    spec.numParts = 1;
    auto cache = buildCache(spec);

    std::vector<std::unique_ptr<TraceSource>> src;
    src.push_back(reuseSource(0, 1 << 15, 21));
    driveByInsertionRate(*cache, src, {1.0}, 60000, 20000, 3);

    double aef = cache->assocDist(0).aef();
    EXPECT_NEAR(aef, 16.0 / 17.0, 0.015);
    // CDF at 0.8 should be near 0.8^16 ~ 0.028.
    EXPECT_NEAR(cache->assocDist(0).cdfAt(0.8), std::pow(0.8, 16),
                0.03);
}

TEST(Integration, FsAnalyticSizingAndAssociativity)
{
    // Figure 4/5 setup: two equal-pressure threads, targets 90/10.
    constexpr LineId kLines = 8192;
    CacheSpec spec;
    spec.array.kind = ArrayKind::RandomCands;
    spec.array.numLines = kLines;
    spec.array.randomCands = 16;
    spec.ranking = RankKind::ExactLru;
    spec.scheme.kind = SchemeKind::FsAnalytic;
    spec.numParts = 2;
    auto cache = buildCache(spec);
    cache->setTargets({kLines * 9 / 10, kLines / 10});

    auto &fs = dynamic_cast<FutilityScalingAnalytic &>(
        cache->scheme());
    double alpha2 = analytic::scalingFactorTwoPart(0.9, 0.5, 16);
    fs.setScalingFactor(0, 1.0);
    fs.setScalingFactor(1, alpha2);

    std::vector<std::unique_ptr<TraceSource>> src;
    src.push_back(reuseSource(0, 1 << 15, 31));
    src.push_back(reuseSource(1ull << 48, 1 << 15, 32));
    driveByInsertionRate(*cache, src, {0.5, 0.5}, 80000, 30000, 7);

    // Sizing: mean occupancy statistically near target (Fig. 5).
    EXPECT_NEAR(cache->deviation(0).meanOccupancy(),
                kLines * 0.9, kLines * 0.02);
    EXPECT_NEAR(cache->deviation(1).meanOccupancy(),
                kLines * 0.1, kLines * 0.02);

    // Associativity: the unscaled partition keeps the x^R law;
    // the scaled one degrades but stays far above 0.5 (Fig. 4).
    EXPECT_NEAR(cache->assocDist(0).aef(), 16.0 / 17.0, 0.02);
    double aef2 = cache->assocDist(1).aef();
    EXPECT_GT(aef2, 0.72);
    EXPECT_LT(aef2, 0.93);
}

TEST(Integration, FsFeedbackConvergesToTargets)
{
    constexpr LineId kLines = 8192;
    CacheSpec spec;
    spec.array.kind = ArrayKind::SetAssoc;
    spec.array.numLines = kLines;
    spec.array.ways = 16;
    spec.array.hash = HashKind::XorFold;
    spec.ranking = RankKind::CoarseTsLru;
    spec.scheme.kind = SchemeKind::Fs;
    spec.numParts = 2;
    auto cache = buildCache(spec);
    // Asymmetric targets under symmetric pressure.
    cache->setTargets({kLines * 3 / 4, kLines / 4});

    std::vector<std::unique_ptr<TraceSource>> src;
    src.push_back(reuseSource(0, 1 << 15, 41));
    src.push_back(reuseSource(1ull << 48, 1 << 15, 42));
    driveByInsertionRate(*cache, src, {0.5, 0.5}, 60000, 40000, 11);

    EXPECT_NEAR(cache->deviation(0).meanOccupancy(), kLines * 0.75,
                kLines * 0.05);
    EXPECT_NEAR(cache->deviation(1).meanOccupancy(), kLines * 0.25,
                kLines * 0.05);
}

TEST(Integration, PfAssociativityCollapsesWithPartitions)
{
    // Same total pressure, N = 1 vs N = 16 partitions, R = 16.
    auto run = [](std::uint32_t parts) {
        constexpr LineId kLines = 8192;
        CacheSpec spec;
        spec.array.kind = ArrayKind::RandomCands;
        spec.array.numLines = kLines;
        spec.array.randomCands = 16;
        spec.ranking = RankKind::ExactLru;
        spec.scheme.kind = SchemeKind::PF;
        spec.numParts = parts;
        auto cache = buildCache(spec);
        std::vector<std::uint32_t> targets(parts, kLines / parts);
        cache->setTargets(targets);

        std::vector<std::unique_ptr<TraceSource>> src;
        std::vector<double> probs(parts, 1.0 / parts);
        for (std::uint32_t p = 0; p < parts; ++p)
            src.push_back(reuseSource(
                (static_cast<Addr>(p) + 1) << 48, 1 << 12, 50 + p));
        driveByInsertionRate(*cache, src, probs, 60000, 30000, 13);
        return cache->assocDist(0).aef();
    };

    double aef1 = run(1);
    double aef16 = run(16);
    EXPECT_GT(aef1, 0.9);   // paper: 0.95
    EXPECT_LT(aef16, 0.70); // paper: 0.60 at N=16
    EXPECT_GT(aef16, 0.45); // but no worse than random
}

TEST(Integration, PrismAbnormalityRateAtScale)
{
    // N = 32 partitions, R = 16 candidates: the partition-selection
    // step rarely finds a candidate (paper reports > 70%).
    constexpr LineId kLines = 16384;
    CacheSpec spec;
    spec.array.kind = ArrayKind::RandomCands;
    spec.array.numLines = kLines;
    spec.array.randomCands = 16;
    spec.ranking = RankKind::ExactLru;
    spec.scheme.kind = SchemeKind::Prism;
    spec.numParts = 32;
    auto cache = buildCache(spec);
    cache->setTargets(std::vector<std::uint32_t>(32, kLines / 32));

    std::vector<std::unique_ptr<TraceSource>> src;
    std::vector<double> probs(32, 1.0 / 32);
    for (std::uint32_t p = 0; p < 32; ++p)
        src.push_back(reuseSource(
            (static_cast<Addr>(p) + 1) << 48, 1 << 10, 90 + p));
    driveByInsertionRate(*cache, src, probs, 40000, 20000, 17);

    auto &prism = dynamic_cast<PrismScheme &>(cache->scheme());
    EXPECT_GT(prism.abnormalityRate(), 0.5);
}

/** Post-warmup misses of a one-thread workload alone in an
 *  unpartitioned 16-way cache of `lines` lines. */
std::uint64_t
missesAlone(const Workload &wl, LineId lines, std::uint64_t seed)
{
    CacheSpec spec;
    spec.array.numLines = lines;
    spec.array.ways = 16;
    spec.ranking = RankKind::ExactLru;
    spec.scheme.kind = SchemeKind::None;
    spec.seed = seed;
    auto cache = buildCache(spec);
    cache->setTarget(0, lines);
    runUntimed(*cache, wl, 0.2);
    return cache->stats(0).misses;
}

TEST(Integration, MissCurvesDecreaseWithSize)
{
    Workload gromacs = Workload::duplicate("gromacs", 1, 60000, 23);
    std::uint64_t m2k = missesAlone(gromacs, 2048, 23);
    std::uint64_t m8k = missesAlone(gromacs, 8192, 23);
    std::uint64_t m32k = missesAlone(gromacs, 32768, 23);
    EXPECT_GT(m2k, m8k);
    EXPECT_GE(m8k, m32k);

    // Streaming: eight times the cache barely helps lbm.
    Workload lbm = Workload::duplicate("lbm", 1, 20000, 7);
    std::uint64_t small = missesAlone(lbm, 1024, 7);
    EXPECT_GT(small, 0u);
    EXPECT_GT(static_cast<double>(missesAlone(lbm, 8192, 7)) / small,
              0.8);
}

TEST(Integration, FsDeviationSmallButNonzero)
{
    // Fig. 5: FS trades a small temporal deviation for
    // associativity; MAD stays well under 1% of the cache.
    constexpr LineId kLines = 8192;
    CacheSpec spec;
    spec.array.kind = ArrayKind::RandomCands;
    spec.array.numLines = kLines;
    spec.array.randomCands = 16;
    spec.ranking = RankKind::ExactLru;
    spec.scheme.kind = SchemeKind::FsAnalytic;
    spec.numParts = 2;
    auto cache = buildCache(spec);
    cache->setTargets({kLines / 2, kLines / 2});
    // Equal everything: alphas stay 1.

    std::vector<std::unique_ptr<TraceSource>> src;
    src.push_back(reuseSource(0, 1 << 14, 61));
    src.push_back(reuseSource(1ull << 48, 1 << 14, 62));
    driveByInsertionRate(*cache, src, {0.5, 0.5}, 60000, 30000, 19);

    double mad = cache->deviation(0).mad();
    EXPECT_GT(mad, 0.0);
    EXPECT_LT(mad, kLines * 0.02);
}

} // namespace
} // namespace fscache
