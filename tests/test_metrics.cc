/**
 * @file
 * Golden determinism checks of the simulator.
 */

#include <gtest/gtest.h>

#include "analytic/scaling_solver.hh"
#include "sim/experiment.hh"

namespace fscache
{
namespace
{

/**
 * Golden determinism: a fixed seed must always produce the exact
 * same counters. Guards against accidental behavioural drift in
 * any layer (generator, hashing, ranking, scheme). If a change is
 * *intended* to alter behaviour, update the golden values.
 */
TEST(Golden, FixedSeedCountersStable)
{
    CacheSpec spec;
    spec.array.kind = ArrayKind::SetAssoc;
    spec.array.numLines = 4096;
    spec.array.ways = 16;
    spec.array.hash = HashKind::XorFold;
    spec.ranking = RankKind::CoarseTsLru;
    spec.scheme.kind = SchemeKind::Fs;
    spec.numParts = 2;
    spec.seed = 2024;
    auto run = [&] {
        auto cache = buildCache(spec);
        cache->setTargets({3072, 1024});
        Workload wl = Workload::mix({"gromacs", "lbm"}, 30000, 77);
        runUntimed(*cache, wl, 0.2);
        return std::make_pair(cache->stats(0).misses,
                              cache->stats(1).misses);
    };
    auto a = run();
    auto b = run();
    EXPECT_EQ(a, b);
    // Golden values for this exact configuration and seed.
    EXPECT_EQ(a.first + a.second, 27045u);
}

TEST(Golden, AnalyticValuesStable)
{
    EXPECT_NEAR(analytic::scalingFactorTwoPart(0.9, 0.5, 16),
                1.6241134, 1e-6);
    EXPECT_NEAR(analytic::scalingFactorTwoPart(0.8, 0.1, 16),
                2.8348467, 1e-6);
}

} // namespace
} // namespace fscache
