/**
 * @file
 * Tests for the simulation extensions: banked NUCA model and the
 * RRIP futility ranking.
 */

#include <gtest/gtest.h>

#include <memory>

#include "ranking/rrip_ranking.hh"
#include "sim/experiment.hh"
#include "sim/nuca_model.hh"
#include "sim/timing_sim.hh"

namespace fscache
{
namespace
{

TEST(Nuca, BankMappingStable)
{
    NucaModel nuca;
    for (Addr a : {0ull, 5ull, 0xdeadull}) {
        std::uint32_t b = nuca.bankOf(a);
        EXPECT_EQ(nuca.bankOf(a), b);
        EXPECT_LT(b, 4u);
    }
}

TEST(Nuca, ZeroHopLocalAccess)
{
    NucaConfig cfg;
    cfg.hopLatency = 2;
    cfg.bankLatency = 8;
    NucaModel nuca(cfg);
    // Find an address on bank 0 and access from core 0 (slot 0).
    Addr a = 0;
    while (nuca.bankOf(a) != 0)
        ++a;
    EXPECT_EQ(nuca.access(0, a, 100), 108u);
}

TEST(Nuca, HopsAddLatencyBothWays)
{
    NucaConfig cfg;
    cfg.hopLatency = 3;
    cfg.bankLatency = 8;
    NucaModel nuca(cfg);
    Addr a = 0;
    while (nuca.bankOf(a) != 3)
        ++a;
    // Core slot 0 -> bank 3: 3 hops each direction.
    EXPECT_EQ(nuca.access(0, a, 0), 0u + 3 * 3 + 8 + 3 * 3);
}

TEST(Nuca, BankContentionQueues)
{
    NucaConfig cfg;
    cfg.bankServiceCycles = 4;
    NucaModel nuca(cfg);
    Addr a = 0;
    while (nuca.bankOf(a) != 0)
        ++a;
    Cycle first = nuca.access(0, a, 0);
    Cycle second = nuca.access(0, a, 0); // same bank, same time
    EXPECT_EQ(second, first + 4);
    EXPECT_GT(nuca.avgBankQueueing(), 0.0);
}

TEST(Nuca, TimingSimIntegration)
{
    CacheSpec spec;
    spec.array.numLines = 4096;
    spec.array.ways = 16;
    spec.scheme.kind = SchemeKind::None;
    spec.numParts = 1;
    auto cache = buildCache(spec);
    Workload wl = Workload::duplicate("h264ref", 1, 20000, 3);

    TimingConfig cfg;
    cfg.modelNuca = true;
    TimingSim sim(*cache, wl, cfg);
    sim.run();
    EXPECT_GT(sim.perf(0).ipc(), 0.0);
    EXPECT_GT(sim.nuca().accesses(), 0u);
}

TEST(Rrip, InsertionIsLongNotDistant)
{
    RripRanking r(8);
    r.onInstall(0, 0, kNeverUsed);
    EXPECT_EQ(r.rrpv(0), 2u); // 2^2 - 2 with default 2-bit RRPV
    r.onHit(0, kNeverUsed);
    EXPECT_EQ(r.rrpv(0), 0u);
}

TEST(Rrip, HitLinesOutrankFreshOnes)
{
    RripRanking r(8);
    r.onInstall(0, 0, kNeverUsed);
    r.onInstall(1, 0, kNeverUsed);
    r.onHit(0, kNeverUsed);
    // Line 1 (never hit, RRPV 2) is more futile than line 0.
    EXPECT_GT(r.schemeFutility(1), r.schemeFutility(0));
    EXPECT_EQ(r.worstIn(0), 1u);
}

TEST(Rrip, RecencyBreaksRrpvTies)
{
    RripRanking r(8);
    r.onInstall(0, 0, kNeverUsed);
    r.onInstall(1, 0, kNeverUsed);
    // Same RRPV; older line 0 must rank more futile.
    EXPECT_GT(r.schemeFutility(0), r.schemeFutility(1));
}

TEST(Rrip, ScanResistanceBeatsLruOnCyclicMix)
{
    // A reused core + a long scan: RRIP should keep the core and
    // beat exact LRU on hit ratio.
    auto run = [](RankKind rank) {
        CacheSpec spec;
        spec.array.numLines = 1024;
        spec.array.ways = 16;
        spec.ranking = rank;
        spec.scheme.kind = SchemeKind::None;
        spec.numParts = 1;
        auto cache = buildCache(spec);
        Rng rng(9);
        Addr scan = 1u << 20;
        std::uint64_t hits = 0, accesses = 0;
        for (int i = 0; i < 60000; ++i) {
            Addr a = rng.chance(0.5)
                         ? rng.below(512)  // reused core
                         : scan++;         // endless scan
            AccessOutcome out = cache->access(0, a);
            ++accesses;
            hits += out.hit;
        }
        return static_cast<double>(hits) / accesses;
    };
    double rrip_hits = run(RankKind::Rrip);
    double lru_hits = run(RankKind::ExactLru);
    EXPECT_GT(rrip_hits, lru_hits);
}

TEST(Rrip, WorksWithFsScheme)
{
    CacheSpec spec;
    spec.array.numLines = 1024;
    spec.array.ways = 16;
    spec.ranking = RankKind::Rrip;
    spec.scheme.kind = SchemeKind::Fs;
    spec.numParts = 2;
    auto cache = buildCache(spec);
    cache->setTargets({768, 256});
    Rng rng(4);
    for (int i = 0; i < 40000; ++i) {
        auto part = static_cast<PartId>(rng.below(2));
        cache->access(part, (part + 1) * 100000 + rng.below(1500));
    }
    EXPECT_NEAR(cache->actualSize(0), 768.0, 90.0);
    EXPECT_NEAR(cache->actualSize(1), 256.0, 90.0);
}

} // namespace
} // namespace fscache
