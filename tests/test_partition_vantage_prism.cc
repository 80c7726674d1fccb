/**
 * @file
 * Vantage and PriSM unit tests: aperture feedback, demotions,
 * forced evictions; eviction-probability computation and the
 * abnormality fallback.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "partition/prism_scheme.hh"
#include "partition/vantage_scheme.hh"

namespace fscache
{
namespace
{

class MockOps : public PartitionOps
{
  public:
    explicit MockOps(std::vector<std::uint32_t> sizes)
        : sizes_(std::move(sizes))
    {
    }

    std::uint32_t
    actualSize(PartId part) const override
    {
        return part < sizes_.size() ? sizes_[part] : 0;
    }

    LineId cacheLines() const override { return 4096; }

    void
    demote(LineId line, PartId to_part) override
    {
        demoted.emplace_back(line, to_part);
        if (shrinkOnDemote < sizes_.size())
            --sizes_[shrinkOnDemote];
    }

    double
    exactFutility(LineId line) const override
    {
        auto it = fut.find(line);
        return it == fut.end() ? 0.5 : it->second;
    }

    /** Record candidate futilities so ops and candidates agree. */
    void
    loadFutilities(const CandidateVec &cands)
    {
        for (std::size_t i = 0; i < cands.size(); ++i)
            fut[cands.line[i]] = cands.futility[i];
    }

    std::vector<std::uint32_t> sizes_;
    std::vector<std::pair<LineId, PartId>> demoted;
    std::unordered_map<LineId, double> fut;
    /** Partition that loses a line per demotion, as the demoted
     *  line's partition does in the real cache; none by default. */
    PartId shrinkOnDemote = kInvalidPart;
};

TEST(Vantage, ApertureZeroAtOrBelowTarget)
{
    MockOps ops({100, 100});
    VantageScheme s;
    s.bind(&ops, 2);
    s.setTarget(0, 100);
    s.setTarget(1, 120);
    EXPECT_DOUBLE_EQ(s.aperture(0), 0.0);
    EXPECT_DOUBLE_EQ(s.aperture(1), 0.0);
}

TEST(Vantage, ApertureRampsLinearlyToMax)
{
    MockOps ops({105, 111});
    VantageScheme s; // slack 0.1, aMax 0.5
    s.bind(&ops, 2);
    s.setTarget(0, 100);
    s.setTarget(1, 100);
    // 5% over with 10% slack => half of A_max.
    EXPECT_NEAR(s.aperture(0), 0.25, 1e-12);
    // 11% over => clamped at A_max.
    EXPECT_DOUBLE_EQ(s.aperture(1), 0.5);
}

TEST(Vantage, ManagedFractionReflectsU)
{
    VantageScheme s;
    EXPECT_DOUBLE_EQ(s.managedFraction(), 0.9);
}

TEST(Vantage, DemotesOversizedCandidatesInAperture)
{
    MockOps ops({120, 100});
    VantageScheme s;
    s.bind(&ops, 2);
    s.setTarget(0, 100);
    s.setTarget(1, 100);
    // Partition 0 is 20% over => aperture A_max = 0.5: candidates
    // with futility >= 0.5 get demoted.
    CandidateVec c{{1, 0, 0.9}, {2, 0, 0.3}, {3, 1, 0.4}};
    ops.loadFutilities(c);
    std::uint32_t victim = s.selectVictim(c, 0);
    ASSERT_EQ(ops.demoted.size(), 1u);
    EXPECT_EQ(ops.demoted[0].first, 1u);
    EXPECT_EQ(ops.demoted[0].second, s.unmanagedPart());
    // The demoted line is now the only unmanaged candidate.
    EXPECT_EQ(victim, 0u);
    EXPECT_EQ(s.demotions(), 1u);
    EXPECT_EQ(s.forcedEvictions(), 0u);
}

TEST(Vantage, EachDemotionNarrowsTheApertureForLaterCandidates)
{
    MockOps ops({105, 100});
    ops.shrinkOnDemote = 0;
    VantageScheme s; // slack 0.1, aMax 0.5
    s.bind(&ops, 2);
    s.setTarget(0, 100);
    s.setTarget(1, 100);
    // 105 lines: aperture 0.25, so the pass starts demoting at
    // futility >= 0.75. Each demotion costs partition 0 a line:
    // at 104 the bar is 0.8, at 103 it is 0.85, so the third
    // candidate stays even though it clears the starting bar.
    CandidateVec c{{1, 0, 0.95}, {2, 0, 0.82}, {3, 0, 0.83}};
    ops.loadFutilities(c);
    s.selectVictim(c, 0);
    ASSERT_EQ(ops.demoted.size(), 2u);
    EXPECT_EQ(ops.demoted[0].first, 1u);
    EXPECT_EQ(ops.demoted[1].first, 2u);
    EXPECT_EQ(ops.sizes_[0], 103u);
    EXPECT_EQ(s.demotions(), 2u);
}

TEST(Vantage, EvictsMostFutileUnmanaged)
{
    MockOps ops({100, 100});
    VantageScheme s;
    s.bind(&ops, 2);
    s.setTarget(0, 100);
    s.setTarget(1, 100);
    PartId um = s.unmanagedPart();
    CandidateVec c{{1, um, 0.4}, {2, um, 0.8}, {3, 0, 0.99}};
    ops.loadFutilities(c);
    EXPECT_EQ(s.selectVictim(c, 0), 1u);
    EXPECT_EQ(s.forcedEvictions(), 0u);
}

TEST(Vantage, ForcedEvictionWhenNoUnmanagedCandidate)
{
    MockOps ops({100, 100});
    VantageScheme s;
    s.bind(&ops, 2);
    s.setTarget(0, 100);
    s.setTarget(1, 100);
    // Both at target => no demotions possible; no unmanaged.
    CandidateVec c{{1, 0, 0.6}, {2, 1, 0.8}};
    ops.loadFutilities(c);
    EXPECT_EQ(s.selectVictim(c, 0), 1u);
    EXPECT_EQ(s.forcedEvictions(), 1u);
}

TEST(Vantage, ZeroTargetPartitionFullyDemotable)
{
    MockOps ops({50, 100});
    VantageScheme s;
    s.bind(&ops, 2);
    s.setTarget(0, 0);
    s.setTarget(1, 100);
    EXPECT_DOUBLE_EQ(s.aperture(0), 0.5);
    CandidateVec c{{1, 0, 0.55}, {2, 1, 0.2}};
    ops.loadFutilities(c);
    s.selectVictim(c, 1);
    EXPECT_EQ(s.demotions(), 1u);
}

TEST(Prism, InitialDistributionUniform)
{
    MockOps ops({10, 10, 10, 10});
    PrismScheme s;
    s.bind(&ops, 4);
    for (PartId p = 0; p < 4; ++p)
        EXPECT_DOUBLE_EQ(s.evictionProbability(p), 0.25);
}

TEST(Prism, RecomputeFollowsInsertionsAndDeviation)
{
    MockOps ops({300, 100});
    PrismConfig cfg;
    cfg.window = 100;
    PrismScheme s(cfg);
    s.bind(&ops, 2);
    s.setTarget(0, 200);
    s.setTarget(1, 200);
    // 80/20 insertions over one window; partition 0 is 100 lines
    // over, partition 1 is 100 under.
    for (int i = 0; i < 80; ++i)
        s.onInsertion(0);
    for (int i = 0; i < 20; ++i)
        s.onInsertion(1);
    // E_0 ~ 0.8 + 100/100 = 1.8; E_1 ~ 0.2 - 1.0 => clamped to 0;
    // normalized: E_0 = 1.
    EXPECT_NEAR(s.evictionProbability(0), 1.0, 1e-9);
    EXPECT_NEAR(s.evictionProbability(1), 0.0, 1e-9);
}

TEST(Prism, VictimFromSelectedPartition)
{
    MockOps ops({300, 100});
    PrismConfig cfg;
    cfg.window = 10;
    PrismScheme s(cfg);
    s.bind(&ops, 2);
    s.setTarget(0, 100);
    s.setTarget(1, 300);
    // All insertions to partition 0, which is also oversized: its
    // eviction probability becomes 1.
    for (int i = 0; i < 10; ++i)
        s.onInsertion(0);
    ASSERT_NEAR(s.evictionProbability(0), 1.0, 1e-9);
    CandidateVec c{{1, 1, 0.9}, {2, 0, 0.3}, {3, 0, 0.7}};
    // Must evict from partition 0 (index 2 has max futility there).
    EXPECT_EQ(s.selectVictim(c, 0), 2u);
    EXPECT_EQ(s.abnormalities(), 0u);
}

TEST(Prism, AbnormalityFallsBackToGlobalMax)
{
    MockOps ops({300, 100});
    PrismConfig cfg;
    cfg.window = 10;
    PrismScheme s(cfg);
    s.bind(&ops, 2);
    s.setTarget(0, 100);
    s.setTarget(1, 300);
    for (int i = 0; i < 10; ++i)
        s.onInsertion(0); // E_0 = 1
    // No candidate from partition 0 => abnormality.
    CandidateVec c{{1, 1, 0.2}, {2, 1, 0.9}};
    EXPECT_EQ(s.selectVictim(c, 0), 1u);
    EXPECT_EQ(s.abnormalities(), 1u);
    EXPECT_GT(s.abnormalityRate(), 0.0);
}

TEST(Prism, ClampedNegativeProbabilities)
{
    MockOps ops({0, 400});
    PrismConfig cfg;
    cfg.window = 100;
    PrismScheme s(cfg);
    s.bind(&ops, 2);
    s.setTarget(0, 200);
    s.setTarget(1, 200);
    for (int i = 0; i < 100; ++i)
        s.onInsertion(0);
    // E_0 = 1 - 200/100 => negative => clamped; E_1 = 0 + 2 => all.
    EXPECT_DOUBLE_EQ(s.evictionProbability(0), 0.0);
    EXPECT_DOUBLE_EQ(s.evictionProbability(1), 1.0);
}


TEST(VantageHw, DemotesAboveThreshold)
{
    MockOps ops({120, 100});
    VantageConfig cfg;
    cfg.exactThresholds = false;
    VantageScheme s(cfg);
    s.bind(&ops, 2);
    s.setTarget(0, 100);
    s.setTarget(1, 100);
    EXPECT_EQ(s.name(), "vantage-rt");
    // Initial threshold 0.9: candidate futility 0.95 from the
    // oversized partition 0 gets demoted, 0.5 does not.
    CandidateVec c{{1, 0, 0.95}, {2, 0, 0.5}, {3, 1, 0.4}};
    s.selectVictim(c, 0);
    EXPECT_EQ(s.demotions(), 1u);
    EXPECT_EQ(ops.demoted.size(), 1u);
    EXPECT_EQ(ops.demoted[0].first, 1u);
}

TEST(VantageHw, ThresholdFeedbackTracksAperture)
{
    MockOps ops({120, 100});
    VantageConfig cfg;
    cfg.exactThresholds = false;
    cfg.thresholdInterval = 16;
    VantageScheme s(cfg);
    s.bind(&ops, 2);
    s.setTarget(0, 100); // 20% over => aperture = A_max = 0.5
    s.setTarget(1, 100);
    double initial = s.demotionThreshold(0);
    // Feed candidates whose futility never crosses the threshold:
    // observed demotion rate 0 < aperture 0.5 => threshold drops.
    for (int i = 0; i < 64; ++i) {
        CandidateVec c{{1, 0, 0.1}, {2, 1, 0.9}};
        s.selectVictim(c, 0);
    }
    EXPECT_LT(s.demotionThreshold(0), initial);
}

TEST(VantageHw, DemotionRateTracksAperture)
{
    // With bang-bang candidate futilities the threshold oscillates,
    // but the controller must keep the *average* demotion fraction
    // near the aperture (0.5 here).
    MockOps ops({120, 100});
    VantageConfig cfg;
    cfg.exactThresholds = false;
    cfg.thresholdInterval = 16;
    VantageScheme s(cfg);
    s.bind(&ops, 2);
    s.setTarget(0, 100);
    s.setTarget(1, 100);
    int rounds = 256;
    for (int i = 0; i < rounds; ++i) {
        CandidateVec c{{1, 0, 0.99}, {2, 1, 0.9}};
        s.selectVictim(c, 0);
    }
    double rate = static_cast<double>(s.demotions()) / rounds;
    EXPECT_NEAR(rate, 0.5, 0.2);
}

TEST(VantageHw, NoDemotionsBelowTarget)
{
    MockOps ops({80, 100});
    VantageConfig cfg;
    cfg.exactThresholds = false;
    VantageScheme s(cfg);
    s.bind(&ops, 2);
    s.setTarget(0, 100);
    s.setTarget(1, 100);
    CandidateVec c{{1, 0, 0.99}, {2, 1, 0.99}};
    s.selectVictim(c, 0);
    EXPECT_EQ(s.demotions(), 0u);
    EXPECT_EQ(s.forcedEvictions(), 1u);
}

} // namespace
} // namespace fscache
