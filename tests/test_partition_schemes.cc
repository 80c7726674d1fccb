/**
 * @file
 * Unit tests for the victim-selection scans (common/simd.hh) and
 * the partitioning schemes' decision logic (PF, FS-analytic,
 * FS-feedback, unpartitioned) against a mock owner.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "analytic/scaling_solver.hh"
#include "common/simd.hh"
#include "partition/futility_scaling_analytic.hh"
#include "partition/futility_scaling_feedback.hh"
#include "partition/partitioning_first_scheme.hh"
#include "partition/scheme_factory.hh"
#include "partition/unpartitioned_scheme.hh"

namespace fscache
{
namespace
{

/** Scriptable PartitionOps. */
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

    LineId cacheLines() const override { return 1024; }

    void
    demote(LineId line, PartId to_part) override
    {
        demoted.emplace_back(line, to_part);
    }

    double exactFutility(LineId) const override { return 0.5; }

    std::vector<std::uint32_t> sizes_;
    std::vector<std::pair<LineId, PartId>> demoted;
};

CandidateVec
cands(std::initializer_list<Candidate> list)
{
    return CandidateVec(list);
}

TEST(VictimScans, TiesPickFirstIndex)
{
    const double v[] = {0.25, 0.75, 0.5, 0.75, 0.75};
    const PartId part[] = {0, 1, 0, 1, 0};
    const double factors[] = {1.0, 1.0};
    EXPECT_EQ(simd::argmaxPlain(v, 5), 1u);
    EXPECT_EQ(simd::argmaxMasked(v, part, 1, 5), 1);
    EXPECT_EQ(simd::argmaxMasked(v, part, 0, 5), 4);
    EXPECT_EQ(simd::argmaxScaled(v, part, factors, 2, 5), 1u);
}

TEST(VictimScans, MaskedWithNoMatchReturnsMinusOne)
{
    const double v[] = {0.9, 0.1, -1.0};
    const PartId part[] = {0, 1, 2};
    EXPECT_EQ(simd::argmaxMasked(v, part, 3, 3), -1);
    // A masked-in invalid-slot sentinel never beats the -1.0 floor.
    EXPECT_EQ(simd::argmaxMasked(v, part, 2, 3), -1);
}

TEST(VictimScans, AllSkippedScaledReturnsZero)
{
    const double v[] = {0.3, 0.9, -1.0};
    const PartId part[] = {2, 5, kInvalidPart};
    const double factors[] = {1.0, 2.0};
    EXPECT_EQ(simd::argmaxScaled(v, part, factors, 2, 3), 0u);
    // Only candidates with a factor compete, on v * factor.
    const PartId some[] = {0, 1, kInvalidPart};
    const double v2[] = {0.5, 0.3, 0.0};
    EXPECT_EQ(simd::argmaxScaled(v2, some, factors, 2, 3), 1u);
}

TEST(VictimScans, EmptyInputReturnsInitValue)
{
    const double v[] = {0.5};
    const PartId part[] = {0};
    const double factors[] = {1.0};
    EXPECT_EQ(simd::argmaxPlain(v, 0), 0u);
    EXPECT_EQ(simd::argmaxMasked(v, part, 0, 0), -1);
    EXPECT_EQ(simd::argmaxScaled(v, part, factors, 1, 0), 0u);
}

TEST(Unpartitioned, EvictsMaxFutility)
{
    MockOps ops({0});
    UnpartitionedScheme s;
    s.bind(&ops, 1);
    CandidateVec c = cands({{0, 0, 0.3}, {1, 0, 0.9}, {2, 0, 0.5}});
    EXPECT_EQ(s.selectVictim(c, 0), 1u);
}

TEST(PF, PaperFigure1Dilemma)
{
    // The Figure 1 scenario: two partitions with target 5 each,
    // actual sizes 4 and 6. Candidates: the least useful line of
    // partition 1 (futility 1.0) and the most useful line of
    // partition 2 (futility ~0.17). PF must evict from the
    // oversized partition 2 despite the terrible futility.
    MockOps ops({4, 6});
    PartitioningFirstScheme s;
    s.bind(&ops, 2);
    s.setTarget(0, 5);
    s.setTarget(1, 5);
    CandidateVec c = cands({{10, 0, 1.0}, {20, 1, 1.0 / 6.0}});
    EXPECT_EQ(s.selectVictim(c, 1), 1u);
}

TEST(PF, MaxFutilityWithinChosenPartition)
{
    MockOps ops({10, 2});
    PartitioningFirstScheme s;
    s.bind(&ops, 2);
    s.setTarget(0, 5);
    s.setTarget(1, 5);
    // Partition 0 is most oversized; among its candidates, pick the
    // largest futility.
    CandidateVec c =
        cands({{1, 0, 0.2}, {2, 1, 0.99}, {3, 0, 0.7}, {4, 0, 0.5}});
    EXPECT_EQ(s.selectVictim(c, 0), 2u);
}

TEST(PF, AllUndersizedPicksLeastUndersized)
{
    MockOps ops({4, 2});
    PartitioningFirstScheme s;
    s.bind(&ops, 2);
    s.setTarget(0, 5);
    s.setTarget(1, 5);
    // Over values: -1 and -3; partition 0 wins.
    CandidateVec c = cands({{1, 1, 0.9}, {2, 0, 0.1}});
    EXPECT_EQ(s.selectVictim(c, 0), 1u);
}

TEST(PF, IgnoresInvalidCandidates)
{
    MockOps ops({8, 1});
    PartitioningFirstScheme s;
    s.bind(&ops, 2);
    s.setTarget(0, 4);
    s.setTarget(1, 4);
    CandidateVec c =
        cands({{1, kInvalidPart, -1.0}, {2, 0, 0.4}, {3, 0, 0.6}});
    EXPECT_EQ(s.selectVictim(c, 0), 2u);
}

TEST(FsAnalytic, ScaledFutilityDecides)
{
    MockOps ops({5, 5});
    FutilityScalingAnalytic s;
    s.bind(&ops, 2);
    s.setScalingFactor(1, 3.0);
    // 0.4 * 3 = 1.2 beats 0.9 * 1.
    CandidateVec c = cands({{1, 0, 0.9}, {2, 1, 0.4}});
    EXPECT_EQ(s.selectVictim(c, 0), 1u);
    // But a sufficiently useless unscaled line still wins:
    // 0.95 > 0.25 * 3.
    c = cands({{1, 0, 0.95}, {2, 1, 0.25}});
    EXPECT_EQ(s.selectVictim(c, 0), 0u);
}

TEST(FsAnalytic, DefaultFactorsAreUnity)
{
    MockOps ops({5, 5});
    FutilityScalingAnalytic s;
    s.bind(&ops, 2);
    EXPECT_DOUBLE_EQ(s.scalingFactor(0), 1.0);
    EXPECT_DOUBLE_EQ(s.scalingFactor(1), 1.0);
}

TEST(FsFeedback, ShiftGrowsWhenOversizedAndGrowing)
{
    MockOps ops({20, 5});
    FutilityScalingFeedback s;
    s.bind(&ops, 2);
    s.setTarget(0, 10);
    s.setTarget(1, 10);
    EXPECT_EQ(s.shiftWidth(0), 0u);
    // 16 insertions (and no evictions) for the oversized partition.
    for (int i = 0; i < 16; ++i)
        s.onInsertion(0);
    EXPECT_EQ(s.shiftWidth(0), 1u);
    EXPECT_DOUBLE_EQ(s.scalingFactor(0), 2.0);
}

TEST(FsFeedback, ShiftShrinksWhenUndersizedAndShrinking)
{
    MockOps ops({20, 5});
    FutilityScalingFeedback s;
    s.bind(&ops, 2);
    s.setTarget(0, 10);
    s.setTarget(1, 10);
    // Build shift up first.
    for (int i = 0; i < 16; ++i)
        s.onInsertion(0);
    ASSERT_EQ(s.shiftWidth(0), 1u);
    // Now the partition is undersized and shrinking.
    ops.sizes_[0] = 4;
    for (int i = 0; i < 16; ++i)
        s.onEviction(0);
    EXPECT_EQ(s.shiftWidth(0), 0u);
    EXPECT_DOUBLE_EQ(s.scalingFactor(0), 1.0);
}

TEST(FsFeedback, NoAdjustDuringTransient)
{
    // Oversized but shrinking: Algorithm 2 must NOT scale up.
    MockOps ops({20, 5});
    FutilityScalingFeedback s;
    s.bind(&ops, 2);
    s.setTarget(0, 10);
    s.setTarget(1, 10);
    for (int i = 0; i < 15; ++i)
        s.onInsertion(0);
    for (int i = 0; i < 16; ++i)
        s.onEviction(0); // evictions reach l first, N_I < N_E
    EXPECT_EQ(s.shiftWidth(0), 0u);
}

TEST(FsFeedback, ShiftSaturatesAtMax)
{
    MockOps ops({20});
    FsFeedbackConfig cfg;
    cfg.maxShiftWidth = 3;
    FutilityScalingFeedback s(cfg);
    s.bind(&ops, 1);
    s.setTarget(0, 10);
    for (int round = 0; round < 10; ++round)
        for (int i = 0; i < 16; ++i)
            s.onInsertion(0);
    EXPECT_EQ(s.shiftWidth(0), 3u);
    EXPECT_DOUBLE_EQ(s.scalingFactor(0), 8.0);
}

TEST(FsFeedback, ShiftNeverGoesNegative)
{
    MockOps ops({2});
    FutilityScalingFeedback s;
    s.bind(&ops, 1);
    s.setTarget(0, 10);
    for (int round = 0; round < 5; ++round)
        for (int i = 0; i < 16; ++i)
            s.onEviction(0);
    EXPECT_EQ(s.shiftWidth(0), 0u);
    EXPECT_DOUBLE_EQ(s.scalingFactor(0), 1.0);
}

TEST(FsFeedback, CountersResetEachInterval)
{
    MockOps ops({20});
    FutilityScalingFeedback s;
    s.bind(&ops, 1);
    s.setTarget(0, 10);
    for (int i = 0; i < 16; ++i)
        s.onInsertion(0);
    EXPECT_EQ(s.shiftWidth(0), 1u);
    // 15 more insertions: not yet a full interval.
    for (int i = 0; i < 15; ++i)
        s.onInsertion(0);
    EXPECT_EQ(s.shiftWidth(0), 1u);
    s.onInsertion(0);
    EXPECT_EQ(s.shiftWidth(0), 2u);
}

TEST(FsFeedback, ConfigurableIntervalAndRatio)
{
    MockOps ops({20});
    FsFeedbackConfig cfg;
    cfg.intervalLength = 4;
    cfg.changingRatio = 4.0;
    FutilityScalingFeedback s(cfg);
    s.bind(&ops, 1);
    s.setTarget(0, 10);
    for (int i = 0; i < 4; ++i)
        s.onInsertion(0);
    EXPECT_DOUBLE_EQ(s.scalingFactor(0), 4.0);
}

TEST(FsFeedback, ScaledVictimSelection)
{
    MockOps ops({20, 5});
    FutilityScalingFeedback s;
    s.bind(&ops, 2);
    s.setTarget(0, 10);
    s.setTarget(1, 10);
    for (int i = 0; i < 16; ++i)
        s.onInsertion(0); // partition 0 factor becomes 2
    CandidateVec c = cands({{1, 0, 0.5}, {2, 1, 0.8}});
    // 0.5 * 2 = 1.0 > 0.8 * 1.
    EXPECT_EQ(s.selectVictim(c, 0), 0u);
}

TEST(FsFeedback, SeedFactorsClampsToShiftGrid)
{
    MockOps ops({5, 5, 5});
    FutilityScalingFeedback s;
    s.bind(&ops, 3);
    // alpha=1 -> width 0; alpha=3.7 -> round(log2 3.7)=2 -> factor
    // 4; alpha=1e9 clamps to maxShiftWidth (7) -> factor 128.
    s.seedFactors({1.0, 3.7, 1e9});
    EXPECT_EQ(s.shiftWidth(0), 0u);
    EXPECT_DOUBLE_EQ(s.scalingFactor(0), 1.0);
    EXPECT_EQ(s.shiftWidth(1), 2u);
    EXPECT_DOUBLE_EQ(s.scalingFactor(1), 4.0);
    EXPECT_EQ(s.shiftWidth(2), 7u);
    EXPECT_DOUBLE_EQ(s.scalingFactor(2), 128.0);
}

TEST(FsFeedback, SeedFactorsFromClampedSolver)
{
    // The divergence-fallback path: seed the controller with
    // best-effort analytic alphas; the feedback loop still adjusts
    // from there.
    using namespace analytic;
    std::vector<PartitionSpec> parts{{0.6, 0.4}, {0.4, 0.6}};
    auto alphas = solveScalingFactorsClamped(parts, 16, 1e-7, 3);
    MockOps ops({20, 5});
    FutilityScalingFeedback s;
    s.bind(&ops, 2);
    s.setTarget(0, 10);
    s.setTarget(1, 10);
    s.seedFactors(alphas);
    // Widths are on the ratio^k grid and factors match them.
    for (PartId p = 0; p < 2; ++p)
        EXPECT_DOUBLE_EQ(s.scalingFactor(p),
                         std::pow(2.0, s.shiftWidth(p)));
    // Controller keeps working after seeding.
    for (int i = 0; i < 16; ++i)
        s.onInsertion(0);
    EXPECT_DOUBLE_EQ(s.scalingFactor(0),
                     std::pow(2.0, s.shiftWidth(0)));
}

TEST(SchemeFactory, BuildsAndParses)
{
    for (SchemeKind kind :
         {SchemeKind::None, SchemeKind::PF, SchemeKind::FsAnalytic,
          SchemeKind::Fs, SchemeKind::Vantage, SchemeKind::Prism,
          SchemeKind::WayPart}) {
        SchemeConfig cfg;
        cfg.kind = kind;
        cfg.ways = 4;
        auto s = makeScheme(cfg);
        ASSERT_NE(s, nullptr);
        EXPECT_EQ(schemeKindName(kind), s->name());
    }
    EXPECT_EQ(parseSchemeKind("fs"), SchemeKind::Fs);
    EXPECT_EQ(parseSchemeKind("vantage"), SchemeKind::Vantage);
}

} // namespace
} // namespace fscache
