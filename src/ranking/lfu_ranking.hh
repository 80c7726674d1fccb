/**
 * @file
 * LFU futility ranking: lines ranked by access frequency, recency
 * breaking ties (so the ranking stays a strict total order, as the
 * paper's model requires). The frequency is the line's class in
 * ClassRankingBase (ranking/class_ranking_base.hh).
 */

#ifndef FSCACHE_RANKING_LFU_RANKING_HH
#define FSCACHE_RANKING_LFU_RANKING_HH

#include <span>

#include "ranking/class_ranking_base.hh"

namespace fscache
{

/** See file comment. */
class LfuRanking : public ClassRankingBase
{
  public:
    explicit LfuRanking(LineId num_lines)
        : ClassRankingBase(num_lines, kInitialClasses)
    {
    }

    void
    onInstall(LineId id, PartId part, AccessTime) override
    {
        place(id, part, 1);
    }

    void
    onHit(LineId id, AccessTime) override
    {
        std::uint32_t freq = classOf(id);
        touch(id, freq < kFreqCap ? freq + 1 : freq);
    }

    double
    schemeFutility(LineId id) const override
    {
        return exactFutility(id);
    }

    bool schemeFutilityIsExact() const override { return true; }

    void
    schemeFutilityMany(std::span<const LineId> ids,
                       double *out) const override
    {
        exactFutilityManyImpl(ids, out);
    }

    std::string name() const override { return "lfu"; }

    std::uint32_t frequency(LineId id) const { return classOf(id); }

    /** Frequencies saturate here. */
    static constexpr std::uint32_t kFreqCap = (1u << 19) - 1;

  private:
    /** Class axis before the first growth: frequencies up to 15. */
    static constexpr std::uint32_t kInitialClasses = 16;
};

} // namespace fscache

#endif // FSCACHE_RANKING_LFU_RANKING_HH
