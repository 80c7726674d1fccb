/**
 * @file
 * Exact LRU futility ranking: lines ranked by last access time, as
 * a one-class ClassRankingBase (ranking/class_ranking_base.hh).
 */

#ifndef FSCACHE_RANKING_EXACT_LRU_RANKING_HH
#define FSCACHE_RANKING_EXACT_LRU_RANKING_HH

#include <span>

#include "ranking/class_ranking_base.hh"

namespace fscache
{

/** Exact (full-precision) LRU. schemeFutility == exactFutility. */
class ExactLruRanking : public ClassRankingBase
{
  public:
    explicit ExactLruRanking(LineId num_lines)
        : ClassRankingBase(num_lines, 1)
    {
    }

    void
    onInstall(LineId id, PartId part, AccessTime) override
    {
        place(id, part, 0);
    }

    void
    onHit(LineId id, AccessTime) override
    {
        touch(id, 0);
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

    std::string name() const override { return "lru"; }
};

} // namespace fscache

#endif // FSCACHE_RANKING_EXACT_LRU_RANKING_HH
