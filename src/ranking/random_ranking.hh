/**
 * @file
 * Random futility ranking: every futility query returns a fresh
 * uniform draw, so "evict the most futile candidate" selects a
 * uniformly random victim. This is the worst-case associativity
 * baseline — the diagonal eviction-futility CDF F(x) = x with
 * AEF = 0.5 (paper Section III.C's N >= R limit).
 *
 * (A per-residence *stable* random value would NOT give the
 * diagonal: high-valued lines die young, so survivors skew low and
 * evictions skew toward young, useful lines.)
 *
 * Exact futility is still reported against true LRU order, kept as
 * a one-class ClassRankingBase (ranking/class_ranking_base.hh).
 */

#ifndef FSCACHE_RANKING_RANDOM_RANKING_HH
#define FSCACHE_RANKING_RANDOM_RANKING_HH

#include "common/random.hh"
#include "ranking/class_ranking_base.hh"

namespace fscache
{

/** See file comment. */
class RandomRanking : public ClassRankingBase
{
  public:
    RandomRanking(LineId num_lines, Rng rng)
        : ClassRankingBase(num_lines, 1), rng_(rng)
    {
    }

    void
    onInstall(LineId id, PartId part, AccessTime) override
    {
        place(id, part, 0);
    }

    void onHit(LineId id, AccessTime) override { touch(id, 0); }

    double
    schemeFutility(LineId) const override
    {
        return rng_.uniform();
    }

    std::string name() const override { return "random"; }

  private:
    mutable Rng rng_;
};

} // namespace fscache

#endif // FSCACHE_RANKING_RANDOM_RANKING_HH
