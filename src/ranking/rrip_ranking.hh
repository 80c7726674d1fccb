/**
 * @file
 * RRIP futility ranking (Static RRIP, Jaleel et al., ISCA 2010) as
 * an additional practical futility policy.
 *
 * The paper's FS is "conceptually independent of a futility ranking
 * scheme" (Section VI); besides the coarse-timestamp LRU it
 * evaluates, any policy that orders lines by predicted uselessness
 * plugs in. SRRIP ranks lines by a saturating M-bit re-reference
 * prediction value (RRPV): inserted lines start at 2^M - 2
 * ("long"), hits promote to 0 ("near-immediate"), so scan-heavy
 * workloads that thrash LRU keep their reused core resident.
 *
 * Scheme futility is RRPV / (2^M - 1), with recency breaking ties.
 * The exact order behind worst-line queries and statistics is "RRIP
 * with LRU tie-break": class rrpvMax - RRPV in ClassRankingBase
 * (ranking/class_ranking_base.hh).
 */

#ifndef FSCACHE_RANKING_RRIP_RANKING_HH
#define FSCACHE_RANKING_RRIP_RANKING_HH

#include <span>
#include <vector>

#include "ranking/class_ranking_base.hh"

namespace fscache
{

/** See file comment. */
class RripRanking : public ClassRankingBase
{
  public:
    /**
     * @param num_lines line slots
     * @param rrpv_bits RRPV width M (SRRIP default 2)
     */
    explicit RripRanking(LineId num_lines,
                         std::uint32_t rrpv_bits = 2);

    void
    onInstall(LineId id, PartId part, AccessTime) override
    {
        lastTouch_[id] = ++clock_;
        place(id, part, 1); // RRPV rrpvMax - 1 ("long")
    }

    void
    onHit(LineId id, AccessTime) override
    {
        lastTouch_[id] = ++clock_;
        touch(id, rrpvMax_); // RRPV 0: hit promotion (SRRIP-HP)
    }

    void
    onRelocate(LineId from, LineId to) override
    {
        ClassRankingBase::onRelocate(from, to);
        // Last-touch is line metadata and must follow the line (the
        // base moves the RRPV's class), or a zcache relocation leaves
        // the moved line predicted by the destination slot's stale
        // state.
        lastTouch_[to] = lastTouch_[from];
        lastTouch_[from] = 0;
    }

    /**
     * RRPV dominates; recency breaks ties within an RRPV level
     * (standing in for SRRIP's aging sweep, which a candidate-list
     * model cannot express globally).
     */
    double
    schemeFutility(LineId id) const override
    {
        double tie =
            clock_ ? 1.0 - static_cast<double>(lastTouch_[id]) /
                               static_cast<double>(clock_)
                   : 0.0;
        return (static_cast<double>(rrpv(id)) + tie) /
               (rrpvMax_ + 1.0);
    }

    /** Batched estimate off the class and lastTouch_ arrays. */
    void
    schemeFutilityMany(std::span<const LineId> ids,
                       double *out) const override
    {
        for (std::size_t i = 0; i < ids.size(); ++i)
            out[i] = RripRanking::schemeFutility(ids[i]);
    }

    std::uint32_t rrpv(LineId id) const { return rrpvMax_ - classOf(id); }

    std::string name() const override { return "rrip"; }

  private:
    std::uint32_t rrpvMax_;
    std::vector<std::uint64_t> lastTouch_;
    std::uint64_t clock_ = 0;
};

} // namespace fscache

#endif // FSCACHE_RANKING_RRIP_RANKING_HH
