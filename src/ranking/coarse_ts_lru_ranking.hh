/**
 * @file
 * Coarse-grain timestamp-based LRU (paper Section V.A; originally
 * from the zcache work [17]).
 *
 * Each partition has an 8-bit current timestamp, incremented every
 * K accesses to that partition, K = partitionSize / 16. A line is
 * tagged with its partition's current timestamp on install and on
 * every hit. The scheme-visible futility of a line is the unsigned
 * 8-bit distance (currentTS - lineTS) % 256, normalized to [0, 1].
 *
 * The exact LRU order is tracked alongside, as a one-class
 * ClassRankingBase (ranking/class_ranking_base.hh), so statistics
 * report the true rank futility; the scheme only ever sees the
 * coarse estimate, exactly like the paper's hardware.
 */

#ifndef FSCACHE_RANKING_COARSE_TS_LRU_RANKING_HH
#define FSCACHE_RANKING_COARSE_TS_LRU_RANKING_HH

#include <span>
#include <vector>

#include "ranking/class_ranking_base.hh"

namespace fscache
{

class TagStore;

/** See file comment. */
class CoarseTsLruRanking : public ClassRankingBase
{
  public:
    /**
     * @param num_lines line slots
     * @param tags tag store (for partition sizes; not owned)
     */
    CoarseTsLruRanking(LineId num_lines, const TagStore *tags);

    void onInstall(LineId id, PartId part, AccessTime) override;
    void onHit(LineId id, AccessTime) override;
    void onRetag(LineId id, PartId new_part) override;
    void onRelocate(LineId from, LineId to) override;

    double schemeFutility(LineId id) const override;

    /** The exact order's records and the timestamps. */
    void prefetch(LineId first, std::uint32_t count) const override;

    /**
     * Batched estimate straight off the ts_/parts_ arrays: the
     * coarse estimate never reads the exact-order structure, so
     * this is one plain array read per candidate.
     */
    void schemeFutilityMany(std::span<const LineId> ids,
                            double *out) const override;

    std::string name() const override { return "coarse-ts-lru"; }

    /** Raw timestamp distance (0 .. tsMax()), for the schemes that
     *  scale integer futility by bit shifts. */
    std::uint32_t tsDistance(LineId id) const;

    static constexpr std::uint32_t tsMax() { return kTsMask; }

    /** Current timestamp of a partition (for tests). */
    std::uint32_t
    currentTs(PartId part) const
    {
        return part < parts_.size() ? parts_[part].currentTs : 0;
    }

  private:
    /** 8-bit timestamps. */
    static constexpr std::uint32_t kTsMask = 0xff;
    /** K = partition size >> kGranShift, i.e. size / 16. */
    static constexpr std::uint32_t kGranShift = 4;

    struct PartState
    {
        std::uint32_t currentTs = 0;
        std::uint32_t accessesSinceBump = 0;
    };

    PartState &partState(PartId part);

    /** Tag `id` with `part`'s current timestamp and advance that
     *  partition's clock. Named apart from ClassRankingBase::touch,
     *  which moves the line in the exact order. */
    void tagTimestamp(LineId id, PartId part);

    const TagStore *tags_;
    std::vector<std::uint8_t> ts_;
    std::vector<PartState> parts_;
};

} // namespace fscache

#endif // FSCACHE_RANKING_COARSE_TS_LRU_RANKING_HH
