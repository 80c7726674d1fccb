/**
 * @file
 * Shared machinery for rankings whose exact per-partition order IS
 * recency — every install and every hit moves the line to the
 * newest end, nothing ever re-keys to the middle (exact LRU, the
 * coarse-timestamp LRU's exact shadow order, Random's exact order).
 *
 * That monotonicity admits an index cheaper than any balanced
 * tree: lines are laid out on the append-only recency stamp axis
 * (ranking/stamp_axis.hh) and a per-partition BitFenwick
 * (common/fenwick.hh) marks the stamps of the partition's resident
 * lines. Exact rank = partition size minus the count of older
 * residents; the least-recent line is the first marked stamp. Every
 * operation is O(log capacity) over contiguous arrays — no node
 * allocation, no pointer chasing, no rebalancing. A stamp holds at
 * most one line, so the index is one bit per stamp plus a count per
 * 64 stamps: the axis spans 2x the whole cache's lines for every
 * partition, and a 4-byte count per stamp (a plain FenwickTree) made
 * 32 partitions of a 131072-line cache hold 32 MB of index where the
 * bits take 1.5 MB.
 *
 * Stamps are assigned in call order, so the order is exactly the
 * (strictly increasing usefulness clock, line id) order of a
 * per-access clock key: every rank is that order's integer and
 * every futility the same double. OPT keeps its own index over
 * next-use times (ranking/opt_ranking.hh); LFU and RRIP, whose order
 * is touch order within a class, share this stamp axis through
 * ClassRankingBase (ranking/class_ranking_base.hh).
 */

#ifndef FSCACHE_RANKING_RECENCY_RANKING_BASE_HH
#define FSCACHE_RANKING_RECENCY_RANKING_BASE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/fenwick.hh"
#include "ranking/futility_ranking.hh"
#include "ranking/stamp_axis.hh"

namespace fscache
{

/** See file comment. */
class RecencyRankingBase : public FutilityRanking
{
  public:
    explicit RecencyRankingBase(LineId num_lines);

    void onEvict(LineId id) override;
    void onRelocate(LineId from, LineId to) override;
    void onRetag(LineId id, PartId new_part) override;

    double exactFutility(LineId id) const override;
    LineId worstIn(PartId part) const override;
    std::uint32_t partLines(PartId part) const override;
    PartId partOf(LineId id) const override { return partOf_[id]; }
    std::string auditInvariants() const override;
    bool corruptRankNodeForFaultInjection() override;

  protected:
    /** Insert a not-present line as its partition's newest. */
    void placeNewest(LineId id, PartId part);

    /** Move a present line to its partition's newest (hit path). */
    void touchNewest(LineId id);

    /** Remove a present line. */
    void remove(LineId id);

    /**
     * Batched exactFutility() for rankings whose scheme futility IS
     * the exact rank (exact LRU): direct prefix-count queries.
     */
    void exactFutilityManyImpl(std::span<const LineId> ids,
                               double *out) const;

    bool present(LineId id) const { return present_[id] != 0; }

  private:
    /** Newest stamp for `id`, compacting the axis (and re-marking
     *  the partition indexes) when it is full. */
    std::uint32_t newStamp(LineId id);

    /** Grow the per-partition structures to cover `part`. */
    void ensurePart(PartId part);

    StampAxis axis_;
    /** Per-partition mark-per-resident index over the stamp axis. */
    std::vector<BitFenwick> fens_;
    /** Per-partition resident-line counts. Kept separate from the
     *  Fenwick totals so the corruption fault hook has an
     *  independently-auditable counter to damage. */
    std::vector<std::uint32_t> size_;
    std::vector<PartId> partOf_;
    /**
     * Byte- (not bit-) backed presence flags: every hot operation
     * tests this once per access, and vector<bool>'s masked bit
     * loads cost more than the 8x memory on these hot checks.
     */
    std::vector<std::uint8_t> present_;
};

} // namespace fscache

#endif // FSCACHE_RANKING_RECENCY_RANKING_BASE_HH
