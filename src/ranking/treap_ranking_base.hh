/**
 * @file
 * Shared machinery for rankings that keep an exact per-partition
 * order: an order-statistic treap per partition keyed by a
 * "usefulness" value (larger = more useful), plus per-line metadata.
 *
 * Concrete rankings derive and translate their policy (frequency,
 * RRIP age) into the primary key: LFU and RRIP, whose updates move
 * lines to arbitrary points of the order. Rankings whose order is
 * pure recency — every update moves the line to the newest end —
 * use the cheaper Fenwick-backed RecencyRankingBase instead
 * (ranking/recency_ranking_base.hh), and OPT keeps its own Fenwick
 * index over next-use times (ranking/opt_ranking.hh).
 */

#ifndef FSCACHE_RANKING_TREAP_RANKING_BASE_HH
#define FSCACHE_RANKING_TREAP_RANKING_BASE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/order_stat_treap.hh"
#include "ranking/futility_ranking.hh"

namespace fscache
{

/** See file comment. */
class TreapRankingBase : public FutilityRanking
{
  public:
    explicit TreapRankingBase(LineId num_lines);

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
    /**
     * Usefulness key: ordered by primary, ties broken by line id
     * (which also makes keys unique when primaries collide, e.g.
     * equal LFU counts).
     */
    struct Key
    {
        std::uint64_t primary = 0;
        LineId line = kInvalidLine;

        bool
        operator<(const Key &o) const
        {
            if (primary != o.primary)
                return primary < o.primary;
            return line < o.line;
        }

        bool
        operator==(const Key &o) const
        {
            return primary == o.primary && line == o.line;
        }
    };

    /** Insert a not-present line with the given usefulness. */
    void place(LineId id, PartId part, std::uint64_t primary);

    /** Update a present line's usefulness (same partition). */
    void reKey(LineId id, std::uint64_t primary);

    /** Remove a present line. */
    void remove(LineId id);

    /**
     * Batched exactFutility() for rankings whose scheme futility IS
     * the exact rank (LFU): direct rank queries.
     */
    void exactFutilityManyImpl(std::span<const LineId> ids,
                               double *out) const;

  private:
    OrderStatTreap<Key> &treapFor(PartId part);
    const OrderStatTreap<Key> *treapFor(PartId part) const;

    std::vector<OrderStatTreap<Key>> treaps_;
    std::vector<Key> keyOf_;
    std::vector<PartId> partOf_;
    /**
     * Byte- (not bit-) backed presence flags: reKey/place/remove
     * test this once per access, and vector<bool>'s masked bit loads
     * cost more than the 8x memory on these hot checks.
     */
    std::vector<std::uint8_t> present_;
};

} // namespace fscache

#endif // FSCACHE_RANKING_TREAP_RANKING_BASE_HH
