/**
 * @file
 * OPT (Belady) futility ranking: lines ranked by time to next
 * reference; the line reused farthest in the future is the most
 * futile, never-reused lines most of all (paper Section III.A).
 *
 * Requires traces annotated by annotateNextUse().
 *
 * Order: more useful = smaller next use, then larger line id. The
 * order lives on one next-use axis shared by every partition, with
 * Fenwick indexes (common/fenwick.hh) per partition:
 *
 *  - Occupied next uses: a BitFenwick over the axis marks the
 *    positions that hold at least one of the partition's lines
 *    (3/16 B per position). The axis doubles on demand to cover
 *    the largest next use seen (the ranking is not told the trace
 *    length).
 *  - Lines at a position: one head per position, shared by every
 *    partition, chains the lines with that next use through a
 *    per-line link. A thread's next uses index its own trace, so a
 *    chain holds about one line per partition that runs a thread.
 *  - Equal next uses within one partition: a FenwickTree counts the
 *    partition's lines beyond the first at each position. They need
 *    lines keyed by several traces in one partition, which the
 *    interface allows but no bench produces, so the tree is
 *    allocated the first time the partition shares a position, and
 *    never before.
 *  - Never-used lines all tie, so they are ordered by line id alone:
 *    a BitFenwick over line ids (3/16 B per id, the id axis
 *    rounded up to a power of two, per partition).
 *
 * Exact rank = 1 + (lines with a smaller next use) + (ties with a
 * larger id), the integer of the (usefulness, line id) key order:
 * the occupied positions below, plus, once the duplicate tree
 * exists, the duplicates below and the partition's lines in the
 * position's chain with a larger id. The least useful line is the
 * smallest-id never-used line, else the partition's smallest id in
 * the chain at its highest occupied position. Every operation is
 * O(log axis) array arithmetic plus a walk of one chain.
 */

#ifndef FSCACHE_RANKING_OPT_RANKING_HH
#define FSCACHE_RANKING_OPT_RANKING_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/fenwick.hh"
#include "ranking/futility_ranking.hh"

namespace fscache
{

/** See file comment. */
class OptRanking : public FutilityRanking
{
  public:
    explicit OptRanking(LineId num_lines);

    void onInstall(LineId id, PartId part,
                   AccessTime next_use) override;
    void onHit(LineId id, AccessTime next_use) override;
    void onEvict(LineId id) override;
    void onRelocate(LineId from, LineId to) override;
    void onRetag(LineId id, PartId new_part) override;

    double
    schemeFutility(LineId id) const override
    {
        return exactFutility(id);
    }

    bool schemeFutilityIsExact() const override { return true; }

    void schemeFutilityMany(std::span<const LineId> ids,
                            double *out) const override;
    double exactFutility(LineId id) const override;
    LineId worstIn(PartId part) const override;
    std::uint32_t partLines(PartId part) const override;
    PartId partOf(LineId id) const override { return partOf_[id]; }
    std::string name() const override { return "opt"; }
    std::string auditInvariants() const override;
    bool corruptRankNodeForFaultInjection() override;

    /** Bytes the index holds. */
    std::uint64_t bytes() const;

  private:
    /** Axis position of a never-used line (it is on no axis). */
    static constexpr std::uint32_t kNeverPos = 0xffffffffu;

    struct Part
    {
        /** Next-use positions holding at least one of its lines. */
        BitFenwick occupied;
        /** Its lines beyond the first at each next-use position;
         *  empty (capacity 0) until two of them share a position. */
        FenwickTree dups;
        /** Never-used lines, marked by line id. */
        BitFenwick never;
        /** Resident lines. Kept apart from the Fenwick totals so the
         *  corruption fault hook has an independently auditable
         *  counter to damage. */
        std::uint32_t size = 0;
    };

    /** Axis position for a next use, growing the axis to cover it. */
    std::uint32_t axisPos(AccessTime next_use);
    void growAxis(std::uint32_t pos);
    void ensurePart(PartId part);

    /** Enter / leave `part`'s order at `pos` (no size bookkeeping). */
    void link(LineId id, PartId part, std::uint32_t pos);
    void unlink(LineId id, PartId part, std::uint32_t pos);

    void place(LineId id, PartId part, std::uint32_t pos);
    void remove(LineId id);

    /** Exact rank in [1, size]: 1 = most useful. */
    std::uint32_t rankOf(LineId id) const;

    /** Whether the chain at `pos` holds a line of `part`. */
    bool holdsPart(std::uint32_t pos, PartId part) const;

    LineId numLines_;
    /** Next-use axis length: a power of two above every position. */
    std::uint32_t axisCap_;
    /** First line at each next-use position, of any partition
     *  (kInvalidLine if none); nextAt_ chains the rest. */
    std::vector<LineId> headAt_;
    /** Next line at the same position. */
    std::vector<LineId> nextAt_;
    std::vector<std::uint32_t> posOf_;
    std::vector<PartId> partOf_;
    /** Byte- (not bit-) backed presence flags: every hot operation
     *  tests one per access, and vector<bool>'s masked bit loads
     *  cost more than the 8x memory there. */
    std::vector<std::uint8_t> present_;
    std::vector<Part> parts_;
};

} // namespace fscache

#endif // FSCACHE_RANKING_OPT_RANKING_HH
