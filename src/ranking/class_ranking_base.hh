/**
 * @file
 * Shared machinery for every ranking whose order is touch order,
 * wholly or within a class: a line in a higher class is more useful,
 * and within a class the more recently touched line is. Every
 * install and every hit puts the line at the newest end of its
 * (possibly new) class:
 *
 *  - exact LRU, coarse LRU's exact shadow order and Random's exact
 *    order: one class, so the order is plain recency;
 *  - LFU: the class is the access frequency;
 *  - RRIP: the class is rrpvMax - RRPV.
 *
 * Lines sit on the recency stamp axis (ranking/stamp_axis.hh). Per
 * partition, a FenwickTree over the class axis counts the
 * partition's lines per class; the axis doubles on demand to cover
 * the largest class the partition has seen (OptRanking's next-use
 * axis, a BitFenwick per partition, grows the same way). Each
 * nonempty (partition, class) bucket marks its lines' stamps in a
 * BitFenwick drawn from a pool shared by all partitions, and names
 * its partition and class. A bucket
 * that empties is all zero again, so it returns to the pool and is
 * reused without clearing.
 *
 * Each line slot keeps one 8-byte record: its stamp and its bucket
 * (none when absent). The bucket gives the line's partition and
 * class, so a touch that stays in its class — every hit of a
 * one-class ranking — goes from the record straight to the bucket
 * it updates.
 *
 * Exact rank = size - (lines in lower classes) - (older lines of
 * the same class); the least useful line is the oldest of the
 * lowest occupied class. Stamps are assigned in call order, so this
 * is the (class, touch clock, line id) order of a per-touch key:
 * every rank is that order's integer and every futility the same
 * double.
 *
 * Memory: a bucket costs 3/16 B per stamp (common/fenwick.hh), and
 * the pool holds the most buckets ever nonempty at once. A
 * one-class ranking holds one bucket per nonempty partition; RRIP
 * at most rrpvMax + 1 per partition; LFU reaches k nonempty buckets
 * in a partition only after at least k(k-1)/2 hits, since its i-th
 * lowest occupied class holds a line hit at least i - 1 times. A
 * partition's class axis costs 8 B per class.
 */

#ifndef FSCACHE_RANKING_CLASS_RANKING_BASE_HH
#define FSCACHE_RANKING_CLASS_RANKING_BASE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/fenwick.hh"
#include "ranking/futility_ranking.hh"
#include "ranking/stamp_axis.hh"

namespace fscache
{

/** See file comment. */
class ClassRankingBase : public FutilityRanking
{
  public:
    /**
     * @param num_lines line slots
     * @param classes initial class-axis length of each partition
     *        (rounded up to a power of two); an axis grows past it
     *        on demand
     */
    ClassRankingBase(LineId num_lines, std::uint32_t classes);

    void onEvict(LineId id) override;
    void onRelocate(LineId from, LineId to) override;
    void onRetag(LineId id, PartId new_part) override;

    double exactFutility(LineId id) const override;
    void prefetch(LineId first, std::uint32_t count) const override;
    LineId worstIn(PartId part) const override;
    std::uint32_t partLines(PartId part) const override;

    PartId
    partOf(LineId id) const override
    {
        std::uint32_t b = lines_[id].bucket;
        return b == kNoBucket ? kInvalidPart : pool_[b].part;
    }

    std::string auditInvariants() const override;
    bool corruptRankNodeForFaultInjection() override;

  protected:
    /** Insert a not-present line as the newest of class `cls`. */
    void place(LineId id, PartId part, std::uint32_t cls);

    /** Move a present line to the newest of class `cls` (hit path). */
    void touch(LineId id, std::uint32_t cls);

    /** Class of a present line. */
    std::uint32_t
    classOf(LineId id) const
    {
        return pool_[lines_[id].bucket].cls;
    }

    bool present(LineId id) const { return lines_[id].bucket != kNoBucket; }

    /**
     * Batched exactFutility() for rankings whose scheme futility IS
     * the exact rank (exact LRU, LFU): direct prefix-count queries.
     */
    void exactFutilityManyImpl(std::span<const LineId> ids,
                               double *out) const;

  private:
    /** No bucket: an empty (partition, class) pair, or an absent
     *  line. */
    static constexpr std::uint32_t kNoBucket = 0xffffffffu;

    /** A pooled bucket; cls and part are stale while it is free. */
    struct Bucket
    {
        /** Marks the stamps of the bucket's lines. */
        BitFenwick stamps;
        std::uint32_t cls = 0;
        PartId part = kInvalidPart;
    };

    struct Part
    {
        /** Lines per class; its capacity is the class-axis length. */
        FenwickTree classes;
        /** Pool index of each class's bucket, or kNoBucket; one
         *  entry per class-axis position. */
        std::vector<std::uint32_t> bucketAt;
        /** Resident lines. Kept apart from the Fenwick totals so the
         *  corruption fault hook has an independently auditable
         *  counter to damage. */
        std::uint32_t size = 0;
    };

    /** A line slot's record (see file comment). */
    struct Line
    {
        std::uint32_t stamp = 0;
        std::uint32_t bucket = kNoBucket;
    };
    static_assert(sizeof(Line) == 8, "an 8-byte record per line");

    /** Exact rank in [1, size] (1 = most useful) over the
     *  partition's size. */
    double futilityOf(LineId id) const;

    /** Enter class `cls` of `part` at stamp `pos`, drawing a bucket
     *  for an empty class; returns the bucket. No size bookkeeping. */
    std::uint32_t enter(PartId part, std::uint32_t cls,
                        std::uint32_t pos);

    /** Leave bucket `b` at stamp `pos`, returning the bucket to the
     *  pool if it empties. No size bookkeeping. */
    void leave(std::uint32_t b, std::uint32_t pos);

    /** Give `id` the newest stamp (in its record, and returned),
     *  compacting the axis (re-stamping the lines and re-marking the
     *  buckets) when it is full. */
    std::uint32_t newStamp(LineId id);

    /** Grow `p`'s class axis to cover `cls`. */
    static void ensureClass(Part &p, std::uint32_t cls);
    void ensurePart(PartId part);

    StampAxis axis_;
    /** Class-axis length of a new partition. */
    std::uint32_t initialClasses_;
    std::vector<Part> parts_;
    /** Every bucket ever drawn, in use or free. */
    std::vector<Bucket> pool_;
    /** Pool indexes of the free (all-zero) buckets. */
    std::vector<std::uint32_t> free_;
    std::vector<Line> lines_;
};

} // namespace fscache

#endif // FSCACHE_RANKING_CLASS_RANKING_BASE_HH
