/**
 * @file
 * Futility ranking interface (the paper's "Futility Ranking"
 * component, Section III.A).
 *
 * A ranking maintains a strict total order of line uselessness
 * within each partition and exposes two futility views:
 *
 *  - schemeFutility(): the estimate a hardware scheme would see,
 *    normalized to [0, 1] (e.g. 8-bit coarse-timestamp distance /
 *    255). Partitioning schemes decide with this.
 *  - exactFutility(): the true normalized rank f = r / M in (0, 1].
 *    Statistics (AEF, associativity CDFs) always use this, matching
 *    the paper's evaluation of the feedback design against the exact
 *    futility definition.
 */

#ifndef FSCACHE_RANKING_FUTILITY_RANKING_HH
#define FSCACHE_RANKING_FUTILITY_RANKING_HH

#include <cstddef>
#include <span>
#include <string>

#include "common/types.hh"

namespace fscache
{

/** See file comment. */
class FutilityRanking
{
  public:
    virtual ~FutilityRanking() = default;

    /**
     * A line was installed. Called after the tag store reflects the
     * install. @param next_use OPT annotation (ignored by most).
     */
    virtual void onInstall(LineId id, PartId part,
                           AccessTime next_use) = 0;

    /** The line was hit. */
    virtual void onHit(LineId id, AccessTime next_use) = 0;

    /** The line is about to be evicted (still valid in the tags). */
    virtual void onEvict(LineId id) = 0;

    /** The line moved slots (zcache relocation); `to` was free. */
    virtual void onRelocate(LineId from, LineId to) = 0;

    /**
     * The line moved partitions (Vantage demotion); its rank
     * metadata follows it into the new partition.
     */
    virtual void onRetag(LineId id, PartId new_part) = 0;

    /** Scheme-visible futility estimate in [0, 1]. */
    virtual double schemeFutility(LineId id) const = 0;

    /**
     * Batched schemeFutility(): out[i] = schemeFutility(ids[i]).
     * The miss path queries all candidates through this one virtual
     * call instead of one per candidate. The default preserves the
     * serial loop's per-id query order — rankings with stateful
     * queries (random's per-call RNG draw) depend on it; rankings
     * backed by plain arrays or a shared order structure override
     * it to amortize the per-query overhead.
     */
    virtual void
    schemeFutilityMany(std::span<const LineId> ids, double *out) const
    {
        for (std::size_t i = 0; i < ids.size(); ++i)
            out[i] = schemeFutility(ids[i]);
    }

    /** Exact normalized futility rank in (0, 1]. */
    virtual double exactFutility(LineId id) const = 0;

    /**
     * True when schemeFutility() is exactFutility() bit-for-bit
     * (idealized rankings). Lets the access miss path reuse the
     * already-computed candidate futility for the chosen victim
     * instead of paying a second rank query per eviction.
     */
    virtual bool schemeFutilityIsExact() const { return false; }

    /**
     * Hint that lines [first, first + count) are touched soon
     * (PartitionedCache::prefetch): prefetch their per-line records.
     * Never changes state. Default: nothing.
     */
    virtual void
    prefetch(LineId first, std::uint32_t count) const
    {
        (void)first;
        (void)count;
    }

    /** Least useful resident line of a partition, or kInvalidLine. */
    virtual LineId worstIn(PartId part) const = 0;

    /** Partition a resident line is ranked under. */
    virtual PartId partOf(LineId id) const = 0;

    /** Resident line count the ranking tracks for a partition. */
    virtual std::uint32_t partLines(PartId part) const = 0;

    virtual std::string name() const = 0;

    /**
     * Structural self-audit (FS_AUDIT=paranoid; see src/check):
     * verify whatever internal order structures the ranking keeps.
     * Returns "" when consistent, else the first violation found.
     * The default has nothing to audit.
     */
    virtual std::string auditInvariants() const
    { return std::string(); }

    /**
     * Deliberately damage the ranking's order index (test-only;
     * tests/test_check.cc plants it). The damage
     * must be silent and navigation-safe — detectable only by the
     * audits / shadow model, never a crash. Returns false when the
     * ranking keeps no such index (nothing was corrupted).
     */
    virtual bool corruptRankNodeForFaultInjection() { return false; }
};

} // namespace fscache

#endif // FSCACHE_RANKING_FUTILITY_RANKING_HH
