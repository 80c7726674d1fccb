/**
 * @file
 * Replacement-based partitioning scheme interface (the paper's
 * "Replacement Policy" component, Section III.A).
 *
 * On every replacement the owner hands the scheme the candidate
 * list (line, partition, scheme-visible futility in [0,1]) and the
 * inserting partition; the scheme returns the index of the victim.
 * Schemes see partition occupancies and may demote lines between
 * partitions (Vantage) through the PartitionOps hook, which keeps
 * tag-store and ranking bookkeeping centralized in the owner.
 */

#ifndef FSCACHE_PARTITION_PARTITION_SCHEME_HH
#define FSCACHE_PARTITION_PARTITION_SCHEME_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/candidate.hh"
#include "common/types.hh"

namespace fscache
{

class TagStore;

/** Owner-provided services available to schemes. */
class PartitionOps
{
  public:
    virtual ~PartitionOps() = default;

    /** Current occupancy of a partition, in lines. */
    virtual std::uint32_t actualSize(PartId part) const = 0;

    /** Total line slots in the cache. */
    virtual LineId cacheLines() const = 0;

    /** Move a valid line to another partition (Vantage demotion). */
    virtual void demote(LineId line, PartId to_part) = 0;

    /**
     * Exact normalized rank futility of a valid line in (0, 1].
     * Used by schemes whose thresholds are defined on rank
     * fractions (Vantage apertures); hardware estimates these from
     * coarse timestamps with dedicated feedback, which we abstract.
     */
    virtual double exactFutility(LineId line) const = 0;
};

/** See file comment. */
class PartitionScheme
{
  public:
    virtual ~PartitionScheme() = default;

    /**
     * Attach to an owner. Called once before any other method.
     *
     * @param ops owner services (outlives the scheme)
     * @param num_parts number of externally visible partitions
     */
    virtual void bind(PartitionOps *ops, std::uint32_t num_parts);

    /** Set a partition's target size in lines. */
    virtual void setTarget(PartId part, std::uint32_t lines);

    std::uint32_t
    target(PartId part) const
    {
        return part < targets_.size() ? targets_[part] : 0;
    }

    /**
     * Pick the victim among the candidates (struct-of-arrays; see
     * cache/candidate.hh). Entries for invalid slots carry part ==
     * kInvalidPart and futility -1.0 and must never be chosen (at
     * least one valid entry is guaranteed). May demote candidates
     * via ops. Implementations scan the futility/part arrays with
     * the common/simd.hh scans.
     *
     * @return index into cands
     */
    virtual std::uint32_t selectVictim(CandidateSoA &cands,
                                       PartId incoming) = 0;

    /** A line of `part` was (or is about to be) inserted. */
    virtual void onInsertion(PartId part) { (void)part; }

    /** A line of `part` was evicted. */
    virtual void onEviction(PartId part) { (void)part; }

    /**
     * Choose an invalid candidate slot to install into without an
     * eviction, or kInvalidLine to force the eviction path. The
     * default takes the first invalid slot; placement-restricted
     * schemes (way partitioning) only accept slots they own.
     */
    virtual LineId pickFreeSlot(const std::vector<LineId> &cand_slots,
                                const TagStore &tags,
                                PartId incoming) const;

    /**
     * Fraction of the cache the scheme can actually manage with
     * partition targets (Vantage: 1 - u; everything else: 1).
     * Allocation policies scale targets by this.
     */
    virtual double managedFraction() const { return 1.0; }

    virtual std::string name() const = 0;

  protected:
    PartitionOps *ops_ = nullptr;
    std::uint32_t numParts_ = 0;
    std::vector<std::uint32_t> targets_;
};

} // namespace fscache

#endif // FSCACHE_PARTITION_PARTITION_SCHEME_HH
