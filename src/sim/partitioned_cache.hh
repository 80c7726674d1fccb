/**
 * @file
 * PartitionedCache: the library's central facade. Composes a cache
 * array, a futility ranking and a partitioning scheme into a shared
 * last-level cache with per-partition statistics (hit/miss
 * counters, associativity distributions, size-deviation tracking).
 *
 * The replacement flow follows the paper's model: the array
 * provides candidates, the ranking provides their futility, the
 * scheme selects the victim, and the facade keeps all bookkeeping
 * (tag store, ranking, occupancy, stats) consistent — including
 * zcache relocations and Vantage demotions.
 */

#ifndef FSCACHE_SIM_PARTITIONED_CACHE_HH
#define FSCACHE_SIM_PARTITIONED_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/candidate.hh"
#include "common/annotations.hh"
#include "partition/partition_scheme.hh"
#include "ranking/futility_ranking.hh"
#include "stats/assoc_distribution.hh"
#include "stats/deviation_tracker.hh"

namespace fscache
{

namespace check
{
class ShadowCache;
} // namespace check

/** Hit/miss/insertion/eviction counters for one partition. */
struct CachePartStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;

    std::uint64_t accesses() const { return hits + misses; }

    double
    missRatio() const
    {
        std::uint64_t n = accesses();
        return n ? static_cast<double>(misses) / n : 0.0;
    }
};

/** What one access did. */
struct AccessOutcome
{
    bool hit = false;
    bool evicted = false;
    /** Owner partition of the evicted line (if evicted). */
    PartId victimOwner = kInvalidPart;
    /** Exact futility of the evicted line (if evicted). */
    double victimFutility = 0.0;
};

/** See file comment. */
class PartitionedCache : public PartitionOps
{
  public:
    /**
     * @param array cache organization
     * @param ranking futility ranking (built against array's tags)
     * @param scheme partitioning scheme
     * @param num_parts externally visible partitions
     */
    PartitionedCache(std::unique_ptr<CacheArray> array,
                     std::unique_ptr<FutilityRanking> ranking,
                     std::unique_ptr<PartitionScheme> scheme,
                     std::uint32_t num_parts);

    ~PartitionedCache(); // out of line: unique_ptr<ShadowCache>

    /** Set one partition's target size in lines. */
    void setTarget(PartId part, std::uint32_t lines);

    /** Set all targets (size must equal numPartitions()). */
    void setTargets(const std::vector<std::uint32_t> &targets);

    /**
     * Perform one access for a partition.
     *
     * @param part inserting/owning partition
     * @param addr line address
     * @param next_use OPT annotation (kNeverUsed when unused)
     */
    AccessOutcome access(PartId part, Addr addr,
                         AccessTime next_use = kNeverUsed);

    /**
     * Hint that addr is accessed soon: the array prefetches the
     * slots lookup() reads for it and the ranking their per-line
     * records. Changes no state, so no result depends on it;
     * runUntimed calls it for each thread's next record.
     */
    void
    prefetch(Addr addr) const
    {
        CacheArray::SlotRange slots = array_->prefetch(addr);
        if (slots.count != 0)
            ranking_->prefetch(slots.first, slots.count);
    }

    std::uint32_t numPartitions() const { return numParts_; }

    const CachePartStats &stats(PartId part) const
    { return stats_[part]; }

    const AssocDistribution &assocDist(PartId part) const
    { return assocDist_[part]; }

    const DeviationTracker &deviation(PartId part) const
    { return deviation_[part]; }

    /** Clear counters/distributions (e.g. after warmup). Targets
     *  and cache contents are preserved. */
    void resetStats();

    /**
     * Sample partition sizes into the deviation trackers every
     * `evictions`-th eviction (default 1 = the paper's every-
     * eviction discipline). Sparse sampling is statistically
     * equivalent for occupancy/MAD and much cheaper on many-
     * partition runs.
     */
    void
    setDeviationSampleInterval(std::uint32_t evictions)
    {
        devSampleInterval_ = evictions ? evictions : 1;
    }

    CacheArray &array() { return *array_; }
    FutilityRanking &ranking() { return *ranking_; }
    PartitionScheme &scheme() { return *scheme_; }
    const PartitionScheme &scheme() const { return *scheme_; }

    // PartitionOps
    std::uint32_t
    actualSize(PartId part) const override
    {
        return array_->tags().partSize(part);
    }

    LineId cacheLines() const override { return array_->numLines(); }

    void demote(LineId line, PartId to_part) override;

    double
    exactFutility(LineId line) const override
    {
        return ranking_->exactFutility(line);
    }

  private:
    void buildCandidates();

    /**
     * The miss path of access(): stats, placement, eviction,
     * install, deviation sampling. Out of line so the hit arm of
     * access() stays small.
     */
    AccessOutcome accessMiss(PartId part, Addr addr,
                             AccessTime next_use);

    // Self-checking (src/check; FS_COLD — only active under
    // FS_AUDIT/FS_SHADOW; see access() for the single cached-bool
    // gate that keeps the hot path clean. The no-alloc-on-hot-path
    // pass stops at these: diagnostic mode may allocate freely).
    FS_COLD void selfCheckHit(LineId id, PartId part, Addr addr,
                              AccessTime next_use);
    FS_COLD void selfCheckMiss(PartId part, Addr addr);
    FS_COLD void selfCheckEviction(Addr addr, PartId part,
                                   LineId victim, PartId owner,
                                   double fut);
    /** FS_SHADOW: recompute the scheme's argmax over candBuf_ and
     *  verify `chosen` is a legal victim (sim/victim_check.hh). */
    FS_COLD void selfCheckVictimChoice(std::uint32_t chosen,
                                       PartId incoming);
    FS_COLD void selfCheckInstall(LineId slot, PartId part,
                                  Addr addr, AccessTime next_use);
    FS_COLD void runAudits();

    std::unique_ptr<CacheArray> array_;
    std::unique_ptr<FutilityRanking> ranking_;
    std::unique_ptr<PartitionScheme> scheme_;
    std::uint32_t numParts_;

    std::vector<CachePartStats> stats_;
    std::vector<AssocDistribution> assocDist_;
    std::vector<DeviationTracker> deviation_;

    std::vector<LineId> slotBuf_;
    CandidateSoA candBuf_;
    /** buildCandidates() scratch for batching the ranking queries
     *  when some candidate slots are invalid: positions of the
     *  valid slots in candBuf_, their lines, and the batched
     *  futilities to scatter back. Reused; capacity saturates at
     *  the associativity. */
    std::vector<std::uint32_t> validIdx_;
    std::vector<LineId> lineScratch_;
    std::vector<double> futScratch_;
    /** Cached ranking_->schemeFutilityIsExact() (miss-path reuse). */
    bool schemeFutilityExact_ = false;
    std::uint32_t devSampleInterval_ = 1;
    std::uint32_t evictionsSinceSample_ = 0;
    /** Accesses so far, counted on the self-check paths only (every
     *  access takes exactly one of selfCheckHit / selfCheckMiss when
     *  selfCheck_); paces the audits and numbers the shadow's
     *  accesses. */
    std::uint64_t accessTick_ = 0;

    /** Lockstep reference model (FS_SHADOW=1), else null. */
    std::unique_ptr<check::ShadowCache> shadow_;
    /** check::auditLevel() snapshotted at construction. */
    std::uint8_t auditLevel_ = 0;
    /** auditLevel_ != off || shadow_: the only check the access hot
     *  path pays when self-checking is disabled. */
    bool selfCheck_ = false;
};

} // namespace fscache

#endif // FSCACHE_SIM_PARTITIONED_CACHE_HH
