/**
 * @file
 * Tag store: line-slot metadata, an optional address index, and
 * per-partition occupancy accounting.
 *
 * Every cache array shares this implementation; arrays only decide
 * *which* slots are replacement candidates for an address, and how
 * an address is found. An array whose placement is restricted (set-
 * associative, direct-mapped, skew, zcache) finds a line by scanning
 * the slots its address hashes to, as the hardware does, and builds
 * its store without the index; only the two unrestricted arrays
 * (random-candidates, fully-associative) look addresses up in it.
 * Partition retagging (Vantage demotions) and slot-to-slot moves
 * (zcache relocation) are first-class so occupancy accounting stays
 * centralized.
 */

#ifndef FSCACHE_CACHE_TAG_STORE_HH
#define FSCACHE_CACHE_TAG_STORE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/line.hh"
#include "common/flat_map.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace fscache
{

/** See file comment. */
class TagStore
{
  public:
    /** @param indexed keep the address index behind lookup() */
    explicit TagStore(LineId num_lines, bool indexed = true);

    LineId numLines() const { return numLines_; }

    const Line &line(LineId id) const { return lines_[id]; }

    bool indexed() const { return byAddr_.has_value(); }

    /**
     * Slot holding addr, or kInvalidLine; indexed stores only. Runs
     * once per simulated access — the byAddr_ index is a flat
     * open-addressing table (common/flat_map.hh) precisely to keep
     * this probe allocation-free and pointer-chase-free.
     */
    LineId
    lookup(Addr addr) const
    {
        fs_assert(byAddr_, "lookup in a tag store without an index");
        const LineId *slot = byAddr_->find(addr);
        return slot == nullptr ? kInvalidLine : *slot;
    }

    /** Install addr into an invalid slot. */
    void install(LineId id, Addr addr, PartId part);

    /** Invalidate a valid slot. */
    void evict(LineId id);

    /** Move a valid line's contents from slot `from` to invalid slot
     *  `to` (zcache relocation; unindexed stores only). */
    void move(LineId from, LineId to);

    /** Change a valid line's partition (Vantage demotion). */
    void retag(LineId id, PartId part);

    /** Size the occupancy counters to cover `part`, so no later
     *  install or retag into partitions up to it allocates. */
    void growPart(PartId part);

    /** Number of valid lines. */
    LineId validCount() const { return validCount_; }

    bool full() const { return validCount_ == numLines_; }

    /** Current occupancy of a partition, in lines. */
    std::uint32_t
    partSize(PartId part) const
    {
        return part < partSize_.size() ? partSize_[part] : 0;
    }

    /** Partition-size vector length (for occupancy audits; includes
     *  pseudo-partitions schemes retag into, e.g. Vantage's). */
    std::size_t partCount() const { return partSize_.size(); }

    /**
     * Structural self-audit (FS_AUDIT=paranoid; see src/check): in
     * an indexed store, byAddr_ internals and the line<->index
     * bijection (every valid line's address resolves back to its
     * slot, every index entry points at a valid line carrying that
     * address); in every store, the per-partition / total occupancy
     * counters recomputed from the lines. O(lines); not for hot
     * paths.
     *
     * @return "" when consistent, else the first violation found.
     */
    std::string auditInvariants() const;

    /**
     * Deliberately rewrite valid line `id`'s stored address to
     * `addr`, as a flipped tag would (test-only, through
     * CacheArray::corruptLookupForFaultInjection, which picks the
     * address). The counters stay as they are;
     * an index forgets the old address and does not learn the new
     * one, so neither is found at `id` through it.
     */
    void rewriteAddrForFaultInjection(LineId id, Addr addr);

    /**
     * Deliberately inflate the first non-empty partition's occupancy
     * counter by one (test-only; tests/test_check.cc). The counter
     * then disagrees with a per-line recount and with validCount_,
     * which is exactly what auditOccupancySums / the shadow model's
     * size check exist to detect; nothing navigates off it, so the
     * damage is silent until a checker looks. Returns the perturbed
     * partition, or kInvalidPart if the store is empty.
     */
    PartId corruptOccupancyForFaultInjection();

  private:
    LineId numLines_;
    std::vector<Line> lines_;
    /** Address -> slot; absent in a store built without an index. */
    std::optional<FlatMap<LineId>> byAddr_;
    std::vector<std::uint32_t> partSize_;
    LineId validCount_ = 0;
};

} // namespace fscache

#endif // FSCACHE_CACHE_TAG_STORE_HH
