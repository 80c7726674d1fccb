/**
 * @file
 * Abstract cache array: decides which slots are replacement
 * candidates for an address (the paper's "Cache Array" component,
 * Section III.A).
 *
 * The replacement protocol between PartitionedCache and an array is:
 *
 *  1. collectCandidates(addr) lists candidate slots (valid or not);
 *  2. the partitioning scheme picks a victim among the valid ones;
 *  3. the caller evicts the victim from the tag store;
 *  4. makeRoom(addr, victim) performs any internal relocations
 *     (zcache walks) and returns the slot the incoming line must be
 *     installed into (the victim slot itself for simple arrays).
 *
 * Every access first asks lookup(addr) for the slot holding the
 * address. By default the tag store's address index answers; a
 * set-associative array scans the address's set instead and keeps
 * no index.
 */

#ifndef FSCACHE_CACHE_CACHE_ARRAY_HH
#define FSCACHE_CACHE_CACHE_ARRAY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cache/tag_store.hh"
#include "common/types.hh"

namespace fscache
{

/** See file comment. */
class CacheArray
{
  public:
    /** Relocation callback: a valid line moved from -> to. */
    using MoveFn = std::function<void(LineId from, LineId to)>;

    /** Slots [first, first + count); empty when count is 0. */
    struct SlotRange
    {
        LineId first = 0;
        std::uint32_t count = 0;
    };

    /** @param indexed build the tag store with its address index */
    explicit CacheArray(LineId num_lines, bool indexed = true);
    virtual ~CacheArray() = default;

    CacheArray(const CacheArray &) = delete;
    CacheArray &operator=(const CacheArray &) = delete;

    TagStore &tags() { return tags_; }
    const TagStore &tags() const { return tags_; }

    LineId numLines() const { return tags_.numLines(); }

    /** Slot holding addr, or kInvalidLine. Default: the tag store's
     *  address index. */
    virtual LineId lookup(Addr addr) const { return tags_.lookup(addr); }

    /**
     * Hint that addr is accessed soon: prefetch the slots lookup()
     * reads for it, and return them when they are contiguous so the
     * owner can prefetch their ranking records too. Never changes
     * state. Default: nothing (prefetching the address index's home
     * slot measured within noise on the fully-associative qos-32
     * cell).
     */
    virtual SlotRange
    prefetch(Addr addr) const
    {
        (void)addr;
        return {};
    }

    /** Nominal number of replacement candidates R. */
    virtual std::uint32_t candidateCount() const = 0;

    /**
     * True if an incoming line may be placed in any slot (random-
     * candidates and fully-associative models); lets the owner fill
     * the cache from the global free list before evicting anything.
     */
    virtual bool unrestrictedPlacement() const { return false; }

    /**
     * True if the owner should synthesize candidates from the
     * ranking (worst line per partition) instead of calling
     * collectCandidates.
     */
    virtual bool fullyAssociative() const { return false; }

    /** Candidate slots for an incoming address (cleared first). */
    virtual void collectCandidates(Addr addr,
                                   std::vector<LineId> &out) = 0;

    /**
     * Free the slot for the incoming address after the (already
     * evicted) victim. Default: the victim slot itself.
     */
    virtual LineId
    makeRoom(Addr incoming, LineId victim, const MoveFn &on_move)
    {
        (void)incoming;
        (void)on_move;
        return victim;
    }

    virtual std::string name() const = 0;

    /**
     * Structural self-audit (FS_AUDIT=paranoid): the tag store's own
     * audit, then every valid line is found by lookup() at its own
     * slot. O(lines).
     *
     * @return "" when consistent, else the first violation found.
     */
    std::string auditInvariants() const;

    /**
     * Deliberately break lookup() for one valid line (FS_FAULTS
     * `cell=N:corrupt`), leaving it valid and counted. Default: drop
     * the line's address-index entry. Returns the damaged line, or
     * kInvalidLine if nothing could be damaged.
     */
    virtual LineId corruptLookupForFaultInjection();

  protected:
    TagStore tags_;
};

} // namespace fscache

#endif // FSCACHE_CACHE_CACHE_ARRAY_HH
