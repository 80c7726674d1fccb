/**
 * @file
 * Abstract cache array: decides which slots are replacement
 * candidates for an address (the paper's "Cache Array" component,
 * Section III.A).
 *
 * The replacement protocol between PartitionedCache and an array is:
 *
 *  1. collectCandidates(addr) lists candidate slots (valid or not);
 *  2. the owner takes a free candidate if there is one, else the
 *     partitioning scheme picks a victim among the candidates and
 *     the owner evicts it from the tag store;
 *  3. makeRoom(addr, slot) performs any internal relocations
 *     (zcache walks) and returns the slot the incoming line must be
 *     installed into (the freed slot itself for simple arrays).
 *
 * An unrestricted array (random-candidates, fully-associative) may
 * place a line in any slot: the owner fills it highest slot first
 * before it evicts anything, and lookup(addr) asks the tag store's
 * address index. Every other array may place a line only in the
 * slots its address hashes to, keeps no index, and overrides
 * lookup() to scan those slots, as the hardware compares its tags.
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

    /** @param unrestricted a line may be placed in any slot; only
     *  then does the tag store keep its address index */
    CacheArray(LineId num_lines, bool unrestricted);
    virtual ~CacheArray() = default;

    CacheArray(const CacheArray &) = delete;
    CacheArray &operator=(const CacheArray &) = delete;

    TagStore &tags() { return tags_; }
    const TagStore &tags() const { return tags_; }

    LineId numLines() const { return tags_.numLines(); }

    /** Slot holding addr, or kInvalidLine. Default: the tag store's
     *  address index (unrestricted arrays). */
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
     * candidates and fully-associative models). The owner then fills
     * slot numLines() - 1 - validCount() while the cache has room:
     * such an array only frees a slot inside the miss that refills
     * it, so the valid slots are always the highest ones.
     */
    bool unrestrictedPlacement() const { return tags_.indexed(); }

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
     * Free a home slot for the incoming address, given an invalid
     * slot `freed`: a free candidate or the evicted victim from the
     * last collectCandidates, or an unrestricted array's fill slot.
     * Default: `freed` itself.
     */
    virtual LineId
    makeRoom(Addr incoming, LineId freed, const MoveFn &on_move)
    {
        (void)incoming;
        (void)on_move;
        return freed;
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
     * Deliberately break lookup() for one valid line (tests plant
     * it to show the audits and the shadow model catch it), leaving
     * it valid and counted: rewrite the
     * first valid line's address to the next non-resident address
     * up that lookup() does not find at that slot. Returns the
     * damaged line, or kInvalidLine (nothing changed) if the cache
     * is empty or no such address exists, as in a one-set array.
     */
    LineId corruptLookupForFaultInjection();

  protected:
    TagStore tags_;
};

} // namespace fscache

#endif // FSCACHE_CACHE_CACHE_ARRAY_HH
