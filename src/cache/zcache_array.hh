/**
 * @file
 * ZCache-style array: H single-way hash banks expanded by a
 * replacement walk.
 *
 * Level 1 candidates are the H slots the incoming address hashes to.
 * Each further level adds, for every level-(k-1) candidate line, the
 * slots *that line's* address hashes to in the other banks. Evicting
 * a deep candidate relocates its ancestors one step down the walk
 * (every move is to a slot the moved address legitimately hashes to),
 * so a Z(H)/levels array provides far more candidates than its
 * lookup ways — the paper notes Vantage needs a Z4/52-like array for
 * strong isolation. A line always sits in one of its level-1 slots,
 * so lookup() probes those H slots (see CacheArray).
 */

#ifndef FSCACHE_CACHE_ZCACHE_ARRAY_HH
#define FSCACHE_CACHE_ZCACHE_ARRAY_HH

#include <memory>
#include <vector>

#include "cache/cache_array.hh"
#include "common/hashing.hh"

namespace fscache
{

/** See file comment. */
class ZCacheArray : public CacheArray
{
  public:
    /**
     * @param num_lines total slots (divisible by banks)
     * @param banks hash banks H (lookup ways)
     * @param levels walk depth (1 = plain skew with W=1)
     * @param seed hash family seed
     */
    ZCacheArray(LineId num_lines, std::uint32_t banks,
                std::uint32_t levels, std::uint64_t seed);

    std::uint32_t candidateCount() const override
    { return nominalCandidates_; }

    /** Probes addr's level-1 slots and keeps the ones it hashed,
     *  so a miss's collectCandidates(addr) does not hash them again. */
    LineId
    lookup(Addr addr) const override
    {
        probedAddr_ = addr;
        for (std::uint32_t b = 0; b < banks_; ++b) {
            LineId slot = slotFor(addr, b);
            probedSlots_[b] = slot;
            const Line &l = tags_.line(slot);
            if (l.addr == addr && l.valid) {
                probedCount_ = b + 1;
                return slot;
            }
        }
        probedCount_ = banks_;
        return kInvalidLine;
    }

    void collectCandidates(Addr addr,
                           std::vector<LineId> &out) override;

    LineId makeRoom(Addr incoming, LineId freed,
                    const MoveFn &on_move) override;

    std::string name() const override;

    std::uint32_t banks() const { return banks_; }

  private:
    LineId
    slotFor(Addr addr, std::uint32_t bank) const
    {
        auto set = static_cast<LineId>(hashes_[bank]->index(addr));
        return bank * bankLines_ + set;
    }

    /** Mark a slot visited by the current walk; false if already. */
    bool visit(LineId slot, LineId parent);

    std::uint32_t banks_;
    std::uint32_t levels_;
    std::uint32_t nominalCandidates_;
    LineId bankLines_;
    std::vector<std::unique_ptr<IndexHash>> hashes_;

    /** The last lookup's address and the first probedCount_ of its
     *  level-1 slots (hashes are fixed, so they never go stale). */
    mutable Addr probedAddr_ = 0;
    mutable std::uint32_t probedCount_ = 0;
    mutable std::vector<LineId> probedSlots_;

    /**
     * Walk parents from the last collectCandidates call, indexed by
     * slot and generation-stamped: a slot belongs to the current
     * walk iff walkGen_[slot] == curGen_, so resetting between
     * walks is a counter bump instead of a hash-map clear (this
     * runs on every miss).
     */
    std::vector<LineId> parent_;
    std::vector<std::uint32_t> walkGen_;
    std::uint32_t curGen_ = 0;
    std::vector<LineId> frontier_;
    std::vector<LineId> nextFrontier_;
};

} // namespace fscache

#endif // FSCACHE_CACHE_ZCACHE_ARRAY_HH
