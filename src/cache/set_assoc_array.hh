/**
 * @file
 * Set-associative cache array with a pluggable index hash.
 *
 * ways == 1 gives the direct-mapped array used by the paper's
 * Figure 6 sensitivity study; 16 ways with XOR indexing is the
 * paper's main L2 configuration (Table II).
 *
 * A line can only sit in its address's set, so lookup() scans that
 * set's ways, as the hardware compares its tags (see CacheArray). A set's ways are consecutive slots, so
 * prefetch() hands the whole set on to the ranking's records.
 */

#ifndef FSCACHE_CACHE_SET_ASSOC_ARRAY_HH
#define FSCACHE_CACHE_SET_ASSOC_ARRAY_HH

#include <memory>

#include "cache/cache_array.hh"
#include "common/hashing.hh"

namespace fscache
{

/** See file comment. */
class SetAssocArray : public CacheArray
{
  public:
    /**
     * @param num_lines total slots (must be divisible by ways)
     * @param ways associativity (= candidate count R)
     * @param hash index hash family
     * @param seed seed for seeded hash kinds
     */
    SetAssocArray(LineId num_lines, std::uint32_t ways, HashKind hash,
                  std::uint64_t seed);

    std::uint32_t candidateCount() const override { return ways_; }

    LineId
    lookup(Addr addr) const override
    {
        LineId base = setBase(addr);
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const Line &l = tags_.line(base + w);
            // Invalid ways carry kInvalidAddr, so the address test
            // alone rejects them unless addr is that sentinel.
            if (l.addr == addr && l.valid)
                return base + w;
        }
        return kInvalidLine;
    }

    SlotRange prefetch(Addr addr) const override;

    void collectCandidates(Addr addr,
                           std::vector<LineId> &out) override;

    std::string name() const override;

    std::uint64_t sets() const { return hash_->buckets(); }

    /** Set index for an address (exposed for tests). */
    std::uint64_t setOf(Addr addr) const { return hash_->index(addr); }

  private:
    /** First slot of addr's set. */
    LineId
    setBase(Addr addr) const
    {
        return static_cast<LineId>(hash_->index(addr)) * ways_;
    }

    std::uint32_t ways_;
    std::unique_ptr<IndexHash> hash_;
};

} // namespace fscache

#endif // FSCACHE_CACHE_SET_ASSOC_ARRAY_HH
