/**
 * @file
 * Skew-associative cache array: H independent banks, each indexed by
 * its own H3 hash, W ways per bank set; R = H * W candidates.
 *
 * Good skewing hashes spread replacement candidates near-uniformly,
 * which is what brings a real array close to the paper's Uniformity
 * Assumption. A line sits in one of its address's H sets, so
 * lookup() scans those H * W slots (see CacheArray).
 */

#ifndef FSCACHE_CACHE_SKEW_ASSOC_ARRAY_HH
#define FSCACHE_CACHE_SKEW_ASSOC_ARRAY_HH

#include <memory>
#include <vector>

#include "cache/cache_array.hh"
#include "common/hashing.hh"

namespace fscache
{

/** See file comment. */
class SkewAssocArray : public CacheArray
{
  public:
    /**
     * @param num_lines total slots (divisible by banks * ways)
     * @param banks number of hash banks H
     * @param ways ways per bank set W
     * @param seed hash family seed
     */
    SkewAssocArray(LineId num_lines, std::uint32_t banks,
                   std::uint32_t ways, std::uint64_t seed);

    std::uint32_t candidateCount() const override
    { return banks_ * ways_; }

    LineId
    lookup(Addr addr) const override
    {
        for (std::uint32_t b = 0; b < banks_; ++b) {
            LineId base = slotFor(addr, b, 0);
            for (std::uint32_t w = 0; w < ways_; ++w) {
                const Line &l = tags_.line(base + w);
                if (l.addr == addr && l.valid)
                    return base + w;
            }
        }
        return kInvalidLine;
    }

    void collectCandidates(Addr addr,
                           std::vector<LineId> &out) override;

    std::string name() const override;

    /** Slot of way w of the set addr maps to in a bank. */
    LineId
    slotFor(Addr addr, std::uint32_t bank, std::uint32_t way) const
    {
        auto set = static_cast<LineId>(hashes_[bank]->index(addr));
        return bank * bankLines_ + set * ways_ + way;
    }

  private:
    std::uint32_t banks_;
    std::uint32_t ways_;
    LineId bankLines_;
    std::vector<std::unique_ptr<IndexHash>> hashes_;
};

} // namespace fscache

#endif // FSCACHE_CACHE_SKEW_ASSOC_ARRAY_HH
