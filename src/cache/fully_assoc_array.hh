/**
 * @file
 * Fully-associative array.
 *
 * Candidate synthesis happens in the owner (PartitionedCache): the
 * effective candidate list is the least useful line of *every*
 * partition, which is exactly equivalent to considering all lines
 * for the schemes in this library (they always evict the worst line
 * of whichever partition they select). Used for the paper's
 * FullAssoc ideal scheme and the Figure 6 sensitivity study.
 */

#ifndef FSCACHE_CACHE_FULLY_ASSOC_ARRAY_HH
#define FSCACHE_CACHE_FULLY_ASSOC_ARRAY_HH

#include "cache/cache_array.hh"

namespace fscache
{

/** See file comment. */
class FullyAssocArray : public CacheArray
{
  public:
    explicit FullyAssocArray(LineId num_lines);

    /** Effective R is the whole cache. */
    std::uint32_t candidateCount() const override
    { return numLines(); }

    bool fullyAssociative() const override { return true; }

    void collectCandidates(Addr addr,
                           std::vector<LineId> &out) override;

    std::string name() const override { return "fullyassoc"; }
};

} // namespace fscache

#endif // FSCACHE_CACHE_FULLY_ASSOC_ARRAY_HH
