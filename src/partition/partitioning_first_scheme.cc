#include "partition/partitioning_first_scheme.hh"

#include <limits>

#include "common/simd.hh"

namespace fscache
{

std::uint32_t
PartitioningFirstScheme::selectVictim(CandidateSoA &cands,
                                      PartId incoming)
{
    (void)incoming;

    // Step 1: Partition Selection — most oversized candidate
    // partition (signed: if all are undersized, the least so).
    // Stays scalar: actualSize() is a virtual per-partition query.
    double max_over = -std::numeric_limits<double>::infinity();
    PartId chosen = kInvalidPart;
    const std::size_t n = cands.size();
    for (std::size_t i = 0; i < n; ++i) {
        PartId p = cands.part[i];
        if (p == kInvalidPart)
            continue;
        double over = static_cast<double>(ops_->actualSize(p)) -
                      static_cast<double>(target(p));
        if (over > max_over) {
            max_over = over;
            chosen = p;
        }
    }

    // Step 2: Victim Identification — largest futility within the
    // chosen partition.
    std::int64_t best = simd::argmaxMasked(
        cands.futility.data(), cands.part.data(), chosen, n);
    return best < 0 ? 0 : static_cast<std::uint32_t>(best);
}

} // namespace fscache
