/**
 * @file
 * Static allocations: equal shares and explicit fractions.
 */

#ifndef FSCACHE_ALLOC_STATIC_ALLOC_HH
#define FSCACHE_ALLOC_STATIC_ALLOC_HH

#include "alloc/allocation.hh"

namespace fscache
{

/**
 * Split `total_lines` equally among `parts` partitions; the
 * remainder goes to the lowest-numbered partitions, so targets
 * always sum exactly to total_lines.
 */
Allocation equalShare(LineId total_lines, std::uint32_t parts);

/**
 * Split `total_lines` proportionally to `fractions` (need not sum
 * to 1; they are normalized). Largest-remainder rounding keeps the
 * sum exact.
 */
Allocation proportionalShare(LineId total_lines,
                             const std::vector<double> &fractions);

} // namespace fscache

#endif // FSCACHE_ALLOC_STATIC_ALLOC_HH
