/**
 * @file
 * Cross-structure invariant audits (FS_AUDIT; see check/audit.hh).
 *
 * The per-structure audits (FlatMap / TagStore / CacheArray / the
 * rankings' order indexes ::auditInvariants()) verify each
 * structure against itself; the functions here verify the
 * structures against *each other* — the facade-level bookkeeping
 * PartitionedCache is responsible for keeping consistent:
 *
 *  - occupancy sums: per-partition sizes vs. the tag store's total
 *    valid count vs. the ranking's per-partition line counts;
 *  - residency: every valid line is ranked exactly once, every
 *    ranked line is valid, and its exact futility lies in (0, 1].
 *
 * All functions return "" when consistent, else the first violation
 * found (callers wrap it via check::auditFail()).
 */

#ifndef FSCACHE_CHECK_INVARIANTS_HH
#define FSCACHE_CHECK_INVARIANTS_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace fscache
{

class CacheArray;
class TagStore;
class FutilityRanking;

namespace check
{

/**
 * Cheap O(#partitions) occupancy-sum audit: the tag store's
 * per-partition sizes and the ranking's per-partition line counts
 * must both sum to the tag store's valid count. The ranking ranks
 * by owner partition (< num_parts); the tag store may additionally
 * tag into one pseudo-partition (Vantage's unmanaged region), so
 * only the sums — not the per-partition values — must agree.
 */
std::string auditOccupancySums(const TagStore &tags,
                               const FutilityRanking &ranking,
                               std::uint32_t num_parts);

/**
 * Deep O(lines log lines) audit: per-structure audits on the array
 * (its tag store, and every valid line found by lookup at its slot)
 * and the ranking, plus line-by-line residency cross-consistency
 * (see file comment).
 */
std::string auditDeepConsistency(const CacheArray &array,
                                 const FutilityRanking &ranking,
                                 std::uint32_t num_parts);

} // namespace check
} // namespace fscache

#endif // FSCACHE_CHECK_INVARIANTS_HH
