/**
 * @file
 * unordered-aggregation fixture (tools/fscache_lint.py --self-test):
 * a hash-container alias declared in a header outside src/stats and
 * src/sim. Any aggregation path that includes this header could
 * iterate an AddrSet in unspecified order under a name the rule
 * would not otherwise see, so the rule covers every src/ header.
 *
 * Expected finding: the alias below.
 */

#ifndef FSCACHE_LINT_FIXTURE_BAD_ALIAS_HH
#define FSCACHE_LINT_FIXTURE_BAD_ALIAS_HH

#include <cstdint>
#include <unordered_set>

namespace fscache
{

using AddrSet = std::unordered_set<std::uint64_t>;

} // namespace fscache

#endif // FSCACHE_LINT_FIXTURE_BAD_ALIAS_HH
