/**
 * @file
 * include-layering negative fixture (tools/fscache_lint.py
 * --self-test): every include below is allowed, so none may fire.
 * src/partition may include analytic, check, ranking, cache and
 * common; its own directory, same-directory and non-src headers are
 * always allowed, and an include inside a comment is not read. The
 * one back-edge carries a justified allow() directive.
 */

#include <vector>

#include "analytic/scaling_solver.hh"
#include "cache/candidate.hh"
#include "check/audit.hh"
#include "common/log.hh"
#include "partition/partition_scheme.hh"
#include "ranking/futility_ranking.hh"
#include "sibling.hh"

/*
#include "sim/partitioned_cache.hh"
*/

// fs-lint: allow(include-layering) fixture for a suppressed back-edge
#include "runner/thread_pool.hh"

namespace fscache
{

int
okLayeringFixture()
{
    return 0;
}

} // namespace fscache
