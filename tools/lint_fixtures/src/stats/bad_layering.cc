/**
 * @file
 * include-layering fixture (tools/fscache_lint.py --self-test):
 * src/stats may include only common, so both quoted includes below
 * are back-edges in the subsystem DAG.
 *
 * Expected findings:
 *   - runner/thread_pool.hh (stats -> runner back-edge)
 *   - sim/partitioned_cache.hh (stats -> sim back-edge)
 */

#include "runner/thread_pool.hh"
#include "sim/partitioned_cache.hh"

#include "common/annotations.hh" // fine: common is below every layer

namespace fscache
{

double
badLayeringFixture()
{
    return 0.0;
}

} // namespace fscache
