/**
 * @file
 * Runtime self-verification knobs (docs/ROBUSTNESS.md §Self-checking).
 *
 * FS_AUDIT selects how much of its own bookkeeping the simulator
 * re-derives and cross-checks while running:
 *
 *   off       (default) no audits; the only cost left in the access
 *             path is one cached-bool branch.
 *   cheap     O(#partitions) occupancy-sum audits on a stride, plus
 *             inline bound checks in the analytic solver / feedback
 *             scheme. Safe for production sweeps.
 *   paranoid  cheap + full structural audits on a stride: ranking
 *             order-index marks and counts, FlatMap probe chains,
 *             tag-store index bijection, ranking<->tag-store
 *             cross-consistency.
 *
 * FS_SHADOW=1 additionally runs the lockstep reference model
 * (check/shadow_cache.hh) inside PartitionedCache::access.
 *
 * A violation throws StateCorruptionError (common/errors.hh), which
 * fails the cell and with it the sweep: SweepReport::values()
 * rethrows it, report included, naming the cell.
 *
 * The FSCACHE_AUDIT() macro is for cold/warm call sites outside the
 * access loop (solver, feedback): it compiles to one relaxed load +
 * compare when audits are off, and to nothing at all when
 * FSCACHE_AUDIT_DISABLED is defined. PartitionedCache caches the
 * level at construction instead, keeping even that load off the
 * per-access path.
 */

#ifndef FSCACHE_CHECK_AUDIT_HH
#define FSCACHE_CHECK_AUDIT_HH

#include <atomic>
#include <string>

#include "common/annotations.hh"

namespace fscache
{
namespace check
{

enum class AuditLevel : int
{
    Off = 0,
    Cheap = 1,
    Paranoid = 2,
};

namespace detail
{

/** Cached FS_AUDIT level; -1 until first parsed. */
extern std::atomic<int> g_auditLevel;

/** Cached FS_SHADOW flag; -1 until first parsed. */
extern std::atomic<int> g_shadowMode;

/** Parse FS_AUDIT (fatal() on junk) and fill the cache. */
int initAuditLevel();

/** Parse FS_SHADOW and fill the cache. */
int initShadowMode();

} // namespace detail

/** The process-wide audit level (FS_AUDIT, cached at first use). */
inline AuditLevel
auditLevel()
{
    int v = detail::g_auditLevel.load(std::memory_order_relaxed);
    if (v < 0)
        v = detail::initAuditLevel();
    return static_cast<AuditLevel>(v);
}

/** True when the current level is at least `min`. */
inline bool
auditAtLeast(AuditLevel min)
{
    return auditLevel() >= min;
}

/** True when FS_SHADOW=1 (cached at first use). */
inline bool
shadowEnabled()
{
    int v = detail::g_shadowMode.load(std::memory_order_relaxed);
    if (v < 0)
        v = detail::initShadowMode();
    return v != 0;
}

/**
 * Override the audit level / shadow flag (tests). Not thread-safe
 * against a running sweep — set before starting one. Caches built
 * from the old value (PartitionedCache snapshots the level at
 * construction) are unaffected.
 */
void setAuditLevelForTest(AuditLevel level);
void setShadowModeForTest(bool enabled);

/**
 * Raise a StateCorruptionError for a failed audit: `where` names
 * the audited component, `detail` is the first violation found
 * (becomes the report the failed cell carries).
 */
[[noreturn]] FS_COLD void auditFail(const char *where,
                                    const std::string &detail);

} // namespace check
} // namespace fscache

/**
 * Run `...` iff the audit level is at least AuditLevel::level.
 * For call sites outside the per-access hot loop.
 */
#ifndef FSCACHE_AUDIT_DISABLED
#define FSCACHE_AUDIT(level, ...)                                     \
    do {                                                              \
        if (::fscache::check::auditAtLeast(                           \
                ::fscache::check::AuditLevel::level)) [[unlikely]] {  \
            __VA_ARGS__;                                              \
        }                                                             \
    } while (0)
#else
#define FSCACHE_AUDIT(level, ...)                                     \
    do {                                                              \
    } while (0)
#endif

#endif // FSCACHE_CHECK_AUDIT_HH
