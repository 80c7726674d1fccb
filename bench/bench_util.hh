/**
 * @file
 * Shared helpers for the figure-reproduction benches: a standard
 * header banner, workload-scale control, and common builders.
 *
 * Every bench prints the paper artifact it regenerates, the system
 * configuration, and its trace scale. Set FS_BENCH_SCALE to scale
 * simulated accesses (default 1.0; e.g. 0.2 for a quick pass, 4 for
 * tighter statistics).
 */

#ifndef FSCACHE_BENCH_BENCH_UTIL_HH
#define FSCACHE_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/fscache.hh"
#include "runner/cell_guard.hh"

namespace fscache
{
namespace bench
{

/** Workload-scale multiplier from FS_BENCH_SCALE (default 1). */
inline double
scale()
{
    static const double s = [] {
        const char *env = std::getenv("FS_BENCH_SCALE");
        if (env == nullptr)
            return 1.0;
        double v = std::atof(env);
        return v > 0.0 ? v : 1.0;
    }();
    return s;
}

/** Scale an access count by FS_BENCH_SCALE. */
inline std::uint64_t
scaled(std::uint64_t accesses)
{
    return static_cast<std::uint64_t>(accesses * scale());
}

/** Standard banner. */
inline void
banner(const std::string &artifact, const std::string &what)
{
    SystemConfig sys;
    std::printf("=============================================="
                "==============================\n");
    std::printf("%s — %s\n", artifact.c_str(), what.c_str());
    std::printf("system: %s\n", sys.summary().c_str());
    std::printf("workload scale: %.2fx (set FS_BENCH_SCALE to "
                "change)\n", scale());
    std::printf("=============================================="
                "==============================\n");
}

/** Section sub-header. */
inline void
section(const std::string &title)
{
    std::printf("\n--- %s ---\n", title.c_str());
}

/**
 * Explicit table/JSON marker for a quarantined sweep cell, e.g.
 * "FAILED(permanent)" or "FAILED(corruption)". Built from the error
 * class only, so artifacts stay deterministic.
 */
template <typename R>
std::string
failedMarker(const CellOutcome<R> &o)
{
    return std::string("FAILED(") + errorClassName(o.errorClass) + ")";
}

/**
 * Print the quarantine manifest of a resilient sweep to stderr and
 * return true when any cell failed. Prints nothing on a clean sweep
 * so fault-free output stays byte-identical to an unguarded
 * driver's.
 */
template <typename R>
bool
reportQuarantined(const SweepReport<R> &report, const char *sweep)
{
    std::vector<ManifestEntry> f = report.failures();
    if (f.empty())
        return false;
    std::fprintf(stderr, "[%s] %s", sweep,
                 renderManifest(f).c_str());
    return true;
}

} // namespace bench
} // namespace fscache

#endif // FSCACHE_BENCH_BENCH_UTIL_HH
