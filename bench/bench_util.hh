/**
 * @file
 * Shared helpers for the figure-reproduction benches: a standard
 * header banner, workload-scale control, and the one sweep helper
 * every simulating bench runs its cells through.
 *
 * Every bench prints the paper artifact it regenerates, the system
 * configuration, and its trace scale. Set FS_BENCH_SCALE to scale
 * simulated accesses (default 1.0; e.g. 0.2 for a quick pass, 4 for
 * tighter statistics).
 */

#ifndef FSCACHE_BENCH_BENCH_UTIL_HH
#define FSCACHE_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/arg_parser.hh"
#include "common/log.hh"
#include "core/fscache.hh"
#include "runner/sweep_runner.hh"

namespace fscache
{
namespace bench
{

/**
 * Workload-scale multiplier from FS_BENCH_SCALE (default 1). A value
 * that is not a finite number > 0 is fatal, so a typo never runs a
 * bench silently at the wrong scale.
 */
inline double
scale()
{
    static const double s = [] {
        const char *env = std::getenv("FS_BENCH_SCALE");
        if (env == nullptr)
            return 1.0;
        double v = parseDoubleArg("FS_BENCH_SCALE", env);
        if (!std::isfinite(v) || v <= 0.0)
            fatal("FS_BENCH_SCALE=%s must be a finite number > 0", env);
        return v;
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
 * A finished sweep's values in cell order. A failed cell ends the
 * bench: its error ("cell <i>: ...") goes to stderr and it exits 1.
 */
template <typename R>
std::vector<R>
valuesOrExit(const char *bench, const SweepReport<R> &report)
{
    try {
        return report.values();
    } catch (const FsError &e) {
        std::fprintf(stderr, "[%s] %s\n", bench, e.what());
        std::exit(1);
    }
}

/**
 * Run a bench's cells 0..n-1 on SweepRunner::mapResilient (FS_JOBS
 * workers) and return their values in cell order; a failed cell
 * ends the bench (valuesOrExit).
 */
template <typename Fn>
auto
runCells(const char *bench, std::size_t n, Fn &&fn)
{
    return valuesOrExit(bench, SweepRunner().mapResilient(n, fn));
}

} // namespace bench
} // namespace fscache

#endif // FSCACHE_BENCH_BENCH_UTIL_HH
