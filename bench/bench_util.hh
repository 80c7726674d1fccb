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
#include <functional>
#include <iostream>
#include <string>

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
 * A sweep cell's table entry: get(value) printed to `precision`
 * decimals (`get` is a data member pointer or any callable on the
 * value), or, for a quarantined cell, its marker FAILED(class) —
 * e.g. "FAILED(corruption)". The marker is built from the error
 * class only, so artifacts stay deterministic.
 */
template <typename R, typename Get>
std::string
cellText(const CellOutcome<R> &o, Get &&get, int precision)
{
    if (!o.ok())
        return std::string("FAILED(") + errorClassName(o.errorClass) + ")";
    return TablePrinter::num(
        static_cast<double>(std::invoke(get, *o.value)), precision);
}

/**
 * Run a bench's cells 0..n-1 on SweepRunner::mapResilient (FS_JOBS
 * workers) and return their outcomes in cell order. A clean sweep
 * prints nothing; otherwise the quarantine manifest goes to stderr
 * and the bench renders each failed cell as FAILED(class). Exits 1
 * when every cell failed, since there is nothing to report.
 */
template <typename Fn>
auto
runCells(const char *bench, std::size_t n, Fn &&fn)
{
    auto report = SweepRunner().mapResilient(n, fn);
    if (!report.allOk())
        std::fprintf(stderr, "[%s] %s", bench,
                     report.manifest().c_str());
    if (report.okCount() == 0) {
        std::fprintf(stderr, "[%s] every cell failed; no results "
                             "to report\n", bench);
        std::exit(1);
    }
    return report;
}

} // namespace bench
} // namespace fscache

#endif // FSCACHE_BENCH_BENCH_UTIL_HH
