/**
 * @file
 * SweepRunner: shard independent simulation cells across cores.
 *
 * A sweep is N independent cells (typically: build a cache, drive a
 * trace, collect metrics); mapResilient() runs them on a
 * work-stealing ThreadPool and returns their outcomes **in cell
 * order**, regardless of completion order, so tables and JSON built
 * from the outcome vector are deterministic and byte-identical to a
 * serial run. It is the runner's one entry point.
 *
 * Determinism contract: a cell function must derive every random
 * stream it uses from its cell index (fixed seeds, or
 * `rng.fork(cell)`-style children) and must not share an Rng,
 * PartitionedCache, or any other mutable object with another cell.
 * Read-only sharing (e.g. one const Workload driven by many caches)
 * is fine. Under that contract, FS_JOBS=k output is bit-identical
 * to FS_JOBS=1, which runs the cells inline with no pool at all.
 *
 * The job count comes from the FS_JOBS environment variable,
 * defaulting to the hardware concurrency; FS_JOBS=1 recovers the
 * serial path.
 *
 * A failing cell fails its sweep: SweepReport::values() throws an
 * FsError naming the first failed cell in cell order, so the same
 * cell is reported at every FS_JOBS. Every cell is deterministic, so
 * nothing is retried; see docs/ROBUSTNESS.md.
 */

#ifndef FSCACHE_RUNNER_SWEEP_RUNNER_HH
#define FSCACHE_RUNNER_SWEEP_RUNNER_HH

#include <algorithm>
#include <cstddef>
#include <exception>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/errors.hh"
#include "common/log.hh"
#include "runner/thread_pool.hh"

namespace fscache
{

/** One cell's result: its value, or the error it failed with. */
template <typename R>
struct CellOutcome
{
    std::optional<R> value;     ///< engaged iff ok()
    /** what() of the failure; a StateCorruptionError's structured
     *  report (audit violation / shadow first divergence) follows
     *  on the next lines. */
    std::string error;

    bool ok() const { return value.has_value(); }
};

/** Every cell's outcome, in cell order (SweepRunner::mapResilient). */
template <typename R>
struct SweepReport
{
    std::vector<CellOutcome<R>> cells;

    /**
     * Every cell's value in cell order. Throws FsError
     * "cell <i>: <error>" for the first failed cell i.
     */
    std::vector<R>
    values() const
    {
        std::vector<R> out;
        out.reserve(cells.size());
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (!cells[i].ok())
                throw FsError(
                    strprintf("cell %zu: %s", i, cells[i].error.c_str()));
            out.push_back(*cells[i].value);
        }
        return out;
    }
};

/** Empty; kept only for perfbench's mapResilient call until ROADMAP
 *  item 2 renames it to map. */
struct CellGuardConfig
{
};

/** See file comment. */
class SweepRunner
{
  public:
    /** FS_JOBS if set (must be >= 1), else hardware concurrency. */
    static unsigned defaultJobs();

    /** @param jobs worker count; 0 means defaultJobs() */
    explicit SweepRunner(unsigned jobs = 0);

    unsigned jobs() const { return jobs_; }

    /**
     * Run fn(cell) for every cell in [0, cells) and return every
     * outcome in cell order. An exception a cell throws is caught
     * into its outcome; this never throws.
     */
    template <typename Fn>
    auto
    mapResilient(std::size_t cells, Fn &&fn,
                 const CellGuardConfig & = CellGuardConfig{})
        -> SweepReport<std::invoke_result_t<Fn &, std::size_t>>
    {
        using R = std::invoke_result_t<Fn &, std::size_t>;
        static_assert(!std::is_void_v<R>, "cells must return a value");
        SweepReport<R> report;
        report.cells.resize(cells);
        auto run = [&fn, &report](std::size_t i) {
            CellOutcome<R> &out = report.cells[i];
            try {
                out.value.emplace(fn(i));
            } catch (const StateCorruptionError &e) {
                out.error = e.what();
                if (!e.report().empty()) {
                    out.error += "\n" + e.report();
                    if (out.error.back() == '\n')
                        out.error.pop_back();
                }
            } catch (const std::exception &e) {
                out.error = e.what();
            } catch (...) {
                out.error = "unknown exception";
            }
        };
        if (jobs_ <= 1 || cells <= 1) {
            for (std::size_t i = 0; i < cells; ++i)
                run(i);
        } else {
            runPooled(cells, run);
        }
        return report;
    }

  private:
    template <typename Fn>
    void
    runPooled(std::size_t cells, Fn &&fn)
    {
        ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(jobs_, cells)));
        for (std::size_t i = 0; i < cells; ++i)
            pool.submit([&fn, i] { fn(i); });
        pool.waitIdle();
    }

    unsigned jobs_;
};

} // namespace fscache

#endif // FSCACHE_RUNNER_SWEEP_RUNNER_HH
