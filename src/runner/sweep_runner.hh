/**
 * @file
 * SweepRunner: shard independent simulation cells across cores.
 *
 * A sweep is N independent cells (typically: build a cache, drive a
 * trace, collect metrics); map() runs them on a work-stealing
 * ThreadPool and returns the results **in cell order**, regardless
 * of completion order, so tables and JSON built from the result
 * vector are deterministic and byte-identical to a serial run.
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
 * map() is fail-fast: the first cell exception aborts the sweep.
 * mapResilient() instead quarantines failing cells behind the cell
 * guard (typed CellOutcome, runner/cell_guard.hh); see
 * docs/ROBUSTNESS.md.
 */

#ifndef FSCACHE_RUNNER_SWEEP_RUNNER_HH
#define FSCACHE_RUNNER_SWEEP_RUNNER_HH

#include <algorithm>
#include <cstddef>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "runner/cell_guard.hh"
#include "runner/thread_pool.hh"

namespace fscache
{

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
     * Run fn(cell) for every cell in [0, cells) and return the
     * results in cell order. The first exception thrown by a cell
     * is rethrown here after all in-flight cells finish.
     */
    template <typename Fn>
    auto
    map(std::size_t cells, Fn &&fn)
        -> std::vector<std::invoke_result_t<Fn &, std::size_t>>
    {
        using R = std::invoke_result_t<Fn &, std::size_t>;
        static_assert(!std::is_void_v<R>,
                      "use forEach() for void cell functions");
        std::vector<R> out;
        out.reserve(cells);
        if (jobs_ <= 1 || cells <= 1) {
            for (std::size_t i = 0; i < cells; ++i)
                out.push_back(fn(i));
            return out;
        }
        std::vector<std::optional<R>> slots(cells);
        runPooled(cells, [&fn, &slots](std::size_t i) {
            slots[i].emplace(fn(i));
        });
        for (std::optional<R> &s : slots)
            out.push_back(std::move(*s));
        return out;
    }

    /**
     * Grid variant: fn(row, col) over a rows x cols cross product
     * (e.g. benchmark x partition-count). Returns results[row][col].
     */
    template <typename Fn>
    auto
    mapGrid(std::size_t rows, std::size_t cols, Fn &&fn)
        -> std::vector<
            std::vector<std::invoke_result_t<Fn &, std::size_t,
                                             std::size_t>>>
    {
        auto flat = map(rows * cols, [&fn, cols](std::size_t i) {
            return fn(i / cols, i % cols);
        });
        using R =
            std::invoke_result_t<Fn &, std::size_t, std::size_t>;
        std::vector<std::vector<R>> out(rows);
        for (std::size_t r = 0; r < rows; ++r) {
            out[r].reserve(cols);
            for (std::size_t c = 0; c < cols; ++c)
                out[r].push_back(std::move(flat[r * cols + c]));
        }
        return out;
    }

    /**
     * Resilient map(): every cell runs under the cell guard
     * (runner/cell_guard.hh), and a failing cell is *quarantined*
     * instead of aborting the sweep. Never throws; returns all
     * outcomes in cell order plus manifest helpers.
     *
     * With no failures the outcome values are identical to map()'s
     * results (the guard adds no randomness), so a fault-free
     * resilient sweep renders byte-identical artifacts.
     */
    template <typename Fn>
    auto
    mapResilient(std::size_t cells, Fn &&fn,
                 const CellGuardConfig & = CellGuardConfig{})
        -> SweepReport<std::invoke_result_t<Fn &, std::size_t>>
    {
        using R = std::invoke_result_t<Fn &, std::size_t>;
        SweepReport<R> report;
        report.cells.resize(cells);
        auto guarded = [&fn, &report](std::size_t i) {
            report.cells[i] = runGuarded(i, fn);
        };
        if (jobs_ <= 1 || cells <= 1) {
            for (std::size_t i = 0; i < cells; ++i)
                guarded(i);
        } else {
            runPooled(cells, guarded);
        }
        return report;
    }

    /** map() for cell functions with no result. */
    template <typename Fn>
    void
    forEach(std::size_t cells, Fn &&fn)
    {
        if (jobs_ <= 1 || cells <= 1) {
            for (std::size_t i = 0; i < cells; ++i)
                fn(i);
            return;
        }
        runPooled(cells, fn);
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
