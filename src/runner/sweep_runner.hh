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
 * A failing cell becomes a typed CellOutcome behind the cell guard
 * instead of aborting the sweep; see docs/ROBUSTNESS.md.
 *
 * A sweep may run inside another sweep's cell (a cell calling
 * measureMissCurve). Such a nested sweep fires no FS_FAULTS fault
 * point, and the enclosing cell's armed corruption is set aside
 * while it runs, so `cell=N` names cell N of each top-level sweep
 * and lands in that cell's own caches at every FS_JOBS.
 */

#ifndef FSCACHE_RUNNER_SWEEP_RUNNER_HH
#define FSCACHE_RUNNER_SWEEP_RUNNER_HH

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "common/fault_injection.hh"
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
     * Run fn(cell) for every cell in [0, cells), each under the cell
     * guard (runner/cell_guard.hh), and return every outcome in cell
     * order. A failing cell is *quarantined* instead of aborting the
     * sweep; this never throws.
     *
     * The guard adds no randomness, so a sweep with no failures
     * carries exactly the values a plain serial loop would return.
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
        // Captured here, on the starting thread: pool workers are
        // never inside a cell when they pick a task up.
        const bool nested = inGuardedCell();
        auto guarded = [&fn, &report, nested](std::size_t i) {
            report.cells[i] = runGuarded(i, fn, nested);
        };
        // The enclosing cell's armed target is set aside: inline
        // nested cells would otherwise consume it, and pooled ones
        // run on workers that never had it.
        FaultInjector::CorruptTarget outer =
            nested ? FaultInjector::consumeArmedCorruption()
                   : FaultInjector::CorruptTarget::None;
        if (jobs_ <= 1 || cells <= 1) {
            for (std::size_t i = 0; i < cells; ++i)
                guarded(i);
        } else {
            runPooled(cells, guarded);
        }
        if (nested)
            FaultInjector::rearm(outer);
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
