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
 * mapResilient() / mapResilientCheckpointed() instead quarantine
 * failing cells behind the cell guard (typed CellOutcome, transient
 * retry, FS_CELL_TIMEOUT_MS watchdog) and optionally journal
 * completed cells for crash-safe resume (FS_CHECKPOINT_DIR); see
 * docs/ROBUSTNESS.md.
 */

#ifndef FSCACHE_RUNNER_SWEEP_RUNNER_HH
#define FSCACHE_RUNNER_SWEEP_RUNNER_HH

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "runner/cell_guard.hh"
#include "runner/checkpoint.hh"
#include "runner/proc_executor.hh"
#include "runner/thread_pool.hh"

namespace fscache
{

/** See file comment. */
class SweepRunner
{
  public:
    /** FS_JOBS if set (must be >= 1), else hardware concurrency. */
    static unsigned defaultJobs();

    /**
     * Warn (once per process) that FS_EXECUTOR=process was
     * requested for a sweep that cannot farm — mapResilient()
     * without a codec has no way to ship results across a process
     * boundary — and that the thread executor is used instead.
     */
    static void warnNoFarmWithoutCodec();

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
     * (runner/cell_guard.hh) — typed outcomes, transient retry with
     * backoff, cooperative watchdog — and a failing cell is
     * *quarantined* instead of aborting the sweep. Never throws;
     * returns all outcomes in cell order plus manifest helpers.
     *
     * With no failures the outcome values are identical to map()'s
     * results (the guard adds no randomness), so a fault-free
     * resilient sweep renders byte-identical artifacts.
     */
    template <typename Fn>
    auto
    mapResilient(std::size_t cells, Fn &&fn,
                 const CellGuardConfig &cfg = CellGuardConfig::fromEnv())
        -> SweepReport<std::invoke_result_t<Fn &, std::size_t>>
    {
        using R = std::invoke_result_t<Fn &, std::size_t>;
        if (!procWorkerMode() &&
            executorKindFromEnv() == ExecutorKind::Process)
            warnNoFarmWithoutCodec();
        SweepReport<R> report;
        report.cells.resize(cells);
        auto guarded = [&fn, &cfg, &report](std::size_t i) {
            report.cells[i] = runGuarded(i, fn, cfg);
        };
        if (jobs_ <= 1 || cells <= 1) {
            for (std::size_t i = 0; i < cells; ++i)
                guarded(i);
        } else {
            runPooled(cells, guarded);
        }
        return report;
    }

    /**
     * mapResilient() with crash-safe checkpoint/resume and (because
     * the codec makes cells serializable) the process-farm
     * executor. When FS_CHECKPOINT_DIR is set, completed cells are
     * journaled (runner/checkpoint.hh) and a rerun with the same
     * sweep_name + config_key recomputes only the missing cells —
     * failed cells are never journaled, so a resume retries them.
     * The config key is automatically extended with the cell count.
     *
     * When FS_EXECUTOR=process (runner/proc_executor.hh), the
     * missing cells run on a pool of worker *processes* instead of
     * threads: a SIGSEGV or a hard-killed wedge quarantines one
     * cell as FAILED(crash:...)/FAILED(hard-timeout) instead of
     * taking down the sweep. Results merge in cell order and the
     * codec is bit-exact, so clean-run output — and the checkpoint
     * journal — is byte-identical across executors; a journal
     * written under one executor resumes under the other.
     *
     * Inside a farm worker this call never returns for the farmed
     * sweep (it serves cells and exits); a checkpointed sweep the
     * worker reaches *earlier* in the driver is recomputed inline,
     * serially and unjournaled, so main() proceeds identically.
     *
     * @param encode R -> payload string (use CellEncoder for exact
     *        round-trips)
     * @param decode payload string -> R (CellDecoder; may throw —
     *        an undecodable record recomputes that cell)
     */
    template <typename Fn, typename Enc, typename Dec>
    auto
    mapResilientCheckpointed(
        std::size_t cells, Fn &&fn, const std::string &sweep_name,
        const std::string &config_key, Enc &&encode, Dec &&decode,
        const CellGuardConfig &cfg = CellGuardConfig::fromEnv())
        -> SweepReport<std::invoke_result_t<Fn &, std::size_t>>
    {
        using R = std::invoke_result_t<Fn &, std::size_t>;
        const std::string full_key =
            config_key + strprintf(";cells=%zu", cells);
        const std::uint64_t fp = fingerprint64(full_key);

        if (procWorkerMode()) {
            if (procWorkerFingerprint() != fp) {
                // A sweep the driver runs *before* the farmed one:
                // recompute inline (stdout is /dev/null'd) so
                // main() reaches the sweep we were spawned for.
                SweepRunner serial(1);
                return serial.mapResilient(
                    cells, std::forward<Fn>(fn), cfg);
            }
            auto run_cell = [&fn, &cfg, &encode](std::size_t i)
                -> CellOutcome<std::string> {
                CellOutcome<R> o = runGuarded(i, fn, cfg);
                CellOutcome<std::string> w;
                w.status = o.status;
                w.errorClass = o.errorClass;
                w.error = o.error;
                w.detail = o.detail;
                w.crashSignal = o.crashSignal;
                w.attempts = o.attempts;
                if (o.ok())
                    w.value.emplace(encode(*o.value));
                return w;
            };
            serveCellsAsWorker(cells, fp, run_cell);
        }

        const bool farm =
            executorKindFromEnv() == ExecutorKind::Process;
        std::unique_ptr<CheckpointJournal> journal =
            CheckpointJournal::openFromEnv(sweep_name, full_key);
        if (journal == nullptr && !farm)
            return mapResilient(cells, std::forward<Fn>(fn), cfg);

        SweepReport<R> report;
        report.cells.resize(cells);
        std::vector<std::size_t> missing;
        for (std::size_t i = 0; i < cells; ++i) {
            if (journal == nullptr) {
                missing.push_back(i);
                continue;
            }
            auto it = journal->restored().find(i);
            if (it == journal->restored().end()) {
                missing.push_back(i);
                continue;
            }
            try {
                CellOutcome<R> &o = report.cells[i];
                o.value.emplace(decode(it->second));
                o.status = CellStatus::Ok;
                o.restored = true;
            } catch (const std::exception &e) {
                warn("checkpoint %s: cell %zu undecodable (%s); "
                     "recomputing", journal->path().c_str(), i,
                     e.what());
                report.cells[i] = CellOutcome<R>{};
                missing.push_back(i);
            }
        }

        if (farm) {
            std::vector<CellOutcome<std::string>> outcomes =
                runProcessFarm(
                    missing, fp, ProcExecutorConfig::fromEnv(),
                    [&journal](std::size_t cell,
                               const std::string &payload) {
                        // Journal the wire payload verbatim — no
                        // re-encode — so farm and thread journals
                        // are byte-identical.
                        if (journal != nullptr)
                            journal->record(cell, payload);
                    });
            for (std::size_t k = 0; k < missing.size(); ++k) {
                std::size_t i = missing[k];
                CellOutcome<std::string> &w = outcomes[k];
                CellOutcome<R> o;
                o.status = w.status;
                o.errorClass = w.errorClass;
                o.error = std::move(w.error);
                o.detail = std::move(w.detail);
                o.crashSignal = std::move(w.crashSignal);
                o.attempts = w.attempts;
                if (o.status == CellStatus::Ok &&
                    w.value.has_value()) {
                    try {
                        o.value.emplace(decode(*w.value));
                    } catch (const std::exception &e) {
                        o = CellOutcome<R>{};
                        o.status = CellStatus::Failed;
                        o.errorClass = ErrorClass::Permanent;
                        o.error = strprintf(
                            "farm result for cell %zu "
                            "undecodable: %s", i, e.what());
                        o.attempts = w.attempts;
                    }
                } else if (o.status == CellStatus::Ok) {
                    o.status = CellStatus::Failed;
                    o.errorClass = ErrorClass::Permanent;
                    o.error = "farm result missing its payload";
                }
                report.cells[i] = std::move(o);
            }
            return report;
        }

        auto guarded = [&](std::size_t k) {
            std::size_t i = missing[k];
            CellOutcome<R> o = runGuarded(i, fn, cfg);
            if (o.ok())
                journal->record(i, encode(*o.value));
            report.cells[i] = std::move(o);
        };
        if (jobs_ <= 1 || missing.size() <= 1) {
            for (std::size_t k = 0; k < missing.size(); ++k)
                guarded(k);
        } else {
            runPooled(missing.size(), guarded);
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
