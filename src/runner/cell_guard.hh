/**
 * @file
 * CellGuard: run one sweep cell under a structured outcome contract.
 *
 * runGuarded(cell, fn, cfg) executes fn(cell) and always returns a
 * CellOutcome instead of letting an exception (or a wedged loop)
 * escape into the pool:
 *
 *  - Ok: fn returned a value.
 *  - Failed: a permanent error (any std::exception that is not one
 *    of the types below). Recorded on the first failure — permanent
 *    errors are never retried.
 *  - Failed after retries: a TransientError is retried up to
 *    cfg.maxAttempts times with exponential backoff
 *    (cfg.backoffBaseMs * 2^attempt); if every attempt fails the
 *    last error is recorded with the attempt count.
 *  - TimedOut: the cooperative watchdog (FS_CELL_TIMEOUT_MS)
 *    expired — pollCancellation() threw CellTimeoutError somewhere
 *    inside the cell. Never retried.
 *  - Failed (corruption): a self-check (FS_AUDIT / FS_SHADOW)
 *    threw StateCorruptionError. Never retried.
 *
 * The guard contains only failures that unwind: an exception or a
 * watchdog poll. A hard crash (SIGSEGV, a sanitizer abort, an OOM
 * kill) ends the process; the crash breadcrumbs name the cell, and
 * a checkpointed sweep (runner/checkpoint.hh) rerun with the same
 * FS_CHECKPOINT_DIR recomputes only the cells it had not finished.
 *
 * Each attempt runs inside a fresh CancelScope whose deadline is
 * cfg.timeoutMs, and fires the fault-injection point
 * (common/fault_injection.hh) first, so injected faults exercise
 * exactly the paths real failures would take.
 *
 * Determinism contract: the guard adds no randomness and the
 * outcome's value is whatever fn returned — a guarded sweep with no
 * failures is value-identical to an unguarded one. wallNs is
 * measured wall time and therefore varies run to run; drivers must
 * never print it into result artifacts (it exists for logs/tests).
 */

#ifndef FSCACHE_RUNNER_CELL_GUARD_HH
#define FSCACHE_RUNNER_CELL_GUARD_HH

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/breadcrumb.hh"
#include "common/cancellation.hh"
#include "common/errors.hh"
#include "common/fault_injection.hh"

namespace fscache
{

/** Terminal state of one guarded cell. */
enum class CellStatus
{
    Ok,
    Failed,   ///< permanent error, or transient retries exhausted
    TimedOut, ///< watchdog deadline expired
};

/** Error classification driving the retry policy. */
enum class ErrorClass
{
    None,
    Transient,
    Permanent,
    Timeout,
    /** A self-check (FS_AUDIT / FS_SHADOW) proved the cell's state
     *  corrupt; never retried — the deterministic rerun would
     *  corrupt identically. */
    Corruption,
};

const char *cellStatusName(CellStatus status);

/** "transient" / "permanent" / "timeout" / "corruption" / "none". */
const char *errorClassName(ErrorClass cls);

/**
 * FAILED(...) marker text for artifacts: the error class name —
 * "permanent", "timeout", ... Built from the class only
 * (deterministic for deterministic faults), never from reason
 * strings, which may mention timing.
 */
std::string failureLabel(ErrorClass cls);

/** Guard knobs; fromEnv() fills the watchdog from the environment. */
struct CellGuardConfig
{
    /** Max attempts for transient errors (>= 1). */
    unsigned maxAttempts = 3;

    /** Watchdog deadline per attempt in ms; 0 disables it. */
    std::uint64_t timeoutMs = 0;

    /** Backoff before retry k is base * 2^(k-1) ms; 0 disables. */
    std::uint64_t backoffBaseMs = 5;

    /** timeoutMs from FS_CELL_TIMEOUT_MS, defaults elsewhere. */
    static CellGuardConfig fromEnv();
};

/** Structured result of one guarded cell (see file comment). */
template <typename R>
struct CellOutcome
{
    std::optional<R> value;     ///< engaged iff status == Ok
    CellStatus status = CellStatus::Ok;
    ErrorClass errorClass = ErrorClass::None;
    std::string error;          ///< what() of the final failure
    /** Structured multi-line report (audit violation / shadow
     *  first-divergence repro); empty for other failures. */
    std::string detail;
    unsigned attempts = 0;      ///< attempts actually made
    std::uint64_t wallNs = 0;   ///< wall time across all attempts
    bool restored = false;      ///< satisfied from a checkpoint

    bool ok() const { return status == CellStatus::Ok; }
};

/** failureLabel() from an outcome's class. */
template <typename R>
std::string
failureLabel(const CellOutcome<R> &o)
{
    return failureLabel(o.errorClass);
}

namespace detail
{

/** steady-clock ns (runner-side; not for simulation results). */
std::uint64_t guardNowNs();

/** Sleep base * 2^(attempt-1) ms before retry `attempt`. */
void backoffBeforeRetry(std::uint64_t base_ms, unsigned attempt);

} // namespace detail

/**
 * Run fn(cell) under the guard; never throws (see file comment).
 */
template <typename Fn>
auto
runGuarded(std::size_t cell, Fn &&fn,
           const CellGuardConfig &cfg = CellGuardConfig::fromEnv())
    -> CellOutcome<std::invoke_result_t<Fn &, std::size_t>>
{
    using R = std::invoke_result_t<Fn &, std::size_t>;
    static_assert(!std::is_void_v<R>,
                  "guarded cells must return a value");
    CellOutcome<R> out;
    const unsigned max_attempts =
        cfg.maxAttempts > 0 ? cfg.maxAttempts : 1;
    const std::uint64_t t0 = detail::guardNowNs();
    check::breadcrumbSetCell(cell);
    for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
        if (attempt > 0)
            detail::backoffBeforeRetry(cfg.backoffBaseMs, attempt);
        ++out.attempts;
        auto state = std::make_shared<CancelState>(
            cfg.timeoutMs * 1000000ull);
        try {
            CancelScope scope(state);
            faultPoint(cell, attempt);
            out.value.emplace(fn(cell));
            out.status = CellStatus::Ok;
            out.errorClass = ErrorClass::None;
            out.error.clear();
            break;
        } catch (const CellTimeoutError &e) {
            out.status = CellStatus::TimedOut;
            out.errorClass = ErrorClass::Timeout;
            out.error = e.what();
            break; // a wedged cell stays wedged; never retry
        } catch (const StateCorruptionError &e) {
            out.status = CellStatus::Failed;
            out.errorClass = ErrorClass::Corruption;
            out.error = e.what();
            out.detail = e.report();
            break; // deterministic rerun corrupts again; no retry
        } catch (const TransientError &e) {
            out.status = CellStatus::Failed;
            out.errorClass = ErrorClass::Transient;
            out.error = e.what();
            continue; // retry with backoff
        } catch (const std::exception &e) {
            out.status = CellStatus::Failed;
            out.errorClass = ErrorClass::Permanent;
            out.error = e.what();
            break;
        } catch (...) {
            out.status = CellStatus::Failed;
            out.errorClass = ErrorClass::Permanent;
            out.error = "unknown exception";
            break;
        }
    }
    check::breadcrumbClearCell();
    out.wallNs = detail::guardNowNs() - t0;
    return out;
}

/** One quarantined cell in a sweep's failure manifest. */
struct ManifestEntry
{
    std::size_t cell = 0;
    CellStatus status = CellStatus::Failed;
    ErrorClass errorClass = ErrorClass::Permanent;
    std::string error;
    /** Structured report (audit / shadow divergence), or empty. */
    std::string detail;
    unsigned attempts = 0;
};

/** Human-readable manifest, one line per quarantined cell. */
std::string renderManifest(const std::vector<ManifestEntry> &entries);

/**
 * Outcome vector of a resilient sweep plus manifest helpers.
 * Produced by SweepRunner::mapResilient().
 */
template <typename R>
struct SweepReport
{
    std::vector<CellOutcome<R>> cells;

    bool
    allOk() const
    {
        for (const CellOutcome<R> &c : cells)
            if (!c.ok())
                return false;
        return true;
    }

    std::size_t
    okCount() const
    {
        std::size_t n = 0;
        for (const CellOutcome<R> &c : cells)
            n += c.ok() ? 1 : 0;
        return n;
    }

    /** Quarantined cells, in cell order. */
    std::vector<ManifestEntry>
    failures() const
    {
        std::vector<ManifestEntry> out;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const CellOutcome<R> &c = cells[i];
            if (c.ok())
                continue;
            out.push_back({i, c.status, c.errorClass, c.error,
                           c.detail, c.attempts});
        }
        return out;
    }

    /** renderManifest(failures()); empty string when all ok. */
    std::string
    manifest() const
    {
        std::vector<ManifestEntry> f = failures();
        return f.empty() ? std::string() : renderManifest(f);
    }
};

} // namespace fscache

#endif // FSCACHE_RUNNER_CELL_GUARD_HH
