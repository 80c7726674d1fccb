/**
 * @file
 * CellGuard: run one sweep cell under a structured outcome contract.
 *
 * runGuarded(cell, fn) executes fn(cell) and always returns a
 * CellOutcome instead of letting an exception escape into the pool:
 *
 *  - ok: fn returned a value (ErrorClass::None).
 *  - Corruption: a self-check (FS_AUDIT / FS_SHADOW) threw
 *    StateCorruptionError; its structured report rides along.
 *  - Permanent: any other exception.
 *
 * Nothing is retried: every cell is deterministic, so a rerun would
 * fail the same way. Only failures that unwind are contained; a hard
 * crash (SIGSEGV, a sanitizer abort) ends the process.
 *
 * The fault-injection point (common/fault_injection.hh) fires before
 * fn, so an FS_FAULTS corruption clause arms its target for exactly
 * this cell. It fires only for the cells of a top-level sweep: a
 * sweep started inside a guarded cell (nested) skips it, so its cell
 * indices never re-arm or disarm the enclosing cell's target.
 *
 * Determinism contract: the guard adds no randomness and the
 * outcome's value is whatever fn returned — a guarded sweep with no
 * failures is value-identical to an unguarded one.
 */

#ifndef FSCACHE_RUNNER_CELL_GUARD_HH
#define FSCACHE_RUNNER_CELL_GUARD_HH

#include <cstddef>
#include <exception>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/errors.hh"
#include "common/fault_injection.hh"

namespace fscache
{

/** Why a cell failed; None for a cell that returned a value. */
enum class ErrorClass
{
    None,
    Permanent,
    /** A self-check (FS_AUDIT / FS_SHADOW) proved the cell's state
     *  corrupt. */
    Corruption,
};

/**
 * "permanent" / "corruption" / "none": the FAILED(...) marker text
 * in artifacts, so it never depends on reason strings.
 */
const char *errorClassName(ErrorClass cls);

/** Empty; kept only for perfbench's mapResilient call until ROADMAP
 *  item 5 step A deletes it. */
struct CellGuardConfig
{
};

/** True while the calling thread runs a guarded cell's body. */
bool inGuardedCell();

namespace detail
{

/** Marks the calling thread as inside a guarded cell while alive. */
class GuardedCellScope
{
  public:
    GuardedCellScope();
    ~GuardedCellScope();

    GuardedCellScope(const GuardedCellScope &) = delete;
    GuardedCellScope &operator=(const GuardedCellScope &) = delete;

  private:
    bool outer_;
};

} // namespace detail

/** Structured result of one guarded cell (see file comment). */
template <typename R>
struct CellOutcome
{
    std::optional<R> value;     ///< engaged iff ok()
    ErrorClass errorClass = ErrorClass::None;
    std::string error;          ///< what() of the failure
    /** Structured multi-line report (audit violation / shadow
     *  first-divergence repro); empty for other failures. */
    std::string detail;

    bool ok() const { return errorClass == ErrorClass::None; }
};

/**
 * Run fn(cell) under the guard; never throws (see file comment).
 * @param nested the cell belongs to a sweep started inside a guarded
 *        cell: no fault point fires for it
 */
template <typename Fn>
auto
runGuarded(std::size_t cell, Fn &&fn, bool nested = false)
    -> CellOutcome<std::invoke_result_t<Fn &, std::size_t>>
{
    using R = std::invoke_result_t<Fn &, std::size_t>;
    static_assert(!std::is_void_v<R>,
                  "guarded cells must return a value");
    CellOutcome<R> out;
    try {
        if (!nested)
            faultPoint(cell);
        detail::GuardedCellScope scope;
        out.value.emplace(fn(cell));
        return out;
    } catch (const StateCorruptionError &e) {
        out.errorClass = ErrorClass::Corruption;
        out.error = e.what();
        out.detail = e.report();
    } catch (const std::exception &e) {
        out.errorClass = ErrorClass::Permanent;
        out.error = e.what();
    } catch (...) {
        out.errorClass = ErrorClass::Permanent;
        out.error = "unknown exception";
    }
    return out;
}

/** One quarantined cell in a sweep's failure manifest. */
struct ManifestEntry
{
    std::size_t cell = 0;
    ErrorClass errorClass = ErrorClass::Permanent;
    std::string error;
    /** Structured report (audit / shadow divergence), or empty. */
    std::string detail;
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

    /** Every cell's value in cell order; throws
     *  std::bad_optional_access unless allOk(). */
    std::vector<R>
    values() const
    {
        std::vector<R> out;
        out.reserve(cells.size());
        for (const CellOutcome<R> &c : cells)
            out.push_back(c.value.value());
        return out;
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
            out.push_back({i, c.errorClass, c.error, c.detail});
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
