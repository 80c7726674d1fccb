/**
 * @file
 * Typed, recoverable error taxonomy for sweep cells.
 *
 * fatal()/panic() (common/log.hh) remain the right tool for user
 * configuration errors at tool startup and for internal invariant
 * violations. Everything that can go wrong *inside one sweep cell*,
 * however, must be a typed exception derived from FsError so the
 * cell guard (runner/cell_guard.hh) can quarantine the cell instead
 * of the whole process dying.
 *
 * The cell guard sorts a failure into two classes:
 * StateCorruptionError (a self-check proved the cell's state
 * corrupt) and everything else (permanent). Nothing is retried:
 * every cell is deterministic, so a rerun fails the same way.
 */

#ifndef FSCACHE_COMMON_ERRORS_HH
#define FSCACHE_COMMON_ERRORS_HH

#include <stdexcept>
#include <string>

namespace fscache
{

/** Base class for recoverable, per-cell failures. */
class FsError : public std::runtime_error
{
  public:
    explicit FsError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * A trace file (or stream) failed validation: truncated, corrupt,
 * or empty input. The message names the source, record index, and
 * byte offset of the offending line.
 */
class TraceFormatError : public FsError
{
  public:
    explicit TraceFormatError(const std::string &what) : FsError(what)
    {
    }
};

/**
 * A runtime self-check (src/check: FS_AUDIT invariant audits or the
 * FS_SHADOW lockstep model) found the simulator's own bookkeeping
 * inconsistent. The cell's state — and therefore any value it would
 * produce — cannot be trusted, so the cell guard quarantines it
 * (ErrorClass::Corruption).
 *
 * report() carries the structured first-divergence / audit report
 * (multi-line) for the failure manifest; what() is the one-line
 * summary.
 */
class StateCorruptionError : public FsError
{
  public:
    explicit StateCorruptionError(const std::string &what,
                                  std::string report = std::string())
        : FsError(what), report_(std::move(report))
    {
    }

    const std::string &report() const { return report_; }

  private:
    std::string report_;
};

} // namespace fscache

#endif // FSCACHE_COMMON_ERRORS_HH
