/**
 * @file
 * Typed, recoverable error taxonomy for sweep cells.
 *
 * fatal()/panic() (common/log.hh) remain the right tool for user
 * configuration errors at tool startup and for internal invariant
 * violations. Everything that can go wrong *inside one sweep cell*,
 * however, must be a typed exception derived from FsError, so the
 * sweep (runner/sweep_runner.hh) can report which cell failed and
 * why before the bench or tool exits 1. Nothing is retried: every
 * cell is deterministic, so a rerun fails the same way.
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
 * produce — cannot be trusted, so the cell fails its sweep.
 *
 * report() carries the structured first-divergence / audit report
 * (multi-line), which the sweep appends to the failed cell's error;
 * what() is the one-line summary.
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
