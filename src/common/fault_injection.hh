/**
 * @file
 * Deterministic fault-injection framework for sweep cells.
 *
 * FS_FAULTS describes faults to inject at the per-cell fault point
 * the cell guard fires before each attempt. The spec is a
 * semicolon-separated list of clauses:
 *
 *     cell=<n>:throw          permanent error at cell n, every attempt
 *     cell=<n>:hang           cooperative hang at cell n (reaped by
 *                             the FS_CELL_TIMEOUT_MS watchdog)
 *     cell=<n>:transient      TransientError at cell n, first attempt
 *     cell=<n>:transient*<k>  ... first k attempts (retry-exhaustion)
 *     cell=<n>:corrupt        silently flip a tag-store index entry
 *                             mid-cell (detected only by FS_AUDIT /
 *                             FS_SHADOW; see docs/ROBUSTNESS.md)
 *     cell=<n>:corrupt-treap  silently damage the ranking's order
 *                             index mid-cell (inflate its resident
 *                             counter; the action keeps the name of
 *                             the structure it first targeted)
 *     cell=<n>:corrupt-occ    silently inflate a partition occupancy
 *                             counter mid-cell
 *     rate=<p>:transient      TransientError on a deterministic,
 *                             seed-derived fraction p of cells
 *                             (first attempt only)
 *
 * Example: FS_FAULTS="cell=7:throw;cell=9:hang;rate=0.02:transient"
 *
 * <n> and <k> are plain decimal digits; a sign, trailing junk, or a
 * value out of range (k above UINT_MAX) is fatal, as is an unknown
 * action, so a typo never silently disarms a fault. <p> is a plain
 * decimal in [0, 1] (digits and at most one point): "nan", blanks,
 * exponents and hex floats are fatal too.
 *
 * The corrupt* clauses are two-phase: fire() only *arms* a thread-
 * local target (it must not throw — corruption is silent by
 * definition); PartitionedCache consumes the target at its next
 * watchdog stride and desynchronizes the matching structure (tag
 * index, ranking order index, or occupancy counter — together covering
 * every FS_AUDIT arm end to end). Arming is per-thread and fire()
 * re-disarms at the top of every cell attempt, so a target armed
 * for a short cell that never consumed it cannot leak into the next
 * cell on that worker.
 *
 * Determinism: the rate clause hashes the cell index through mix64
 * with a fixed salt — the same cells fail in every run and under
 * any FS_JOBS. Nothing here reads a clock or an unseeded RNG.
 *
 * Zero cost when unset: faultPoint() loads one pointer that is null
 * unless FS_FAULTS was present at first use (or a test installed a
 * spec). The framework exists so the tests can prove every failure
 * path in the resilience layer; it must never perturb a clean run.
 */

#ifndef FSCACHE_COMMON_FAULT_INJECTION_HH
#define FSCACHE_COMMON_FAULT_INJECTION_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fscache
{

/** Parsed FS_FAULTS plan. See file comment for the grammar. */
class FaultInjector
{
  public:
    /**
     * Which structure an armed corrupt* clause targets. Each value
     * maps one grammar action onto one audited structure:
     * corrupt -> AddrIndex, corrupt-treap -> RankIndex,
     * corrupt-occ -> Occupancy.
     */
    enum class CorruptTarget : std::uint8_t
    {
        None,
        AddrIndex,
        RankIndex,
        Occupancy,
    };

    /** Parse a spec; fatal() on a malformed clause. */
    static FaultInjector parse(const std::string &spec);

    /**
     * The process-wide injector from FS_FAULTS, or nullptr when the
     * variable is unset/empty (the common case).
     */
    static const FaultInjector *active();

    /**
     * Replace the process-wide injector (tests). An empty spec
     * disables injection. Not thread-safe against concurrent
     * faultPoint() calls — install before starting a sweep.
     */
    static void installForTest(const std::string &spec);

    /**
     * Fire the fault point for (cell, attempt): may throw
     * TransientError / FsError or hang cooperatively until the
     * current cancellation scope cancels it.
     */
    void fire(std::size_t cell, unsigned attempt) const;

    /**
     * Test-and-clear the calling thread's armed corruption target
     * (set by a `cell=N:corrupt*` clause at that cell's fault
     * point). Called by PartitionedCache on its watchdog stride;
     * CorruptTarget::None when nothing is armed.
     */
    static CorruptTarget consumeArmedCorruption();

    bool
    empty() const
    {
        return clauses_.empty();
    }

  private:
    enum class Kind
    {
        Throw,
        Hang,
        Transient,
        Corrupt,
        CorruptRankIndex,
        CorruptOcc,
    };

    struct Clause
    {
        Kind kind = Kind::Throw;
        bool byRate = false;   ///< rate=p instead of cell=n
        std::size_t cell = 0;  ///< when !byRate
        double rate = 0.0;     ///< when byRate
        unsigned attempts = 1; ///< transient: fail attempts [0, k)
    };

    std::vector<Clause> clauses_;
};

/**
 * Per-cell fault point, called by the cell guard before each
 * attempt. No-op unless an injector is active.
 */
inline void
faultPoint(std::size_t cell, unsigned attempt)
{
    const FaultInjector *fi = FaultInjector::active();
    if (fi != nullptr)
        fi->fire(cell, attempt);
}

} // namespace fscache

#endif // FSCACHE_COMMON_FAULT_INJECTION_HH
