/**
 * @file
 * Deterministic corruption injection for sweep cells.
 *
 * FS_FAULTS names cells whose simulator state is silently damaged
 * mid-cell, so the self-checks (FS_AUDIT audits, the FS_SHADOW
 * lockstep model) can be shown to catch each kind of damage end to
 * end. The spec is a semicolon-separated list of clauses:
 *
 *     cell=<n>:corrupt       break one line's lookup (drop its
 *                            address-index entry, or move a
 *                            set-resident line's address out of
 *                            its set)
 *     cell=<n>:corrupt-rank  inflate the ranking order index's
 *                            resident counter
 *     cell=<n>:corrupt-occ   inflate a partition occupancy counter
 *
 * Example: FS_FAULTS="cell=1:corrupt-rank;cell=4:corrupt-occ"
 *
 * <n> is plain decimal digits; a sign, trailing junk, a value out of
 * range, an unknown key or an unknown action is fatal, so a typo
 * never silently disarms a fault.
 *
 * Injection is two-phase: fire() only *arms* a thread-local target
 * (it must not throw — corruption is silent by definition);
 * PartitionedCache consumes the target on its 8192-access stride
 * and desynchronizes the matching structure (the array's lookup,
 * the ranking order index, or an occupancy counter — together
 * covering every FS_AUDIT arm end to end). fire() re-disarms at the
 * top of every cell, so a target armed for a short cell that never
 * consumed it cannot leak into the next cell on that worker. Only
 * top-level sweeps fire (runner/sweep_runner.hh): `cell=<n>` names
 * cell n of every top-level sweep a process runs.
 *
 * Zero cost when unset: faultPoint() loads one pointer that is null
 * unless FS_FAULTS was present at first use (or a test installed a
 * spec). Nothing here reads a clock or an RNG.
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
     * Which structure an armed clause targets: corrupt -> Lookup,
     * corrupt-rank -> RankIndex, corrupt-occ -> Occupancy.
     */
    enum class CorruptTarget : std::uint8_t
    {
        None,
        Lookup,
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

    /** Arm the calling thread's target for `cell` (or disarm it). */
    void fire(std::size_t cell) const;

    /**
     * Test-and-clear the calling thread's armed corruption target.
     * Called by PartitionedCache on its stride; CorruptTarget::None
     * when nothing is armed.
     */
    static CorruptTarget consumeArmedCorruption();

    /** Arm the calling thread's target again with one taken by
     *  consumeArmedCorruption() (a nested sweep sets the enclosing
     *  cell's target aside; runner/sweep_runner.hh). */
    static void rearm(CorruptTarget target);

    bool
    empty() const
    {
        return clauses_.empty();
    }

  private:
    struct Clause
    {
        std::size_t cell = 0;
        CorruptTarget target = CorruptTarget::None;
    };

    std::vector<Clause> clauses_;
};

/**
 * Per-cell fault point, called by the cell guard before the cell
 * runs. No-op unless an injector is active.
 */
inline void
faultPoint(std::size_t cell)
{
    const FaultInjector *fi = FaultInjector::active();
    if (fi != nullptr)
        fi->fire(cell);
}

} // namespace fscache

#endif // FSCACHE_COMMON_FAULT_INJECTION_HH
