/**
 * @file
 * Materialized finite trace.
 *
 * Benchmarks and workloads are generated up front into memory so a
 * second pass can annotate OPT next-use information before
 * simulation (the classic two-pass Belady setup).
 *
 * Records are stored as columns, not Access structs: an address
 * column (8 B per record), an instruction-gap column (4 B) and, only
 * once annotateNextUse() or a trace file fills it, a 32-bit next-use
 * column (4 B). A record costs 12 B unannotated and 16 B annotated
 * (an Access is 24 B with its padding), and every thread's trace of
 * a 32-thread workload is held at once. The replay loops read the
 * columns directly; operator[] reassembles an Access by value.
 */

#ifndef FSCACHE_TRACE_TRACE_BUFFER_HH
#define FSCACHE_TRACE_TRACE_BUFFER_HH

#include <cstdint>
#include <vector>

#include "trace/access.hh"

namespace fscache
{

class TraceSource;

/** A finite, indexable access sequence for one thread. */
class TraceBuffer
{
  public:
    /** Stored next use meaning never; widened to kNeverUsed. */
    static constexpr std::uint32_t kNeverStored = 0xffffffffu;

    /** Largest finite next use the 32-bit column holds. */
    static constexpr AccessTime kMaxNextUse = kNeverStored - 1;

    /** True if t is kNeverUsed or a next use the column holds. */
    static constexpr bool
    nextUseFits(AccessTime t)
    {
        return t == kNeverUsed || t <= kMaxNextUse;
    }

    /** Column form of t; requires nextUseFits(t). */
    static constexpr std::uint32_t
    narrowNextUse(AccessTime t)
    {
        return t == kNeverUsed ? kNeverStored
                               : static_cast<std::uint32_t>(t);
    }

    /** AccessTime form of a column entry. */
    static constexpr AccessTime
    widenNextUse(std::uint32_t s)
    {
        return s == kNeverStored ? kNeverUsed : s;
    }

    TraceBuffer() = default;

    /** Materialize `count` accesses from a source (unannotated:
     *  sources do not carry next uses). */
    static TraceBuffer capture(TraceSource &source, std::uint64_t count);

    std::uint64_t size() const { return addr_.size(); }

    Addr addr(std::uint64_t i) const { return addr_[i]; }

    std::uint32_t instrGap(std::uint64_t i) const { return gap_[i]; }

    AccessTime
    nextUse(std::uint64_t i) const
    {
        return nextUse_.empty() ? kNeverUsed : widenNextUse(nextUse_[i]);
    }

    /** Record i, reassembled from the columns. */
    Access
    operator[](std::uint64_t i) const
    {
        return {addr_[i], gap_[i], nextUse(i)};
    }

    /** Append a record whose next use is never. */
    void append(Addr addr, std::uint32_t instr_gap);

    /**
     * Set record i's next use, allocating the next-use column (every
     * record never) on first use. Requires nextUseFits(t).
     */
    void setNextUse(std::uint64_t i, AccessTime t);

    /** True once the next-use column is allocated. */
    bool hasNextUseColumn() const { return !nextUse_.empty(); }

    /** Bytes the records' columns hold (12 per record, 16 once the
     *  next-use column is allocated). */
    std::uint64_t
    bytes() const
    {
        return addr_.size() * sizeof(Addr) +
               gap_.size() * sizeof(std::uint32_t) +
               nextUse_.size() * sizeof(std::uint32_t);
    }

    /** Total instructions represented by the trace. */
    std::uint64_t totalInstructions() const;

    /** Number of distinct line addresses (the trace footprint). */
    std::uint64_t footprint() const;

  private:
    std::vector<Addr> addr_;
    std::vector<std::uint32_t> gap_;
    /** Empty until annotated; else one entry per record. */
    std::vector<std::uint32_t> nextUse_;
};

} // namespace fscache

#endif // FSCACHE_TRACE_TRACE_BUFFER_HH
