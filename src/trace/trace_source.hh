/**
 * @file
 * Abstract infinite access-stream generator.
 */

#ifndef FSCACHE_TRACE_TRACE_SOURCE_HH
#define FSCACHE_TRACE_TRACE_SOURCE_HH

#include <cstdint>
#include <string>

#include "trace/access.hh"

namespace fscache
{

/**
 * An infinite stream of accesses. Concrete generators are
 * deterministic given their seed; materialize a finite prefix with
 * TraceBuffer.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next access in the stream. */
    virtual Access next() = 0;

    /**
     * Produce the next n accesses of the stream into dst — exactly
     * the sequence n successive next() calls would return (bulk
     * pull for trace capture and the drivers). The default delegates
     * to next(); generators whose per-call virtual dispatch or
     * state reloads are measurable override this with a loop that
     * calls their own next() non-virtually.
     */
    virtual void
    fillBatch(Access *dst, std::uint64_t n)
    {
        for (std::uint64_t i = 0; i < n; ++i)
            dst[i] = next();
    }

    /** Human-readable generator name. */
    virtual std::string name() const = 0;
};

} // namespace fscache

#endif // FSCACHE_TRACE_TRACE_SOURCE_HH
