/**
 * @file
 * OPT (Belady) next-use annotation.
 *
 * Fills a trace's next-use column with, for each access, the index
 * of the *next* access to the same address within the same thread's
 * trace, or kNeverUsed. The OPT futility ranking keys on this value: the line
 * whose next use is farthest away is the most futile (paper
 * Section III.A).
 */

#ifndef FSCACHE_TRACE_NEXT_USE_ANNOTATOR_HH
#define FSCACHE_TRACE_NEXT_USE_ANNOTATOR_HH

#include "trace/trace_buffer.hh"

namespace fscache
{

/**
 * Annotate a single thread's trace in place (one backward pass,
 * one FlatMap probe per record, O(n) expected). Throws FsError,
 * leaving the trace unchanged, if the trace is too long for its next
 * uses to fit the 32-bit column (more than 2^32 - 1 records). No
 * record may carry kInvalidAddr (the map's free-slot key; readTrace
 * rejects it).
 */
void annotateNextUse(TraceBuffer &trace);

} // namespace fscache

#endif // FSCACHE_TRACE_NEXT_USE_ANNOTATOR_HH
