/**
 * @file
 * Text trace I/O: load externally captured access traces (e.g.
 * converted Sniper/Pin output) and save generated ones.
 *
 * Format: one access per line, `<line-address> <instr-gap>
 * [next-use]`, every field an unsigned integer in hex (0x...) or
 * decimal (no sign; a leading 0 does not mean octal), line-address
 * at most 2^64 - 2 (all ones is kInvalidAddr, an empty cache line's
 * tag), instr-gap at most 2^32 - 1; '#' comments and blank lines
 * ignored. next-use is
 * optional; run annotateNextUse() if OPT ranking is needed and the
 * field is absent. When present it is the index of a later record
 * (own index < next-use < record count, and at most 2^32 - 2 so it
 * fits TraceBuffer's 32-bit next-use column) or
 * 18446744073709551615 for never.
 */

#ifndef FSCACHE_TRACE_FILE_TRACE_HH
#define FSCACHE_TRACE_FILE_TRACE_HH

#include <iosfwd>
#include <string>

#include "trace/trace_buffer.hh"

namespace fscache
{

/**
 * Parse a trace from a stream. Malformed or empty input throws
 * TraceFormatError (common/errors.hh) with a diagnostic naming the
 * source, record index, line and byte offset — typed so a sweep
 * cell loading a bad trace fails with its cell named (FsError).
 *
 * @param source name used in diagnostics (file path, "<stream>")
 */
TraceBuffer readTrace(std::istream &in,
                      const std::string &source = "<stream>");

/** Load a trace file; throws TraceFormatError if unreadable,
 *  malformed or empty (see readTrace). */
TraceBuffer loadTraceFile(const std::string &path);

/** Write a trace, with next-use fields iff some record has a
 *  finite next use. */
void writeTrace(std::ostream &out, const TraceBuffer &trace);

/** Save a trace file (fatal if unwritable). */
void saveTraceFile(const std::string &path, const TraceBuffer &trace);

} // namespace fscache

#endif // FSCACHE_TRACE_FILE_TRACE_HH
