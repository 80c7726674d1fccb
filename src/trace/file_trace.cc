#include "trace/file_trace.hh"

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/errors.hh"
#include "common/log.hh"

namespace fscache
{

namespace
{

/**
 * Full-token unsigned parse: `0x`/`0X` followed by hex digits, or
 * decimal digits only (no sign, no whitespace, no octal), at most
 * `max`. Throws TraceFormatError with the source, record index,
 * line and byte offset of the offending token.
 */
std::uint64_t
parseField(const std::string &tok, const char *field,
           std::uint64_t max, const std::string &source,
           std::uint64_t record, std::uint64_t lineno,
           std::uint64_t offset)
{
    auto bad = [&](const char *why) {
        return TraceFormatError(strprintf(
            "%s: bad %s '%s': %s (record %llu, line %llu, byte "
            "offset %llu)", source.c_str(), field, tok.c_str(), why,
            static_cast<unsigned long long>(record),
            static_cast<unsigned long long>(lineno),
            static_cast<unsigned long long>(offset)));
    };
    const bool hex = tok.size() > 2 && tok[0] == '0' &&
                     (tok[1] == 'x' || tok[1] == 'X');
    const char *digits = tok.c_str() + (hex ? 2 : 0);
    if (*digits == '\0')
        throw bad("expected hex (0x...) or decimal digits");
    for (const char *c = digits; *c != '\0'; ++c) {
        const auto u = static_cast<unsigned char>(*c);
        if (hex ? !std::isxdigit(u) : !std::isdigit(u))
            throw bad("expected hex (0x...) or decimal digits");
    }
    errno = 0;
    unsigned long long v =
        std::strtoull(digits, nullptr, hex ? 16 : 10);
    if (errno == ERANGE || v > max)
        throw bad(strprintf("out of range (max %llu)",
                            static_cast<unsigned long long>(max))
                      .c_str());
    return v;
}

} // namespace

TraceBuffer
readTrace(std::istream &in, const std::string &source)
{
    TraceBuffer buf;
    std::string line;
    std::uint64_t lineno = 0;
    std::uint64_t offset = 0; // byte offset of the current line
    // The record holding the largest finite next use: the only one
    // the end-of-input bound (next use < record count) must check.
    struct
    {
        AccessTime nextUse = 0;
        std::uint64_t record = 0, lineno = 0, offset = 0;
    } farthest;
    auto nextUseError = [&](AccessTime next_use, const std::string &why,
                            std::uint64_t record, std::uint64_t at_line,
                            std::uint64_t at_offset) {
        return TraceFormatError(strprintf(
            "%s: bad next-use %llu: %s; a next use is a later record "
            "index of this trace, or 18446744073709551615 for never "
            "(record %llu, line %llu, byte offset %llu)",
            source.c_str(), static_cast<unsigned long long>(next_use),
            why.c_str(), static_cast<unsigned long long>(record),
            static_cast<unsigned long long>(at_line),
            static_cast<unsigned long long>(at_offset)));
    };
    while (std::getline(in, line)) {
        ++lineno;
        std::uint64_t line_start = offset;
        offset += line.size() + 1;

        std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream fields(line);
        std::string addr_str;
        if (!(fields >> addr_str))
            continue; // blank / comment-only line

        std::uint64_t record = buf.size();
        Access acc;
        // The all-ones address is kInvalidAddr, which marks an empty
        // cache line (and a free address-index slot), so no record
        // may carry it.
        acc.addr = parseField(addr_str, "address", kInvalidAddr - 1,
                              source, record, lineno, line_start);

        std::string tok;
        if (fields >> tok) {
            std::uint64_t gap = parseField(tok, "instr-gap",
                                           UINT32_MAX, source,
                                           record, lineno,
                                           line_start);
            acc.instrGap = static_cast<std::uint32_t>(
                gap < 1 ? 1 : gap);
        }
        bool has_next_use = false;
        if (fields >> tok) {
            acc.nextUse = parseField(tok, "next-use", UINT64_MAX,
                                     source, record, lineno,
                                     line_start);
            // A next use names a later record of this trace (OPT
            // sizes its next-use axis by the largest one), or never.
            if (acc.nextUse != kNeverUsed) {
                if (acc.nextUse <= record) {
                    throw nextUseError(acc.nextUse,
                                       "not after its own record",
                                       record, lineno, line_start);
                }
                if (acc.nextUse > farthest.nextUse)
                    farthest = {acc.nextUse, record, lineno,
                                line_start};
            }
            // A next use too wide for the column is left out: the
            // farthest one is at least as wide, so the end-of-input
            // checks reject the trace.
            has_next_use = TraceBuffer::nextUseFits(acc.nextUse);
        }
        if (fields >> tok) {
            throw TraceFormatError(strprintf(
                "%s: trailing field '%s' (record %llu, line %llu, "
                "byte offset %llu); expected '<address> "
                "[instr-gap] [next-use]'", source.c_str(),
                tok.c_str(),
                static_cast<unsigned long long>(record),
                static_cast<unsigned long long>(lineno),
                static_cast<unsigned long long>(line_start)));
        }
        buf.append(acc.addr, acc.instrGap);
        if (has_next_use)
            buf.setNextUse(record, acc.nextUse);
    }
    if (buf.size() == 0) {
        throw TraceFormatError(strprintf(
            "%s: trace contains no accesses (file is empty or "
            "holds only comments/blank lines)", source.c_str()));
    }
    if (farthest.nextUse >= buf.size()) {
        throw nextUseError(
            farthest.nextUse,
            strprintf("past the last record (the trace holds %llu)",
                      static_cast<unsigned long long>(buf.size())),
            farthest.record, farthest.lineno, farthest.offset);
    }
    if (!TraceBuffer::nextUseFits(farthest.nextUse)) {
        throw nextUseError(
            farthest.nextUse,
            strprintf("wider than the 32-bit next-use column (at most "
                      "%llu)",
                      static_cast<unsigned long long>(
                          TraceBuffer::kMaxNextUse)),
            farthest.record, farthest.lineno, farthest.offset);
    }
    return buf;
}

TraceBuffer
loadTraceFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        throw TraceFormatError(strprintf(
            "cannot open trace file '%s'", path.c_str()));
    }
    return readTrace(in, path);
}

void
writeTrace(std::ostream &out, const TraceBuffer &trace)
{
    bool annotated = false;
    for (std::uint64_t i = 0; i < trace.size(); ++i) {
        if (trace.nextUse(i) != kNeverUsed) {
            annotated = true;
            break;
        }
    }
    out << "# fscache trace: address instr-gap"
        << (annotated ? " next-use" : "") << "\n";
    for (std::uint64_t i = 0; i < trace.size(); ++i) {
        out << "0x" << std::hex << trace.addr(i) << std::dec << ' '
            << trace.instrGap(i);
        if (annotated)
            out << ' ' << trace.nextUse(i);
        out << '\n';
    }
}

void
saveTraceFile(const std::string &path, const TraceBuffer &trace)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write trace file '%s'", path.c_str());
    writeTrace(out, trace);
}

} // namespace fscache
