#include "trace/next_use_annotator.hh"

#include <unordered_map>

#include "common/errors.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace fscache
{

void
annotateNextUse(TraceBuffer &trace)
{
    // The largest next use is the last record's index; the column
    // must hold it rather than truncate it.
    if (trace.size() > 0 && !TraceBuffer::nextUseFits(trace.size() - 1)) {
        throw FsError(strprintf(
            "cannot annotate a trace of %llu records: next uses above "
            "%llu do not fit the 32-bit next-use column",
            static_cast<unsigned long long>(trace.size()),
            static_cast<unsigned long long>(TraceBuffer::kMaxNextUse)));
    }

    std::unordered_map<Addr, AccessTime> next_seen;
    next_seen.reserve(trace.size() / 4 + 16);

    for (std::uint64_t i = trace.size(); i-- > 0;) {
        const Addr addr = trace.addr(i);
        auto it = next_seen.find(addr);
        trace.setNextUse(i, it == next_seen.end() ? kNeverUsed
                                                  : it->second);
        next_seen[addr] = i;
    }
}

} // namespace fscache
