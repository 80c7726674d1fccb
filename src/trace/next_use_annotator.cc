#include "trace/next_use_annotator.hh"

#include <algorithm>
#include <cstdint>

#include "common/errors.hh"
#include "common/flat_map.hh"
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

    // Distinct addresses are at most the records, so the map never
    // fills; one probe per record finds or inserts its address.
    FlatMap<AccessTime> next_seen(
        std::max<std::uint64_t>(trace.size(), 1));
    for (std::uint64_t i = trace.size(); i-- > 0;) {
        auto [seen, inserted] = next_seen.tryInsert(trace.addr(i), i);
        trace.setNextUse(i, inserted ? kNeverUsed : *seen);
        *seen = i;
    }
}

} // namespace fscache
