#include "trace/trace_buffer.hh"

#include <algorithm>
#include <unordered_set>

#include "common/log.hh"
#include "trace/trace_source.hh"

namespace fscache
{

TraceBuffer
TraceBuffer::capture(TraceSource &source, std::uint64_t count)
{
    TraceBuffer buf;
    buf.addr_.resize(count);
    buf.gap_.resize(count);
    // fillBatch is specified to return exactly what successive
    // next() calls would, so pulling in chunks keeps the capture
    // order (and every downstream golden) unchanged; each chunk is
    // scattered into the columns while it is still in cache.
    constexpr std::uint64_t kChunk = 256;
    Access chunk[kChunk];
    for (std::uint64_t i = 0; i < count; i += kChunk) {
        const std::uint64_t n = std::min(kChunk, count - i);
        source.fillBatch(chunk, n);
        for (std::uint64_t j = 0; j < n; ++j) {
            buf.addr_[i + j] = chunk[j].addr;
            buf.gap_[i + j] = chunk[j].instrGap;
        }
    }
    return buf;
}

void
TraceBuffer::append(Addr addr, std::uint32_t instr_gap)
{
    addr_.push_back(addr);
    gap_.push_back(instr_gap);
    if (!nextUse_.empty())
        nextUse_.push_back(kNeverStored);
}

void
TraceBuffer::setNextUse(std::uint64_t i, AccessTime t)
{
    fs_assert(nextUseFits(t), "next use %llu of record %llu does not "
              "fit the 32-bit next-use column",
              static_cast<unsigned long long>(t),
              static_cast<unsigned long long>(i));
    if (nextUse_.empty())
        nextUse_.assign(addr_.size(), kNeverStored);
    nextUse_[i] = narrowNextUse(t);
}

std::uint64_t
TraceBuffer::totalInstructions() const
{
    std::uint64_t total = 0;
    for (std::uint32_t gap : gap_)
        total += gap;
    return total;
}

std::uint64_t
TraceBuffer::footprint() const
{
    std::unordered_set<Addr> seen;
    seen.reserve(addr_.size() / 4 + 16);
    for (Addr a : addr_)
        seen.insert(a);
    return seen.size();
}

} // namespace fscache
