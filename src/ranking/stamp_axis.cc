#include "ranking/stamp_axis.hh"

#include <algorithm>

#include "common/log.hh"

namespace fscache
{

namespace
{

/** Smallest power of two >= 2 * num_lines (and >= 64, the smallest
 *  BitFenwick, which also gives tiny test caches a useful compaction
 *  interval). */
std::uint32_t
stampCapacity(LineId num_lines)
{
    fs_assert(num_lines < (1u << 30), "line count overflows stamps");
    std::uint32_t cap = 64;
    while (cap < 2 * std::max<std::uint32_t>(num_lines, 1))
        cap <<= 1;
    return cap;
}

} // namespace

StampAxis::StampAxis(LineId num_lines)
    : capacity_(stampCapacity(num_lines)),
      lineAt_(capacity_, kInvalidLine)
{
}

void
StampAxis::compact()
{
    // Compact in stamp order: relative recency — the only thing the
    // ranks depend on — is preserved exactly.
    std::uint32_t live = 0;
    for (std::uint32_t pos = 0; pos < next_; ++pos) {
        LineId id = lineAt_[pos];
        if (id != kInvalidLine)
            lineAt_[live++] = id;
    }
    std::fill(lineAt_.begin() + live, lineAt_.begin() + next_,
              kInvalidLine);
    fs_assert(live < capacity_, "stamp axis cannot hold its lines");
    next_ = live;
}

std::string
StampAxis::audit(LineId num_lines,
                 const std::function<std::uint32_t(LineId)> &stampOf)
    const
{
    std::uint32_t live = 0;
    for (std::uint32_t pos = 0; pos < capacity_; ++pos) {
        LineId id = lineAt_[pos];
        if (id == kInvalidLine)
            continue;
        if (pos >= next_) {
            return strprintf("line %u at unallocated stamp %u", id,
                             pos);
        }
        if (id >= num_lines || stampOf(id) == kNoStamp) {
            return strprintf("absent line %u on the stamp axis",
                             id);
        }
        if (stampOf(id) != pos) {
            return strprintf("line %u at stamp %u but mapped to %u",
                             id, pos, stampOf(id));
        }
        ++live;
    }
    std::uint32_t presentLines = 0;
    for (LineId id = 0; id < num_lines; ++id) {
        std::uint32_t pos = stampOf(id);
        if (pos == kNoStamp)
            continue;
        ++presentLines;
        if (pos >= capacity_ || lineAt_[pos] != id) {
            return strprintf("present line %u missing from the "
                             "stamp axis", id);
        }
    }
    if (presentLines != live) {
        return strprintf("%u present lines but %u stamps live",
                         presentLines, live);
    }
    return std::string();
}

} // namespace fscache
