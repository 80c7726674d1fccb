/**
 * @file
 * The recency stamp axis behind the rankings whose order is touch
 * order, wholly (RecencyRankingBase: exact LRU, the coarse-timestamp
 * LRU's shadow, Random) or within a class (ClassRankingBase: LFU,
 * RRIP).
 *
 * Every install and every hit gives the line the next stamp of an
 * append-only axis, so a line's stamp orders it against every other
 * line by last touch. The rankings mark resident lines' stamps in
 * their own BitFenwick indexes (common/fenwick.hh); this class keeps
 * the axis itself: which line holds each stamp, and each line's
 * stamp. When the axis is full the owner compacts it — live lines
 * keep their relative order and move to stamps 0..live-1 — and
 * rebuilds its marks from lineAt(). The axis spans a power of two
 * >= 2x the line count, so at least half of every compaction
 * interval is fresh stamps and the O(capacity) compaction amortizes
 * to O(1) per touch; it allocates nothing.
 */

#ifndef FSCACHE_RANKING_STAMP_AXIS_HH
#define FSCACHE_RANKING_STAMP_AXIS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace fscache
{

/** See file comment. */
class StampAxis
{
  public:
    explicit StampAxis(LineId num_lines);

    /** Axis length: a power of two >= 2x the line count (>= 64, the
     *  smallest BitFenwick). */
    std::uint32_t capacity() const { return capacity_; }

    /** One past the newest allocated stamp. */
    std::uint32_t next() const { return next_; }

    /** True when no stamp is left: compact() before assign(). */
    bool full() const { return next_ == capacity_; }

    /** Line holding `pos`, or kInvalidLine. */
    LineId lineAt(std::uint32_t pos) const { return lineAt_[pos]; }

    /** Stamp of a line on the axis. */
    std::uint32_t stampOf(LineId id) const { return stampOf_[id]; }

    /** Give `id` the newest stamp; requires !full(). */
    std::uint32_t
    assign(LineId id)
    {
        std::uint32_t pos = next_++;
        stampOf_[id] = pos;
        lineAt_[pos] = id;
        return pos;
    }

    /** Free `id`'s stamp (it leaves the axis, or is re-stamped). */
    void release(LineId id) { lineAt_[stampOf_[id]] = kInvalidLine; }

    /** Line `to` takes over line `from`'s stamp (a relocation: the
     *  order is untouched). */
    void
    move(LineId from, LineId to)
    {
        std::uint32_t pos = stampOf_[from];
        lineAt_[pos] = to;
        stampOf_[to] = pos;
    }

    /** Move the live stamps to 0..live-1 in order (see file
     *  comment); the owner then re-marks its indexes. */
    void compact();

    /**
     * The axis against the owner's presence flags: lineAt() and
     * stampOf() are inverse over present lines, every present line
     * and no absent one holds a stamp, and nothing sits at or past
     * next(). "" when consistent, else the first violation.
     */
    std::string audit(const std::vector<std::uint8_t> &present) const;

  private:
    std::uint32_t capacity_;
    std::uint32_t next_ = 0;
    /** Line at each stamp, kInvalidLine where empty. */
    std::vector<LineId> lineAt_;
    std::vector<std::uint32_t> stampOf_;
};

} // namespace fscache

#endif // FSCACHE_RANKING_STAMP_AXIS_HH
