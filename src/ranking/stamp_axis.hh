/**
 * @file
 * The recency stamp axis behind the rankings whose order is touch
 * order, wholly (exact LRU, the coarse-timestamp LRU's shadow,
 * Random: one class) or within a class (LFU, RRIP); all of them are
 * ClassRankingBase clients (ranking/class_ranking_base.hh).
 *
 * Every install and every hit gives the line the next stamp of an
 * append-only axis, so a line's stamp orders it against every other
 * line by last touch. The ranking keeps each line's stamp in its own
 * per-line record and marks resident lines' stamps in its BitFenwick
 * buckets (common/fenwick.hh); this class keeps the axis itself:
 * which line holds each stamp. When the axis is full the owner
 * compacts it — live lines keep their relative order and move to
 * stamps 0..live-1 — and re-stamps its lines and rebuilds its marks
 * from lineAt(). The axis spans a power of two >= 2x the line count,
 * so at least half of every compaction interval is fresh stamps and
 * the O(capacity) compaction amortizes to O(1) per touch; it
 * allocates nothing.
 */

#ifndef FSCACHE_RANKING_STAMP_AXIS_HH
#define FSCACHE_RANKING_STAMP_AXIS_HH

#include <cstdint>
#include <functional>
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

    /** Give `id` the newest stamp and return it; requires
     *  !full(). */
    std::uint32_t
    assign(LineId id)
    {
        lineAt_[next_] = id;
        return next_++;
    }

    /** Free stamp `pos` (its line leaves the axis or is
     *  re-stamped). */
    void release(std::uint32_t pos) { lineAt_[pos] = kInvalidLine; }

    /** Line `to` takes over stamp `pos` (a relocation: the order is
     *  untouched). */
    void move(std::uint32_t pos, LineId to) { lineAt_[pos] = to; }

    /** Move the live stamps to 0..live-1 in order (see file
     *  comment); the owner then re-stamps its lines from lineAt(). */
    void compact();

    /** What audit() is told of a line the owner holds absent. */
    static constexpr std::uint32_t kNoStamp = 0xffffffffu;

    /**
     * The axis against the owner's stamps of lines 0..num_lines-1
     * (`stampOf` gives kNoStamp for an absent line): every present
     * line holds its stamp, no absent or unknown line holds one, and
     * nothing sits at or past next(). "" when consistent, else the
     * first violation.
     */
    std::string
    audit(LineId num_lines,
          const std::function<std::uint32_t(LineId)> &stampOf) const;

  private:
    std::uint32_t capacity_;
    std::uint32_t next_ = 0;
    /** Line at each stamp, kInvalidLine where empty. */
    std::vector<LineId> lineAt_;
};

} // namespace fscache

#endif // FSCACHE_RANKING_STAMP_AXIS_HH
