/**
 * @file
 * Binary-indexed (Fenwick) count tree over a power-of-two range of
 * positions: each position holds a count (mark() adds one, unmark()
 * removes one), and the tree answers "how many marks below position
 * p" and "where is the k-th mark" in O(log capacity) array
 * arithmetic.
 *
 * This is the order structure behind RecencyRankingBase (positions
 * are recency stamps, marks are resident lines, prefix counts are
 * exact LRU ranks), OptRanking (positions are next-use times; equal
 * next uses share a position, so counts exceed one) and the
 * StackDistGenerator's LRU stack (the k-th most recent entry is a
 * select). Compared to an order-statistic treap, a Fenwick walk
 * touches log2(C) contiguous array words instead of chasing log2(N)
 * heap-allocated node pointers, and needs no rebalancing state (no
 * priorities, no RNG).
 */

#ifndef FSCACHE_COMMON_FENWICK_HH
#define FSCACHE_COMMON_FENWICK_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/log.hh"

namespace fscache
{

/** See file comment. */
class FenwickTree
{
  public:
    FenwickTree() = default;

    explicit FenwickTree(std::uint32_t capacity) { reset(capacity); }

    /** (Re)size to `capacity` positions, all empty. */
    void
    reset(std::uint32_t capacity)
    {
        fs_assert(capacity > 0 &&
                      (capacity & (capacity - 1)) == 0,
                  "fenwick capacity must be a power of two");
        cap_ = capacity;
        total_ = 0;
        // fs-analyze: allow(hot-path-alloc) reset runs once per
        // tree — construction, or first sight of a partition id in
        // a ranking's ensurePart, bounded by the partition count —
        // or when StackDistGenerator doubles its axis, bounded by
        // log2(maxResident) (witness: tests/test_hot_alloc.cc).
        tree_.assign(cap_ + 1, 0);
    }

    /** Empty every position; capacity is kept. */
    void
    clear()
    {
        std::fill(tree_.begin(), tree_.end(), 0);
        total_ = 0;
    }

    /**
     * Extend to `capacity` (a power of two >= capacity()), keeping
     * every count. Each doubling C -> 2C leaves nodes 1..C as they
     * are (their ranges do not move), zeroes C+1..2C-1 (their ranges
     * lie in the new, empty half) and sets node 2C, whose range is
     * the whole axis, to the total.
     */
    void
    grow(std::uint32_t capacity)
    {
        fs_assert(capacity >= cap_ && (capacity & (capacity - 1)) == 0,
                  "fenwick growth must be to a larger power of two");
        // fs-analyze: allow(hot-path-alloc) callers grow by doubling
        // to cover a bounded axis (OptRanking: the largest next use,
        // so at most log2(trace length) growths per run).
        tree_.resize(capacity + 1, 0);
        for (std::uint32_t c = cap_; c < capacity; c <<= 1)
            tree_[2 * c] = total_;
        cap_ = capacity;
    }

    /** Make exactly positions [0, n) marked once each, in O(capacity)
     *  (node i covers the 1-based range (i - lowbit(i), i]). */
    void
    fillPrefix(std::uint32_t n)
    {
        fs_assert(n <= cap_, "fenwick prefix fill out of range");
        for (std::uint32_t i = 1; i <= cap_; ++i) {
            std::uint32_t lo = i - (i & (0u - i));
            tree_[i] = n > lo ? std::min(i, n) - lo : 0;
        }
        total_ = n;
    }

    /** Add one mark at `pos`. */
    void
    mark(std::uint32_t pos)
    {
        update(pos, +1);
        ++total_;
    }

    /** Remove one mark from (currently marked) position `pos`. */
    void
    unmark(std::uint32_t pos)
    {
        update(pos, -1);
        --total_;
    }

    /** Number of marked positions strictly below `pos`
     *  (pos == capacity() gives the full count). */
    std::uint32_t
    countBelow(std::uint32_t pos) const
    {
        fs_assert(pos <= cap_, "fenwick prefix out of range");
        std::uint32_t sum = 0;
        for (std::uint32_t i = pos; i > 0; i &= i - 1)
            sum += tree_[i];
        return sum;
    }

    std::uint32_t total() const { return total_; }

    std::uint32_t capacity() const { return cap_; }

    /**
     * Position of the k-th mark in position order (0-based; a
     * position holding c marks is hit by c consecutive k), by the
     * standard select descent: walk the implicit tree from the top
     * bit down, stepping right past every left subtree that holds
     * no more than the marks still needed. Requires k < total().
     * select(0) is the lowest marked position, select(total() - 1)
     * the highest.
     */
    std::uint32_t
    select(std::uint32_t k) const
    {
        fs_assert(k < total_, "fenwick select out of range");
        std::uint32_t pos = 0;
        std::uint32_t need = k + 1;
        // Node cap_ covers the whole axis and holds total_ >= need,
        // so the descent starts one level below it.
        for (std::uint32_t bit = cap_ >> 1; bit > 0; bit >>= 1) {
            std::uint32_t next = pos + bit;
            if (tree_[next] < need) {
                need -= tree_[next];
                pos = next;
            }
        }
        return pos;
    }

  private:
    void
    update(std::uint32_t pos, std::int32_t delta)
    {
        fs_assert(pos < cap_, "fenwick position out of range");
        for (std::uint32_t i = pos + 1; i <= cap_; i += i & (0u - i))
            tree_[i] = static_cast<std::uint32_t>(
                static_cast<std::int64_t>(tree_[i]) + delta);
    }

    std::uint32_t cap_ = 0;
    std::uint32_t total_ = 0;
    /** 1-based implicit tree; tree_[i] counts marks in the range
     *  (i - lowbit(i), i] of 1-based positions. */
    std::vector<std::uint32_t> tree_;
};

} // namespace fscache

#endif // FSCACHE_COMMON_FENWICK_HH
