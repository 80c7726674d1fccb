/**
 * @file
 * Binary-indexed (Fenwick) count trees over a power-of-two range of
 * positions: mark() adds a mark at a position, unmark() removes one,
 * and the tree answers "how many marks below position p" and "where
 * is the k-th mark" in O(log capacity) array arithmetic. Compared to
 * an order-statistic treap, a Fenwick walk touches log2(C)
 * contiguous array words instead of chasing log2(N) heap-allocated
 * node pointers, and needs no rebalancing state (no priorities, no
 * RNG).
 *
 * Two shapes:
 *
 *  - FenwickTree: a 4-byte count per position, so a position can
 *    hold any number of marks. ClassRankingBase's class counts (a
 *    class holds many lines) need that, and so do OptRanking's
 *    duplicate counts (a partition's lines beyond the first at one
 *    next use), which exist only in a partition that has had two
 *    lines at one next use.
 *  - BitFenwick: for mark-once axes, one bit per position plus a
 *    FenwickTree over the popcounts of the 64-bit words: 1/8 B
 *    plus 1/16 B per position instead of 4 B, and a tree six
 *    levels shallower. Every other client is mark-once:
 *    ClassRankingBase's per-class buckets on the recency stamp
 *    axis (marks are resident lines, prefix counts are touch-order
 *    ranks; LRU, coarse LRU's shadow and Random have one class,
 *    LFU and RRIP many), OPT's occupied next-use positions and its
 *    never-used set over line ids, and the StackDistGenerator's LRU
 *    stack (the k-th most recent entry is a select).
 */

#ifndef FSCACHE_COMMON_FENWICK_HH
#define FSCACHE_COMMON_FENWICK_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/log.hh"

namespace fscache
{

/** A 4-byte count per position; see file comment. */
class FenwickTree
{
  public:
    /** Where select() found the k-th mark: its position, and k's
     *  0-based index among the marks at that position. */
    struct Slot
    {
        std::uint32_t pos;
        std::uint32_t within;
    };

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
        // Reset runs once per tree, from BitFenwick::reset or when
        // an OptRanking partition first shares a next use; both are
        // bounded (see BitFenwick::reset; witness:
        // tests/test_hot_alloc.cc).
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
        // Callers grow by doubling to cover a bounded axis
        // (OptRanking's duplicate counts and BitFenwick::grow: the
        // largest next use, so at most log2(trace length) growths
        // per run).
        tree_.resize(capacity + 1, 0);
        for (std::uint32_t c = cap_; c < capacity; c <<= 1)
            tree_[2 * c] = total_;
        cap_ = capacity;
    }

    /**
     * Lay n marks out `per_pos` to a position from position 0 up
     * (the last position reached may hold fewer), in O(capacity):
     * node i covers the 0-based positions [i - lowbit(i), i), which
     * hold the marks numbered from per_pos * (i - lowbit(i)).
     */
    void
    fillPrefix(std::uint32_t n, std::uint32_t per_pos = 1)
    {
        fs_assert(n <= std::uint64_t{per_pos} * cap_,
                  "fenwick prefix fill out of range");
        for (std::uint32_t i = 1; i <= cap_; ++i) {
            std::uint32_t lo = i - (i & (0u - i));
            std::uint64_t first = std::uint64_t{per_pos} * lo;
            std::uint64_t span = std::uint64_t{per_pos} * (i - lo);
            tree_[i] = n > first ? static_cast<std::uint32_t>(
                                       std::min(n - first, span))
                                 : 0;
        }
        total_ = n;
    }

    /**
     * Set every position's count to count(pos), in O(capacity):
     * each node passes its range's sum up to its parent, whose range
     * contains it, once its own children have passed theirs.
     */
    template <class Count>
    void
    assign(Count count)
    {
        total_ = 0;
        for (std::uint32_t i = 1; i <= cap_; ++i) {
            tree_[i] = count(i - 1);
            total_ += tree_[i];
        }
        for (std::uint32_t i = 1; i < cap_; ++i) {
            std::uint32_t parent = i + (i & (0u - i));
            if (parent <= cap_)
                tree_[parent] += tree_[i];
        }
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

    /** Bytes the tree holds. */
    std::uint64_t
    bytes() const
    {
        return tree_.capacity() * sizeof(std::uint32_t);
    }

    /**
     * Where the k-th mark in position order lies (0-based; a
     * position holding c marks is hit by c consecutive k, with
     * within 0..c-1), by the standard select descent: walk the
     * implicit tree from the top bit down, stepping right past
     * every left subtree that holds no more than the marks still
     * needed. Requires k < total(). select(0) is the lowest marked
     * position, select(total() - 1) the highest.
     */
    Slot
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
        return {pos, need - 1};
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

/**
 * A mark-once FenwickTree: one bit per position and a FenwickTree
 * over the popcounts of the 64-bit words (see file comment). Same
 * interface and answers as a FenwickTree whose positions each hold
 * at most one mark; mark() and unmark() assert that. It also keeps
 * the index of its first nonzero word, so select(0) — the lowest
 * mark, which every worstIn() asks for — is one word read.
 */
class BitFenwick
{
  public:
    BitFenwick() = default;

    explicit BitFenwick(std::uint32_t capacity) { reset(capacity); }

    /** (Re)size to `capacity` positions (a power of two >= 64), all
     *  empty. */
    void
    reset(std::uint32_t capacity)
    {
        fs_assert(capacity >= 64 && (capacity & (capacity - 1)) == 0,
                  "bit fenwick capacity must be a power of two >= 64");
        // Reset runs once per index — construction, or first sight of
        // a partition id in a ranking's ensurePart, bounded by the
        // partition count — or when StackDistGenerator doubles its
        // axis, bounded by log2(maxResident) (witness:
        // tests/test_hot_alloc.cc). The extra last word stays zero, so
        // countBelow(capacity) needs no branch.
        bits_.assign(capacity / 64 + 1, 0);
        words_.reset(capacity / 64);
        first_ = capacity / 64;
    }

    /**
     * Extend to `capacity` (a power of two >= capacity()), keeping
     * every mark: the old extra zero word becomes a real one, the
     * new words and the new extra word are zero, and the word tree
     * grows like FenwickTree::grow. An empty tree's first-word index
     * moves to the new word count.
     */
    void
    grow(std::uint32_t capacity)
    {
        fs_assert(this->capacity() >= 64 && capacity >= this->capacity() &&
                      (capacity & (capacity - 1)) == 0,
                  "fenwick growth must be to a larger power of two");
        if (first_ == words_.capacity())
            first_ = capacity / 64;
        // Doubling growth to cover the largest next use (OptRanking),
        // as FenwickTree::grow.
        bits_.resize(capacity / 64 + 1, 0);
        words_.grow(capacity / 64);
    }

    /** Empty every position; capacity is kept. */
    void
    clear()
    {
        std::fill(bits_.begin(), bits_.end(), 0);
        words_.clear();
        first_ = words_.capacity();
    }

    /** Make exactly positions [0, n) marked, in O(capacity / 64). */
    void
    fillPrefix(std::uint32_t n)
    {
        fs_assert(n <= capacity(), "fenwick prefix fill out of range");
        std::fill(bits_.begin(), bits_.end(), 0);
        std::fill(bits_.begin(), bits_.begin() + n / 64, ~0ull);
        if (n % 64 != 0)
            bits_[n / 64] = (1ull << (n % 64)) - 1;
        words_.fillPrefix(n, 64);
        first_ = n > 0 ? 0 : words_.capacity();
    }

    /**
     * Set the (currently clear) bit of `pos` without counting it, for
     * a bulk rebuild: set every bit, then recount() once, in
     * O(capacity / 64) where a mark() per position walks the word
     * tree each time. Counts, the first-word index, and so every
     * query, are stale until recount().
     */
    void
    setBit(std::uint32_t pos)
    {
        fs_assert(pos < capacity(), "fenwick position out of range");
        bits_[pos >> 6] |= 1ull << (pos & 63);
    }

    /** Recompute the word counts from the bits (after setBit()). */
    void
    recount()
    {
        words_.assign([this](std::uint32_t w) {
            return popcount64(bits_[w]);
        });
        first_ = 0;
        while (first_ < words_.capacity() && bits_[first_] == 0)
            ++first_;
    }

    /** Mark the (currently unmarked) position `pos`. */
    void
    mark(std::uint32_t pos)
    {
        fs_assert(pos < capacity(), "fenwick position out of range");
        std::uint64_t bit = 1ull << (pos & 63);
        std::uint64_t &word = bits_[pos >> 6];
        fs_assert((word & bit) == 0, "fenwick position already marked");
        word |= bit;
        words_.mark(pos >> 6);
        first_ = std::min(first_, pos >> 6);
    }

    /** Unmark the (currently marked) position `pos`. */
    void
    unmark(std::uint32_t pos)
    {
        fs_assert(pos < capacity(), "fenwick position out of range");
        std::uint64_t bit = 1ull << (pos & 63);
        std::uint64_t &word = bits_[pos >> 6];
        fs_assert((word & bit) != 0, "fenwick position not marked");
        word &= ~bit;
        words_.unmark(pos >> 6);
        if (word == 0 && pos >> 6 == first_) {
            // Stops at the word count when the tree empties.
            do
                ++first_;
            while (first_ < words_.capacity() && bits_[first_] == 0);
        }
    }

    /** Number of marked positions strictly below `pos`
     *  (pos == capacity() gives the full count). */
    std::uint32_t
    countBelow(std::uint32_t pos) const
    {
        fs_assert(pos <= capacity(), "fenwick prefix out of range");
        std::uint64_t low = (1ull << (pos & 63)) - 1;
        return words_.countBelow(pos >> 6) +
               popcount64(bits_[pos >> 6] & low);
    }

    /** True iff `pos` is marked. */
    bool
    test(std::uint32_t pos) const
    {
        fs_assert(pos < capacity(), "fenwick position out of range");
        return (bits_[pos >> 6] >> (pos & 63)) & 1;
    }

    std::uint32_t total() const { return words_.total(); }

    std::uint32_t capacity() const { return words_.capacity() * 64; }

    /** Bytes the bits and the word tree hold. */
    std::uint64_t
    bytes() const
    {
        return bits_.capacity() * sizeof(std::uint64_t) + words_.bytes();
    }

    /** Position of the k-th marked position (0-based) in position
     *  order: one descent over the word tree, then a select inside
     *  the word it ends at. Requires k < total(). */
    std::uint32_t
    select(std::uint32_t k) const
    {
        if (k == 0) {
            // The lowest mark, every worstIn(): no descent.
            fs_assert(total() > 0, "fenwick select out of range");
            return first_ * 64 + static_cast<std::uint32_t>(
                                     std::countr_zero(bits_[first_]));
        }
        FenwickTree::Slot slot = words_.select(k);
        return slot.pos * 64 + selectInWord(bits_[slot.pos], slot.within);
    }

  private:
    static constexpr std::uint64_t kOnes = 0x0101010101010101ull;

    /** Popcount of each byte of w, in that byte. Plain shifts and
     *  masks: the default x86-64 target has no popcount instruction,
     *  and std::popcount compiles to a library call there. */
    static constexpr std::uint64_t
    byteCounts(std::uint64_t w)
    {
        constexpr std::uint64_t kPairs = 0x3333333333333333ull;
        w -= (w >> 1) & 0x5555555555555555ull;
        w = (w & kPairs) + ((w >> 2) & kPairs);
        return (w + (w >> 4)) & 0x0f0f0f0f0f0f0f0full;
    }

    static constexpr std::uint32_t
    popcount64(std::uint64_t w)
    {
        return static_cast<std::uint32_t>((byteCounts(w) * kOnes) >> 56);
    }

    /** Bit index of the r-th (0-based) set bit of w; r < popcount(w).
     *  Running byte sums locate the byte, then at most seven
     *  lowest-bit clears locate the bit within it. */
    static constexpr std::uint32_t
    selectInWord(std::uint64_t w, std::uint32_t r)
    {
        if (r == 0)
            return static_cast<std::uint32_t>(std::countr_zero(w));
        constexpr std::uint64_t kHigh = 0x8080808080808080ull;
        // Byte i of sums = set bits in bytes 0..i (at most 64, so no
        // byte carries into the next).
        std::uint64_t sums = byteCounts(w) * kOnes;
        // A byte's high bit survives iff its running sum is <= r,
        // i.e. the byte lies wholly below the wanted bit; those bytes
        // are a prefix, and counting them names the wanted byte.
        std::uint64_t below = ((r * kOnes | kHigh) - sums) & kHigh;
        std::uint32_t shift =
            8 * static_cast<std::uint32_t>(((below >> 7) * kOnes) >> 56);
        r -= static_cast<std::uint32_t>(((sums << 8) >> shift) & 0xff);
        std::uint64_t bits = (w >> shift) & 0xff;
        for (; r > 0; --r)
            bits &= bits - 1;
        return shift +
               static_cast<std::uint32_t>(std::countr_zero(bits));
    }

    /** Bit p % 64 of word p / 64 is set iff position p is marked;
     *  one zero word past the end. */
    std::vector<std::uint64_t> bits_;
    /** Marks per word of bits_. */
    FenwickTree words_;
    /** Index of the first nonzero word of bits_, or the word count
     *  when empty: mark() lowers it, unmark() advances it past a
     *  word it empties, and select(0) reads the lowest mark there. */
    std::uint32_t first_ = 0;
};

} // namespace fscache

#endif // FSCACHE_COMMON_FENWICK_HH
