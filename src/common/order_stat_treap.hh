/**
 * @file
 * Order-statistic treap.
 *
 * The futility of a cache line is its rank inside its partition,
 * normalized to (0, 1] (Section III.A of the paper): for the line
 * ranked r-th most useless out of M, f = r / M. Computing exact
 * ranks online requires an order-statistic structure per partition;
 * this treap provides insert / erase / rank queries in expected
 * O(log n) with no allocation on the hot path (nodes come from a
 * free-listed pool).
 *
 * Keys encode "usefulness": *larger key = more useful* (e.g. a
 * higher access count under LFU). The futility rank of a key k is
 * then size() - countLess(k), and the least useful line is minKey().
 * Keys must be unique; the rankings make them so by breaking ties
 * in their policy value on line id.
 *
 * Hot-path design (see docs/PERF.md): every mutation is iterative —
 * the simulator calls insert/erase/reKey once or twice per cache
 * access, and recursion was measurably slower and stack-bounded on
 * deep unlucky treaps. reKey() relocates a node without releasing
 * it, and the minimum is cached so worstIn-style queries are O(1);
 * only erasing the current minimum pays one leftmost re-descent.
 */

#ifndef FSCACHE_COMMON_ORDER_STAT_TREAP_HH
#define FSCACHE_COMMON_ORDER_STAT_TREAP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.hh"
#include "common/log.hh"
#include "common/random.hh"

namespace fscache
{

/**
 * Treap over unique keys with subtree-size augmentation.
 *
 * @tparam Key totally ordered key type (operator< / operator==).
 */
template <typename Key>
class OrderStatTreap
{
  public:
    explicit OrderStatTreap(std::uint64_t seed = 0x7265617071ull)
        : rng_(seed)
    {
    }

    /** Number of keys currently stored. */
    std::uint32_t size() const { return count(root_); }

    bool empty() const { return root_ == kNil; }

    /** Insert a key that must not already be present. */
    void
    insert(const Key &key)
    {
        insertNode(allocNode(key));
    }

    /**
     * Erase a key that must be present.
     * Panics (in debug spirit) if the key is absent, since an absent
     * key means the caller's line bookkeeping is corrupt.
     */
    void
    erase(const Key &key)
    {
        std::uint32_t node = detach(key);
        fs_assert(node != kNil, "erase of absent key");
        // fs-analyze: allow(hot-path-alloc) freeList_ never holds
        // more ids than nodes_ has slots; capacity saturates at
        // the pool high-water mark (tests/test_hot_alloc.cc).
        freeList_.push_back(node);
    }

    /**
     * Move a present key to a new (absent) key in one operation:
     * the node is detached and relinked without touching the free
     * list or drawing a fresh priority. This is the hit path of
     * every treap-backed ranking (LFU and RRIP re-key a line on each
     * touch).
     */
    void
    reKey(const Key &old_key, const Key &new_key)
    {
        std::uint32_t node = detach(old_key);
        fs_assert(node != kNil, "reKey of absent key");
        Node &n = nodes_[node];
        n.key = new_key;
        n.left = kNil;
        n.right = kNil;
        n.size = 1;
        insertNode(node);
    }

    /** True iff the key is present. */
    bool
    contains(const Key &key) const
    {
        std::uint32_t node = root_;
        while (node != kNil) {
            if (key < nodes_[node].key)
                node = nodes_[node].left;
            else if (nodes_[node].key < key)
                node = nodes_[node].right;
            else
                return true;
        }
        return false;
    }

    /** Number of stored keys strictly less than key. */
    std::uint32_t
    countLess(const Key &key) const
    {
        std::uint32_t node = root_;
        std::uint32_t below = 0;
        while (node != kNil) {
            if (key < nodes_[node].key || key == nodes_[node].key) {
                node = nodes_[node].left;
            } else {
                below += count(nodes_[node].left) + 1;
                node = nodes_[node].right;
            }
        }
        return below;
    }

    /**
     * Futility rank of a present key, in [1, size()]: the most
     * useful (largest) key has rank 1, the least useful (smallest)
     * has rank size(). Matches the paper's r in f = r / M.
     */
    std::uint32_t
    futilityRank(const Key &key) const
    {
        return size() - countLess(key);
    }

    /**
     * Smallest key (the least useful line). Treap must be non-empty.
     * O(1): the minimum is cached across mutations.
     */
    Key
    minKey() const
    {
        fs_assert(root_ != kNil, "minKey on empty treap");
        return nodes_[minNode_].key;
    }

    /** Largest key (the most useful line). Treap must be non-empty. */
    Key
    maxKey() const
    {
        fs_assert(root_ != kNil, "maxKey on empty treap");
        std::uint32_t node = root_;
        while (nodes_[node].right != kNil)
            node = nodes_[node].right;
        return nodes_[node].key;
    }

    /** k-th smallest key, 0-based. k must be < size(). */
    Key
    kth(std::uint32_t k) const
    {
        fs_assert(k < size(), "kth out of range");
        std::uint32_t node = root_;
        while (true) {
            std::uint32_t left = count(nodes_[node].left);
            if (k < left) {
                node = nodes_[node].left;
            } else if (k == left) {
                return nodes_[node].key;
            } else {
                k -= left + 1;
                node = nodes_[node].right;
            }
        }
    }

    /**
     * Remove everything. The node pool is retained: every slot goes
     * back on the free list and the arrays keep their size, so a
     * clear + refill cycle performs no allocation (and no pool
     * shrink — see poolSize()). FS_COLD: only called when a cache
     * is (re)built, never per access.
     */
    FS_COLD void
    clear()
    {
        auto pool = static_cast<std::uint32_t>(nodes_.size());
        freeList_.resize(pool);
        // Pop order is back-first; hand out node 0 first, matching
        // a freshly built treap.
        for (std::uint32_t i = 0; i < pool; ++i)
            freeList_[i] = pool - 1 - i;
        root_ = kNil;
        minNode_ = kNil;
    }

    /** Nodes ever allocated (pool size, survives clear()). */
    std::uint32_t
    poolSize() const
    {
        return static_cast<std::uint32_t>(nodes_.size());
    }

    /**
     * Structural self-audit (FS_AUDIT=paranoid; see src/check).
     * Walks the whole tree verifying the three treap invariants —
     * heap order on priorities, BST order on keys, subtree-size
     * augmentation — plus the cached minimum, link sanity and
     * acyclicity. O(n); not for hot paths.
     *
     * @return "" when consistent, else the first violation found.
     */
    std::string
    auditInvariants() const
    {
        if (root_ == kNil) {
            if (minNode_ != kNil)
                return "cached min set on an empty treap";
            return std::string();
        }
        if (root_ >= nodes_.size())
            return strprintf("root index %u out of pool (%zu)",
                             root_, nodes_.size());

        // Iterative in-order walk; state 0 = descend left,
        // 1 = visit + descend right.
        std::vector<std::pair<std::uint32_t, int>> stack;
        std::vector<bool> seen(nodes_.size(), false);
        std::uint32_t visited = 0;
        std::uint32_t prev = kNil;
        stack.push_back({root_, 0});
        while (!stack.empty()) {
            auto &[node, state] = stack.back();
            const Node &n = nodes_[node];
            if (state == 0) {
                state = 1;
                if (seen[node])
                    return strprintf("node %u linked twice (cycle "
                                     "or shared subtree)", node);
                seen[node] = true;
                std::uint32_t expect = count(n.left) +
                                       count(n.right) + 1;
                if (n.size != expect) {
                    return strprintf(
                        "subtree size of node %u is %u, children "
                        "say %u", node, n.size, expect);
                }
                for (std::uint32_t child : {n.left, n.right}) {
                    if (child == kNil)
                        continue;
                    if (child >= nodes_.size())
                        return strprintf("node %u links to %u, "
                                         "outside the pool", node,
                                         child);
                    if (nodes_[child].prio > n.prio) {
                        return strprintf(
                            "heap violation: child %u has higher "
                            "priority than parent %u", child, node);
                    }
                }
                if (n.left != kNil)
                    stack.push_back({n.left, 0});
                continue;
            }
            // In-order visit: keys must be strictly increasing.
            if (prev != kNil && !(nodes_[prev].key < n.key)) {
                return strprintf("key order violation: node %u is "
                                 "not greater than its in-order "
                                 "predecessor %u", node, prev);
            }
            if (prev == kNil && node != minNode_) {
                return strprintf("cached min is node %u but the "
                                 "leftmost node is %u", minNode_,
                                 node);
            }
            prev = node;
            ++visited;
            std::uint32_t right = n.right;
            stack.pop_back();
            if (right != kNil)
                stack.push_back({right, 0});
        }
        if (visited != nodes_[root_].size) {
            return strprintf("reachable node count %u != root "
                             "subtree size %u", visited,
                             nodes_[root_].size);
        }
        if (visited + freeList_.size() != nodes_.size()) {
            return strprintf(
                "pool accounting: %u reachable + %zu free != %zu "
                "allocated", visited, freeList_.size(),
                nodes_.size());
        }
        return std::string();
    }

    /**
     * Deliberately inflate the root's cached subtree size by one
     * (FS_FAULTS `cell=N:corrupt-treap`). Chosen because it is
     * silent *and* navigation-safe: descents read the children's
     * sizes, never the root's, so no subsequent erase/reKey can
     * crash on it — yet size() (and with it every partLines() sum
     * and exactFutility() denominator) is now wrong, which is
     * precisely what auditOccupancySums, the subtree-size audit arm
     * and the shadow model's futility check exist to detect.
     * Returns false on an empty treap (nothing was corrupted).
     */
    bool
    corruptSubtreeSizeForFaultInjection()
    {
        if (root_ == kNil)
            return false;
        ++nodes_[root_].size;
        return true;
    }

    /** Test-only backdoor for corrupting private state (defined as
     *  an explicit specialization by the self-check unit tests). */
    struct TestAccess;

  private:
    friend struct TestAccess;
    static constexpr std::uint32_t kNil = 0xffffffffu;

    struct Node
    {
        Key key;
        std::uint64_t prio;
        std::uint32_t left;
        std::uint32_t right;
        std::uint32_t size;
    };

    std::uint32_t
    count(std::uint32_t node) const
    {
        return node == kNil ? 0 : nodes_[node].size;
    }

    void
    pull(std::uint32_t node)
    {
        nodes_[node].size =
            count(nodes_[node].left) + count(nodes_[node].right) + 1;
    }

    std::uint32_t
    allocNode(const Key &key)
    {
        std::uint32_t idx;
        if (!freeList_.empty()) {
            idx = freeList_.back();
            freeList_.pop_back();
        } else {
            idx = static_cast<std::uint32_t>(nodes_.size());
            // fs-analyze: allow(hot-path-alloc) node-pool growth:
            // erase() recycles via freeList_, so the pool only
            // grows until the working set's high-water mark, then
            // allocation stops (tests/test_hot_alloc.cc).
            nodes_.emplace_back();
            // Descent depth is bounded by the live node count, but a
            // randomized treap can set a new depth high-water long
            // after the pool stops growing; sizing the spine buffer
            // to the pool here keeps every later descent
            // allocation-free.
            if (path_.capacity() < nodes_.size())
                // fs-analyze: allow(hot-path-alloc) amortized with
                // pool growth above; stops at the high-water mark.
                path_.reserve(nodes_.capacity());
            // merge()/splitInto() thread both subtree spines through
            // scratch_, so its worst case is twice a single descent.
            if (scratch_.capacity() < 2 * nodes_.size())
                // fs-analyze: allow(hot-path-alloc) same
                // amortization as path_ above.
                scratch_.reserve(2 * nodes_.capacity());
        }
        Node &n = nodes_[idx];
        n.key = key;
        n.prio = rng_();
        n.left = kNil;
        n.right = kNil;
        n.size = 1;
        return idx;
    }

    /** Re-descend to the leftmost node to refresh the cached min. */
    void
    recomputeMin()
    {
        std::uint32_t node = root_;
        if (node == kNil) {
            minNode_ = kNil;
            return;
        }
        while (nodes_[node].left != kNil)
            node = nodes_[node].left;
        minNode_ = node;
    }

    /**
     * Link a detached node (fields key/prio set, children nil) into
     * the tree: descend by priority, then split the displaced
     * subtree under the new node. Iterative throughout.
     */
    void
    insertNode(std::uint32_t node)
    {
        const Key &key = nodes_[node].key;
        std::uint32_t *link = &root_;
        path_.clear();
        while (*link != kNil &&
               nodes_[*link].prio > nodes_[node].prio) {
            std::uint32_t n = *link;
            // fs-analyze: allow(hot-path-alloc) path_ is a reused
            // spine buffer; capacity is bounded by the expected
            // O(log n) treap depth (tests/test_hot_alloc.cc).
            path_.push_back(n);
            link = key < nodes_[n].key ? &nodes_[n].left
                                       : &nodes_[n].right;
        }
        std::uint32_t displaced = *link;
        *link = node;
        splitInto(displaced, key, nodes_[node].left,
                  nodes_[node].right);
        pull(node);
        for (auto it = path_.rbegin(); it != path_.rend(); ++it)
            pull(*it);
        if (minNode_ == kNil || key < nodes_[minNode_].key)
            minNode_ = node;
    }

    /**
     * Unlink and return the node holding `key` (kNil when absent).
     * The node keeps its key/prio; callers relink or free it.
     */
    std::uint32_t
    detach(const Key &key)
    {
        std::uint32_t *link = &root_;
        path_.clear();
        while (*link != kNil) {
            std::uint32_t n = *link;
            if (key < nodes_[n].key) {
                // fs-analyze: allow(hot-path-alloc) reused spine
                // buffer, depth-bounded (see insertNode).
                path_.push_back(n);
                link = &nodes_[n].left;
            } else if (nodes_[n].key < key) {
                // fs-analyze: allow(hot-path-alloc) see above.
                path_.push_back(n);
                link = &nodes_[n].right;
            } else {
                *link = merge(nodes_[n].left, nodes_[n].right);
                for (auto it = path_.rbegin(); it != path_.rend();
                     ++it)
                    pull(*it);
                if (n == minNode_)
                    recomputeMin();
                return n;
            }
        }
        return kNil;
    }

    /**
     * Split by key into two trees: lo gets keys < key, hi gets
     * keys >= key, written through the given links. Iterative: the
     * descent threads the two result spines, sizes are fixed
     * bottom-up afterwards.
     */
    void
    splitInto(std::uint32_t node, const Key &key, std::uint32_t &lo,
              std::uint32_t &hi)
    {
        std::uint32_t *lo_link = &lo;
        std::uint32_t *hi_link = &hi;
        scratch_.clear();
        while (node != kNil) {
            // fs-analyze: allow(hot-path-alloc) reused split/merge
            // spine buffer, depth-bounded (see insertNode).
            scratch_.push_back(node);
            if (nodes_[node].key < key) {
                *lo_link = node;
                lo_link = &nodes_[node].right;
                node = *lo_link;
            } else {
                *hi_link = node;
                hi_link = &nodes_[node].left;
                node = *hi_link;
            }
        }
        *lo_link = kNil;
        *hi_link = kNil;
        for (auto it = scratch_.rbegin(); it != scratch_.rend(); ++it)
            pull(*it);
    }

    /** Merge two trees where every key in a < every key in b. */
    std::uint32_t
    merge(std::uint32_t a, std::uint32_t b)
    {
        if (a == kNil)
            return b;
        if (b == kNil)
            return a;
        std::uint32_t root = kNil;
        std::uint32_t *link = &root;
        scratch_.clear();
        while (true) {
            if (a == kNil) {
                *link = b;
                break;
            }
            if (b == kNil) {
                *link = a;
                break;
            }
            if (nodes_[a].prio > nodes_[b].prio) {
                *link = a;
                // fs-analyze: allow(hot-path-alloc) reused merge
                // spine buffer, depth-bounded (see insertNode).
                scratch_.push_back(a);
                link = &nodes_[a].right;
                a = nodes_[a].right;
            } else {
                *link = b;
                // fs-analyze: allow(hot-path-alloc) see above.
                scratch_.push_back(b);
                link = &nodes_[b].left;
                b = nodes_[b].left;
            }
        }
        for (auto it = scratch_.rbegin(); it != scratch_.rend(); ++it)
            pull(*it);
        return root;
    }

    std::vector<Node> nodes_;
    std::vector<std::uint32_t> freeList_;
    /** Descent scratch (members, so mutations never allocate). */
    std::vector<std::uint32_t> path_;
    std::vector<std::uint32_t> scratch_;
    std::uint32_t root_ = kNil;
    std::uint32_t minNode_ = kNil;
    Rng rng_;
};

} // namespace fscache

#endif // FSCACHE_COMMON_ORDER_STAT_TREAP_HH
