/**
 * @file
 * Flat open-addressing hash map for the simulation hot path.
 *
 * TagStore resolves one address lookup per simulated access, which
 * makes that lookup the hottest operation in the codebase. A chained
 * std::unordered_map pays a pointer dereference per node plus a
 * modulo per probe; this table instead keeps all slots in one
 * contiguous power-of-two array sized once at construction:
 *
 *  - mix64 finalizer hashing (the same bijective mixer src/common's
 *    Rng seeding uses), masked onto the table — no division;
 *  - linear probing, so a probe sequence is one cache-friendly scan;
 *  - backward-shift deletion (Knuth 6.4 Algorithm R), so erase
 *    leaves no tombstones and lookups never degrade over time;
 *  - zero allocation after construction — the capacity for
 *    `max_entries` live keys (at most 50% load) is reserved up
 *    front, matching how a tag store knows num_lines at build time.
 *
 * Keys are 64-bit; `kEmptyKey` (all ones — kInvalidAddr, which no
 * valid line can carry) marks free slots. Not a general-purpose map:
 * no growth, no iteration, keys must not be the sentinel.
 */

#ifndef FSCACHE_COMMON_FLAT_MAP_HH
#define FSCACHE_COMMON_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/random.hh"

namespace fscache
{

/**
 * Open-addressing uint64 -> V map with a fixed capacity.
 *
 * @tparam V mapped type (trivially copyable expected; slots are
 *           moved wholesale during backward-shift deletion)
 */
template <typename V>
class FlatMap
{
  public:
    /** Free-slot marker; never insertable as a key. */
    static constexpr std::uint64_t kEmptyKey = ~0ull;

    /**
     * @param max_entries most live keys the table must hold; the
     *        backing array is the next power of two of twice this,
     *        capping load factor at 50%.
     */
    explicit FlatMap(std::size_t max_entries)
        : maxEntries_(max_entries)
    {
        fs_assert(max_entries > 0, "flat map needs capacity");
        std::size_t cap = 2;
        while (cap < max_entries * 2)
            cap <<= 1;
        slots_.resize(cap);
        mask_ = cap - 1;
        for (Slot &s : slots_)
            s.key = kEmptyKey;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Live-key limit this table was sized for. */
    std::size_t maxEntries() const { return maxEntries_; }

    /** Backing-array slot count (a power of two). */
    std::size_t capacity() const { return slots_.size(); }

    /** Pointer to the value for key, or nullptr when absent. */
    V *
    find(std::uint64_t key)
    {
        std::size_t i = home(key);
        while (slots_[i].key != kEmptyKey) {
            if (slots_[i].key == key)
                return &slots_[i].value;
            i = (i + 1) & mask_;
        }
        return nullptr;
    }

    const V *
    find(std::uint64_t key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    bool contains(std::uint64_t key) const
    { return find(key) != nullptr; }

    /** Insert a key that must be absent (and not the sentinel). */
    void
    insert(std::uint64_t key, const V &value)
    {
        bool inserted = tryInsert(key, value).second;
        fs_assert(inserted, "flat map duplicate insert");
    }

    /**
     * Find `key`, or insert it with `value` if absent, in one probe
     * sequence. Returns the key's value slot and whether it was
     * inserted (the key must not be the sentinel).
     */
    std::pair<V *, bool>
    tryInsert(std::uint64_t key, const V &value)
    {
        fs_assert(key != kEmptyKey, "flat map sentinel key inserted");
        std::size_t i = home(key);
        while (slots_[i].key != kEmptyKey) {
            if (slots_[i].key == key)
                return {&slots_[i].value, false};
            i = (i + 1) & mask_;
        }
        fs_assert(size_ < maxEntries_, "flat map over capacity");
        slots_[i].key = key;
        slots_[i].value = value;
        ++size_;
        return {&slots_[i].value, true};
    }

    /**
     * Erase a key. Returns false when absent. Backward-shifts the
     * probe chain so no tombstone is left behind.
     */
    bool
    erase(std::uint64_t key)
    {
        std::size_t i = home(key);
        while (slots_[i].key != key) {
            if (slots_[i].key == kEmptyKey)
                return false;
            i = (i + 1) & mask_;
        }
        // Backward shift: pull every displaced successor of the
        // chain into the hole unless it already sits at (or cyclic-
        // after) its home slot relative to the hole.
        std::size_t hole = i;
        std::size_t j = i;
        while (true) {
            j = (j + 1) & mask_;
            if (slots_[j].key == kEmptyKey)
                break;
            std::size_t h = home(slots_[j].key);
            // Move iff the element's home lies cyclically at or
            // before the hole, i.e. probing from h reaches `hole`
            // no later than `j`.
            if (((j - h) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole].key = kEmptyKey;
        --size_;
        return true;
    }

    /** Remove every key; capacity is retained. */
    void
    clear()
    {
        for (Slot &s : slots_)
            s.key = kEmptyKey;
        size_ = 0;
    }

    /**
     * Structural self-audit (FS_AUDIT=paranoid; see src/check).
     * Verifies occupancy accounting, the load-factor bound, and —
     * the property backward-shift deletion must preserve — that
     * every occupied slot is reachable by linear probing from its
     * home slot with no intervening empty slot. O(capacity * probe
     * length); not for hot paths.
     *
     * @return "" when consistent, else the first violation found.
     */
    std::string
    auditInvariants() const
    {
        std::size_t live = 0;
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            std::uint64_t key = slots_[i].key;
            if (key == kEmptyKey)
                continue;
            ++live;
            // Probe-chain integrity: walking from home(key) must
            // reach slot i before any empty slot.
            std::size_t j = home(key);
            std::size_t steps = 0;
            while (j != i) {
                if (slots_[j].key == kEmptyKey) {
                    return strprintf(
                        "key %llu at slot %zu unreachable: empty "
                        "slot %zu breaks its probe chain from home "
                        "%zu",
                        static_cast<unsigned long long>(key), i, j,
                        home(key));
                }
                if (slots_[j].key == key) {
                    return strprintf(
                        "duplicate key %llu at slots %zu and %zu",
                        static_cast<unsigned long long>(key), j, i);
                }
                if (++steps > slots_.size())
                    return "probe chain does not terminate";
                j = (j + 1) & mask_;
            }
        }
        if (live != size_) {
            return strprintf("occupancy mismatch: %zu occupied "
                             "slots vs size() %zu", live, size_);
        }
        if (size_ > maxEntries_) {
            return strprintf("over capacity: %zu live keys, sized "
                             "for %zu", size_, maxEntries_);
        }
        return std::string();
    }

    /** Test-only backdoor for corrupting private state (defined as
     *  an explicit specialization by the self-check unit tests). */
    struct TestAccess;

  private:
    friend struct TestAccess;
    struct Slot
    {
        std::uint64_t key;
        V value;
    };

    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>(mix64(key)) & mask_;
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
    std::size_t maxEntries_ = 0;
};

} // namespace fscache

#endif // FSCACHE_COMMON_FLAT_MAP_HH
