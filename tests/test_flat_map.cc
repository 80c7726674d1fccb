/**
 * @file
 * FlatMap tests: randomized differential checks against
 * std::unordered_map, plus the open-addressing edge cases that a
 * model test can miss by luck (wrap-around probe chains, full
 * tables, backward-shift deletion inside clusters).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hh"
#include "common/random.hh"

namespace fscache
{
namespace
{

TEST(FlatMap, EmptyBasics)
{
    FlatMap<std::uint32_t> m(16);
    EXPECT_EQ(m.size(), 0u);
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(0), nullptr);
    EXPECT_FALSE(m.contains(12345));
    EXPECT_FALSE(m.erase(7));
}

TEST(FlatMap, CapacityIsPowerOfTwoAtHalfLoad)
{
    FlatMap<std::uint32_t> m(4096);
    EXPECT_EQ(m.maxEntries(), 4096u);
    EXPECT_EQ(m.capacity(), 8192u);
    EXPECT_EQ(m.capacity() & (m.capacity() - 1), 0u);

    // Non-power-of-two sizing rounds up.
    FlatMap<std::uint32_t> odd(3000);
    EXPECT_EQ(odd.capacity(), 8192u);
}

TEST(FlatMap, InsertFindErase)
{
    FlatMap<std::uint32_t> m(8);
    m.insert(100, 1);
    m.insert(200, 2);
    ASSERT_NE(m.find(100), nullptr);
    EXPECT_EQ(*m.find(100), 1u);
    EXPECT_EQ(*m.find(200), 2u);
    EXPECT_EQ(m.find(300), nullptr);

    // Values are writable in place (TagStore's move path).
    *m.find(100) = 9;
    EXPECT_EQ(*m.find(100), 9u);

    EXPECT_TRUE(m.erase(100));
    EXPECT_EQ(m.find(100), nullptr);
    EXPECT_FALSE(m.erase(100));
    EXPECT_EQ(m.size(), 1u);
}

/** tryInsert finds a present key without touching its value, and
 *  inserts an absent one; either way its slot is writable. */
TEST(FlatMap, TryInsertFindsOrInserts)
{
    FlatMap<std::uint32_t> m(8);
    auto [first, inserted] = m.tryInsert(100, 1);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*first, 1u);
    EXPECT_EQ(m.size(), 1u);

    auto [again, again_inserted] = m.tryInsert(100, 7);
    EXPECT_FALSE(again_inserted);
    EXPECT_EQ(again, first);
    EXPECT_EQ(*again, 1u);
    *again = 9;
    EXPECT_EQ(*m.find(100), 9u);
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(m.auditInvariants(), "");
}

TEST(FlatMap, RandomizedDifferentialVsUnorderedMap)
{
    FlatMap<std::uint64_t> m(2048);
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    Rng rng(20240806);

    for (int op = 0; op < 100000; ++op) {
        // Small key space forces heavy insert/erase collisions.
        std::uint64_t key = rng.below(4096);
        double r = rng.uniform();
        if (r < 0.5 && ref.size() < 2048) {
            std::uint64_t val = rng();
            if (ref.emplace(key, val).second)
                m.insert(key, val);
        } else if (r < 0.8) {
            EXPECT_EQ(m.erase(key), ref.erase(key) > 0);
        } else {
            auto it = ref.find(key);
            const std::uint64_t *found = m.find(key);
            if (it == ref.end()) {
                EXPECT_EQ(found, nullptr);
            } else {
                ASSERT_NE(found, nullptr);
                EXPECT_EQ(*found, it->second);
            }
        }
        EXPECT_EQ(m.size(), ref.size());
    }
    // Final sweep: every surviving entry must agree.
    for (const auto &[key, val] : ref) {
        ASSERT_NE(m.find(key), nullptr);
        EXPECT_EQ(*m.find(key), val);
    }
}

TEST(FlatMap, FullTableAllPresent)
{
    // Fill to the declared max (50% of backing capacity): every key
    // must stay reachable even through long probe clusters.
    constexpr std::size_t kMax = 1024;
    FlatMap<std::uint32_t> m(kMax);
    Rng rng(99);
    std::vector<std::uint64_t> keys;
    while (keys.size() < kMax) {
        std::uint64_t key = rng();
        if (key != FlatMap<std::uint32_t>::kEmptyKey &&
            !m.contains(key)) {
            m.insert(key, static_cast<std::uint32_t>(keys.size()));
            keys.push_back(key);
        }
    }
    EXPECT_EQ(m.size(), kMax);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_NE(m.find(keys[i]), nullptr);
        EXPECT_EQ(*m.find(keys[i]), static_cast<std::uint32_t>(i));
    }
    // Drain in insertion order and re-verify the remainder as
    // backward shifts rearrange the clusters.
    for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_TRUE(m.erase(keys[i]));
        if (i % 128 == 0) {
            for (std::size_t j = i + 1; j < keys.size(); ++j)
                ASSERT_NE(m.find(keys[j]), nullptr);
        }
    }
    EXPECT_TRUE(m.empty());
}

TEST(FlatMap, BackwardShiftAcrossWraparound)
{
    // A small table makes it cheap to hammer the index wrap: with
    // 8 entries max (16 slots) and hundreds of erase/insert cycles,
    // probe chains repeatedly straddle the slots_[cap-1] -> slots_[0]
    // boundary, exercising the cyclic-distance move condition.
    FlatMap<std::uint32_t> m(8);
    std::unordered_map<std::uint64_t, std::uint32_t> ref;
    Rng rng(31415);
    for (int op = 0; op < 20000; ++op) {
        std::uint64_t key = rng.below(64);
        if (ref.size() < 8 && rng.chance(0.6)) {
            if (ref.emplace(key, static_cast<std::uint32_t>(op))
                    .second)
                m.insert(key, static_cast<std::uint32_t>(op));
        } else {
            EXPECT_EQ(m.erase(key), ref.erase(key) > 0);
        }
        for (const auto &[k, v] : ref) {
            ASSERT_NE(m.find(k), nullptr) << "lost key " << k;
            EXPECT_EQ(*m.find(k), v);
        }
    }
}

TEST(FlatMap, BackwardShiftWrapBoundaryDeterministic)
{
    // Constructed (non-randomized) wrap-boundary erase: build the
    // exact cluster A@15, B@0, C@1 where A and C home to the last
    // slot (15) and B homes to slot 0, then erase A. The backward
    // shift must pull C across the wrap into slot 15 (its home) but
    // leave B alone — the case where a naive non-cyclic "home <=
    // hole" move condition either strands C (lookup loses it at the
    // hole) or wrongly moves B before its home slot.
    FlatMap<std::uint32_t> m(8); // capacity 16, mask 15
    auto home = [](std::uint64_t key) {
        return static_cast<std::size_t>(mix64(key)) & 15;
    };
    std::vector<std::uint64_t> home15;
    std::uint64_t home0 = 0;
    for (std::uint64_t k = 1; home15.size() < 2 || home0 == 0; ++k) {
        if (home(k) == 15 && home15.size() < 2)
            home15.push_back(k);
        else if (home(k) == 0 && home0 == 0)
            home0 = k;
    }
    const std::uint64_t a = home15[0], c = home15[1], b = home0;

    m.insert(a, 1); // slot 15
    m.insert(b, 2); // slot 0 (its home)
    m.insert(c, 3); // probes 15, 0 (both taken) -> slot 1

    ASSERT_TRUE(m.erase(a));
    EXPECT_EQ(m.auditInvariants(), "");
    ASSERT_NE(m.find(b), nullptr);
    EXPECT_EQ(*m.find(b), 2u);
    ASSERT_NE(m.find(c), nullptr);
    EXPECT_EQ(*m.find(c), 3u);

    // The survivors must still erase cleanly from their new slots.
    EXPECT_TRUE(m.erase(c));
    EXPECT_EQ(m.auditInvariants(), "");
    EXPECT_TRUE(m.erase(b));
    EXPECT_TRUE(m.empty());
}

TEST(FlatMap, SparseHigh64BitKeys)
{
    // Real tag-store keys are full 64-bit line addresses; make sure
    // nothing truncates them before hashing.
    FlatMap<std::uint32_t> m(64);
    std::vector<std::uint64_t> keys;
    for (std::uint64_t i = 0; i < 64; ++i)
        keys.push_back((i << 56) | (i << 37) | (i << 3) | 1);
    for (std::size_t i = 0; i < keys.size(); ++i)
        m.insert(keys[i], static_cast<std::uint32_t>(i));
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_NE(m.find(keys[i]), nullptr);
        EXPECT_EQ(*m.find(keys[i]), static_cast<std::uint32_t>(i));
    }
    // Keys differing only in high bits must not collide as equal.
    EXPECT_EQ(m.find(keys[5] ^ (1ull << 63)), nullptr);
}

TEST(FlatMap, ClearRetainsCapacity)
{
    FlatMap<std::uint32_t> m(32);
    std::size_t cap = m.capacity();
    for (std::uint64_t k = 0; k < 32; ++k)
        m.insert(k + 1, 0);
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.capacity(), cap);
    for (std::uint64_t k = 0; k < 32; ++k)
        m.insert(k + 1, 1);
    EXPECT_EQ(m.size(), 32u);
}

} // namespace
} // namespace fscache
