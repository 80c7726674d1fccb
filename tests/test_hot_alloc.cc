/**
 * @file
 * Runtime witness for the no-alloc-on-hot-path contract that
 * tools/fscache_analyze.py checks statically: after a warmup replay
 * has grown every amortized buffer (treap node pools, candidate
 * buffers, eviction free lists) to its high-water mark, a
 * steady-state access() replay of the same stream must perform ZERO
 * heap allocations.
 *
 * Every allow(hot-path-alloc) directive in src/ that cites amortized
 * or bounded growth names this test as its witness — if a push_back
 * on the hot path ever starts reallocating per access, the static
 * analyzer stays quiet (the directive suppresses it) but this test
 * fails.
 *
 * The counting hook replaces global operator new/delete for the
 * whole test binary; gtest also allocates, so the zero-assert brackets
 * only the replay loop itself.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/random.hh"
#include "sim/experiment.hh"

namespace
{

std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::aligned_alloc(static_cast<std::size_t>(al),
                                     (n + static_cast<std::size_t>(al) - 1) &
                                         ~(static_cast<std::size_t>(al) - 1)))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return operator new(n, al);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace fscache
{
namespace
{

CacheSpec
hotSpec()
{
    CacheSpec spec;
    spec.array.kind = ArrayKind::SetAssoc;
    spec.array.numLines = 256;
    spec.array.ways = 16;
    spec.ranking = RankKind::CoarseTsLru;
    spec.scheme.kind = SchemeKind::Fs;
    spec.numParts = 2;
    spec.seed = 11;
    return spec;
}

/** The hook itself must be live, or the zero-assert below proves
 *  nothing. */
TEST(HotPathAlloc, CountingHookIsInstalled)
{
    std::uint64_t before = g_allocs.load();
    auto *p = new int(42);
    EXPECT_GT(g_allocs.load(), before);
    delete p;
}

/**
 * Steady-state zero-allocation contract. Pass 1 replays the full
 * stream to grow every pool and scratch buffer to high water; pass 2
 * replays the identical stream and must not touch the heap at all.
 * The stream mixes hits, misses and evictions (working set ≈ 600
 * lines > 256-line cache), so the quiet pass exercises lookup,
 * install, eviction and relocation paths — not just hits.
 */
TEST(HotPathAlloc, SteadyStatePerAccessReplayAllocatesNothing)
{
    if (std::getenv("FS_AUDIT") != nullptr ||
        std::getenv("FS_SHADOW") != nullptr)
        GTEST_SKIP() << "audit/shadow diagnostics may allocate";

    constexpr std::size_t kStream = 20000;
    Rng rng(778);
    std::vector<PartId> parts;
    std::vector<Addr> addrs;
    parts.reserve(kStream);
    addrs.reserve(kStream);
    for (std::size_t i = 0; i < kStream; ++i) {
        auto part = static_cast<PartId>(rng.below(2));
        parts.push_back(part);
        addrs.push_back((part + 1) * 1000000 + rng.below(600) * 64);
    }

    auto cache = buildCache(hotSpec());
    cache->setTargets({128, 128});

    for (std::size_t i = 0; i < kStream; ++i)
        cache->access(parts[i], addrs[i]);

    std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kStream; ++i)
        cache->access(parts[i], addrs[i]);
    std::uint64_t after = g_allocs.load(std::memory_order_relaxed);

    EXPECT_EQ(after - before, 0u)
        << "steady-state access() replay hit operator new "
        << (after - before) << " time(s)";
}

} // namespace
} // namespace fscache
