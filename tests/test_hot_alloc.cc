/**
 * @file
 * The check of the zero-allocation contract of the per-access hot
 * path: after a warmup replay has grown every amortized buffer
 * (order-index bucket pools, class and next-use axes, candidate
 * buffers, occupancy counters) to its high-water mark, a
 * steady-state access() replay of the same stream (or of one with
 * the same shape) must perform ZERO heap allocations. The widest
 * test runs every array x scheme x ranking combination buildCache
 * accepts.
 *
 * Each growth site in src/ that cites amortized or bounded growth
 * names this test as its witness: if a push_back on the hot path
 * ever starts reallocating per access, this test fails.
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
#include <unordered_map>
#include <vector>

#include "common/random.hh"
#include "sim/experiment.hh"
#include "trace/stack_dist_generator.hh"

namespace
{

std::atomic<std::uint64_t> g_allocs{0};

// Every replacement operator below goes through this out-of-line
// pair. Were the malloc and the free inlined into the operators, gcc
// would see the free applied, in a caller, to a pointer returned by
// operator new and reject the pairing (-Wmismatched-new-delete).
[[gnu::noinline]] void *
countedAlloc(std::size_t n, std::size_t align = 0)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (n == 0)
        n = 1;
    void *p = align == 0
                  ? std::malloc(n)
                  : std::aligned_alloc(align,
                                       (n + align - 1) & ~(align - 1));
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

[[gnu::noinline]] void
countedFree(void *p) noexcept
{
    std::free(p);
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
    return countedAlloc(n, static_cast<std::size_t>(al));
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlloc(n, static_cast<std::size_t>(al));
}

void
operator delete(void *p) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    countedFree(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    countedFree(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    countedFree(p);
}

namespace fscache
{
namespace
{

CacheSpec
hotSpec(std::uint32_t num_lines, std::uint32_t num_parts,
        RankKind ranking)
{
    CacheSpec spec;
    spec.array.kind = ArrayKind::SetAssoc;
    spec.array.numLines = num_lines;
    spec.array.ways = 16;
    spec.ranking = ranking;
    spec.scheme.kind = SchemeKind::Fs;
    spec.numParts = num_parts;
    spec.seed = 11;
    return spec;
}

bool
diagnosticsOn()
{
    return std::getenv("FS_AUDIT") != nullptr ||
           std::getenv("FS_SHADOW") != nullptr;
}

/**
 * Replay a random stream of `accesses` over `num_parts` partitions
 * (each with a working set of `lines_per_part` lines) twice through
 * an FS cache with equal targets, and return the operator-new calls
 * of the second pass. Partitions are drawn at random, so each one
 * is first seen (and sized in the ranking) mid-way through pass 1.
 */
std::uint64_t
steadyStateAllocs(std::uint32_t num_lines, std::uint32_t num_parts,
                  std::uint32_t lines_per_part, std::size_t accesses)
{
    Rng rng(778);
    std::vector<PartId> parts;
    std::vector<Addr> addrs;
    parts.reserve(accesses);
    addrs.reserve(accesses);
    for (std::size_t i = 0; i < accesses; ++i) {
        auto part = static_cast<PartId>(rng.below(num_parts));
        parts.push_back(part);
        addrs.push_back((part + 1) * 1000000 +
                        rng.below(lines_per_part) * 64);
    }

    auto cache = buildCache(
        hotSpec(num_lines, num_parts, RankKind::CoarseTsLru));
    cache->setTargets(
        std::vector<std::uint32_t>(num_parts, num_lines / num_parts));

    for (std::size_t i = 0; i < accesses; ++i)
        cache->access(parts[i], addrs[i]);

    std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < accesses; ++i)
        cache->access(parts[i], addrs[i]);
    return g_allocs.load(std::memory_order_relaxed) - before;
}

/** One access of a replayed pass: its partition, its address and
 *  the next use it carries. */
struct Ref
{
    PartId part;
    Addr addr;
    AccessTime nextUse;
};

/**
 * Replay `pass1` and then `pass2` through the cache `spec` builds,
 * with equal targets, and return the operator-new calls of the
 * second pass.
 */
std::uint64_t
twoPassAllocs(const CacheSpec &spec, const std::vector<Ref> &pass1,
              const std::vector<Ref> &pass2)
{
    auto cache = buildCache(spec);
    cache->setTargets(std::vector<std::uint32_t>(
        spec.numParts, spec.array.numLines / spec.numParts));
    for (const Ref &r : pass1)
        cache->access(r.part, r.addr, r.nextUse);

    std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (const Ref &r : pass2)
        cache->access(r.part, r.addr, r.nextUse);
    return g_allocs.load(std::memory_order_relaxed) - before;
}

/**
 * Replay two bursty passes through the cache `spec` builds, with
 * equal targets, and return the operator-new calls of the second.
 * Each burst touches one fresh address of a random partition 1..20
 * times in a row and never again; each access carries its next use
 * within its pass, or kNeverUsed for a burst's last.
 */
std::uint64_t
burstySteadyStateAllocs(const CacheSpec &spec)
{
    constexpr std::size_t kBursts = 2000;
    Rng rng(991);
    Addr fresh = 0;
    auto burstyPass = [&]() {
        std::vector<Ref> pass;
        pass.reserve(20 * kBursts);
        for (std::size_t b = 0; b < kBursts; ++b) {
            auto part = static_cast<PartId>(rng.below(spec.numParts));
            Addr addr = (part + 1) * 100000000 + 64 * fresh++;
            for (std::uint64_t n = rng.range(1, 20); n > 0; --n) {
                AccessTime next = n > 1 ? pass.size() + 1 : kNeverUsed;
                pass.push_back({part, addr, next});
            }
        }
        return pass;
    };
    auto pass1 = burstyPass();
    return twoPassAllocs(spec, pass1, burstyPass());
}

/**
 * Replay the same reuse-heavy pass twice through the cache `spec`
 * builds and return the operator-new calls of the second. Each
 * access picks a random partition and one of its 700 addresses, so
 * with 4 partitions and 1024 lines the stream hits resident lines,
 * misses and evicts; each access carries its next use within the
 * pass, or kNeverUsed.
 */
std::uint64_t
reuseSteadyStateAllocs(const CacheSpec &spec)
{
    constexpr std::size_t kAccesses = 20000;
    Rng rng(4141);
    std::vector<Ref> pass(kAccesses);
    for (Ref &r : pass) {
        r.part = static_cast<PartId>(rng.below(spec.numParts));
        r.addr = (r.part + 1) * 100000000 + 64 * rng.below(700);
    }
    std::unordered_map<Addr, AccessTime> nextAt;
    for (std::size_t i = kAccesses; i-- > 0;) {
        auto [it, fresh] = nextAt.try_emplace(pass[i].addr, i);
        pass[i].nextUse = fresh ? kNeverUsed : it->second;
        it->second = i;
    }
    return twoPassAllocs(spec, pass, pass);
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
    if (diagnosticsOn())
        GTEST_SKIP() << "audit/shadow diagnostics may allocate";

    std::uint64_t allocs = steadyStateAllocs(256, 2, 600, 20000);
    EXPECT_EQ(allocs, 0u)
        << "steady-state access() replay hit operator new " << allocs
        << " time(s)";
}

/**
 * The same contract past 32 partitions: every partition's recency
 * index is sized lazily, on the ranking's first sight of its id,
 * which must all happen in the warm-up pass.
 */
TEST(HotPathAlloc, ManyPartitionCoarseCacheAllocatesNothing)
{
    if (diagnosticsOn())
        GTEST_SKIP() << "audit/shadow diagnostics may allocate";

    std::uint64_t allocs = steadyStateAllocs(2048, 33, 120, 60000);
    EXPECT_EQ(allocs, 0u)
        << "33-partition access() replay hit operator new " << allocs
        << " time(s)";
}

/**
 * The contract over every cache buildCache assembles: each array ×
 * scheme × ranking, way partitioning on the set-associative array
 * only (it partitions a set's ways). This is the only check of the
 * contract for the paths the smaller tests above do not reach: OPT,
 * the skew, zcache, random-candidates and fully-associative arrays,
 * and the PF, Vantage, PriSM and way-partitioning schemes.
 *
 * Every ClassRankingBase client draws a bucket from a shared pool
 * for each nonempty (partition, class) pair; LFU and RRIP also grow
 * their class axis to the largest class seen. LFU frequencies climb
 * without bound on a stream that re-references resident lines, so
 * this stream touches each address in one burst of 1..20 accesses
 * and never again: no frequency passes 20, every partition soon
 * holds lines of every class, and pass 1 takes the pools, the axes
 * and the candidate buffers to their high water. Next uses are
 * annotated within each pass, so OPT's next-use axis stops growing
 * in pass 1 too. Pass 2 bursts over fresh addresses with the same
 * shape and must allocate nothing.
 */
TEST(HotPathAlloc, ClassRankingsSteadyStateAllocatesNothing)
{
    if (diagnosticsOn())
        GTEST_SKIP() << "audit/shadow diagnostics may allocate";

    constexpr std::uint32_t kLines = 1024;
    constexpr std::uint32_t kParts = 4;
    int combos = 0;
    for (const char *array : {"setassoc", "direct", "skew", "zcache",
                              "random", "fullyassoc"}) {
        for (const char *scheme : {"none", "pf", "fs-analytic", "fs",
                                   "vantage", "prism", "waypart"}) {
            if (parseSchemeKind(scheme) == SchemeKind::WayPart &&
                parseArrayKind(array) != ArrayKind::SetAssoc)
                continue;
            for (const char *ranking :
                 {"lru", "coarse", "lfu", "opt", "random", "rrip"}) {
                CacheSpec spec =
                    hotSpec(kLines, kParts, parseRankKind(ranking));
                spec.array.kind = parseArrayKind(array);
                spec.scheme.kind = parseSchemeKind(scheme);
                std::uint64_t allocs = burstySteadyStateAllocs(spec);
                EXPECT_EQ(allocs, 0u)
                    << array << " / " << scheme << " / " << ranking
                    << " steady-state access() replay hit operator "
                    << "new " << allocs << " time(s)";
                ++combos;
            }
        }
    }
    EXPECT_EQ(combos, 222);
}

/**
 * OPT with equal finite next uses in one partition, over every
 * array x scheme: each burst touches two fresh addresses of one
 * partition in alternation for 1..10 rounds, and both carry the
 * start of the burst's next round (the first address's true next
 * use), so the two lines share a next use. A partition's first
 * shared next use allocates its duplicate count tree, in pass 1;
 * pass 2 bursts over fresh addresses with the same shape and must
 * allocate nothing.
 */
TEST(HotPathAlloc, OptSharedNextUsesAllocateNothing)
{
    if (diagnosticsOn())
        GTEST_SKIP() << "audit/shadow diagnostics may allocate";

    constexpr std::uint32_t kParts = 4;
    constexpr std::size_t kBursts = 2000;
    Rng rng(5353);
    Addr fresh = 0;
    auto pairedPass = [&]() {
        std::vector<Ref> pass;
        pass.reserve(20 * kBursts);
        for (std::size_t b = 0; b < kBursts; ++b) {
            auto part = static_cast<PartId>(rng.below(kParts));
            Addr first = (part + 1) * 100000000 + 64 * fresh++;
            Addr second = (part + 1) * 100000000 + 64 * fresh++;
            for (std::uint64_t n = rng.range(1, 10); n > 0; --n) {
                AccessTime next = n > 1 ? pass.size() + 2 : kNeverUsed;
                pass.push_back({part, first, next});
                pass.push_back({part, second, next});
            }
        }
        return pass;
    };

    int combos = 0;
    for (const char *array : {"setassoc", "direct", "skew", "zcache",
                              "random", "fullyassoc"}) {
        for (const char *scheme : {"none", "pf", "fs-analytic", "fs",
                                   "vantage", "prism", "waypart"}) {
            if (parseSchemeKind(scheme) == SchemeKind::WayPart &&
                parseArrayKind(array) != ArrayKind::SetAssoc)
                continue;
            CacheSpec spec = hotSpec(1024, kParts, RankKind::Opt);
            spec.array.kind = parseArrayKind(array);
            spec.scheme.kind = parseSchemeKind(scheme);
            auto pass1 = pairedPass();
            std::uint64_t allocs =
                twoPassAllocs(spec, pass1, pairedPass());
            EXPECT_EQ(allocs, 0u)
                << array << " / " << scheme << " / opt shared next "
                << "uses hit operator new " << allocs << " time(s)";
            ++combos;
        }
    }
    EXPECT_EQ(combos, 37);
}

/**
 * The contract on a reuse-heavy stream, which re-references lines
 * while they are resident, over every array x scheme x ranking.
 * Every ranking but LFU allocates nothing in pass 2. LFU does: a
 * line that climbs to a frequency no line of its partition holds
 * needs a new (partition, class) bucket, and once the bucket pool's
 * free list is empty the pool grows by a BitFenwick the size of the
 * stamp axis (the FOUND on ClassRankingBase under LFU in
 * CHANGES.md). Its count is pinned at the largest measured, so any
 * further growth fails here.
 */
TEST(HotPathAlloc, ReuseHeavyStreamAllocatesNothingButLfu)
{
    if (diagnosticsOn())
        GTEST_SKIP() << "audit/shadow diagnostics may allocate";

    constexpr std::uint64_t kLfuAllocsAtMost = 180;
    int combos = 0;
    for (const char *array : {"setassoc", "direct", "skew", "zcache",
                              "random", "fullyassoc"}) {
        for (const char *scheme : {"none", "pf", "fs-analytic", "fs",
                                   "vantage", "prism", "waypart"}) {
            if (parseSchemeKind(scheme) == SchemeKind::WayPart &&
                parseArrayKind(array) != ArrayKind::SetAssoc)
                continue;
            for (const char *ranking :
                 {"lru", "coarse", "lfu", "opt", "random", "rrip"}) {
                CacheSpec spec =
                    hotSpec(1024, 4, parseRankKind(ranking));
                spec.array.kind = parseArrayKind(array);
                spec.scheme.kind = parseSchemeKind(scheme);
                std::uint64_t allocs = reuseSteadyStateAllocs(spec);
                if (spec.ranking == RankKind::Lfu) {
                    EXPECT_LE(allocs, kLfuAllocsAtMost)
                        << array << " / " << scheme << " / lfu";
                } else {
                    EXPECT_EQ(allocs, 0u)
                        << array << " / " << scheme << " / " << ranking
                        << " reuse-heavy replay hit operator new "
                        << allocs << " time(s)";
                }
                ++combos;
            }
        }
    }
    EXPECT_EQ(combos, 222);
}

/**
 * A live stack-distance generator at its steady state (stack held
 * at maxResident, stamp axis at its final size) renumbers its axis
 * every capacity - maxResident accesses; a run crossing several
 * renumbers must not allocate.
 */
TEST(HotPathAlloc, StackDistGeneratorSteadyStateAllocatesNothing)
{
    StackDistConfig cfg;
    cfg.pNew = 0.2;
    cfg.depth = DepthDist::logUniform(1, 1024);
    cfg.maxResident = 4096;
    StackDistGenerator gen(cfg, 0, Rng(21));

    // Warm up until the stack is full and the axis has stopped
    // growing.
    for (int i = 0; i < 100000; ++i)
        gen.next();
    ASSERT_EQ(gen.resident(), cfg.maxResident);
    std::uint32_t cap = gen.capacity();
    std::uint64_t renumberEvery = cap - cfg.maxResident;
    std::uint64_t steady = 8 * renumberEvery;

    Addr sum = 0;
    std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < steady; ++i)
        sum += gen.next().addr;
    std::uint64_t allocs =
        g_allocs.load(std::memory_order_relaxed) - before;

    EXPECT_GT(sum, 0u);
    EXPECT_EQ(gen.capacity(), cap);
    EXPECT_EQ(allocs, 0u)
        << "steady-state generator hit operator new " << allocs
        << " time(s) over " << steady / renumberEvery
        << " renumbers";
}

} // namespace
} // namespace fscache
