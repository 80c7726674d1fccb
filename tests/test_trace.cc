/**
 * @file
 * Trace substrate tests: generators (stack-distance, stream,
 * cyclic, mixture), buffers, next-use annotation, workloads, and
 * the benchmark profiles.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "common/random.hh"
#include "trace/benchmark_profiles.hh"
#include "trace/cyclic_generator.hh"
#include "trace/mixture_generator.hh"
#include "trace/next_use_annotator.hh"
#include "trace/stack_dist_generator.hh"
#include "trace/stream_generator.hh"
#include "trace/trace_buffer.hh"
#include "trace/workload.hh"

namespace fscache
{
namespace
{

TEST(StreamGenerator, SequentialNeverReuses)
{
    StreamGenerator g(1000, 1, 10, Rng(1));
    std::unordered_set<Addr> seen;
    for (int i = 0; i < 1000; ++i) {
        Access a = g.next();
        EXPECT_TRUE(seen.insert(a.addr).second);
        EXPECT_GE(a.addr, 1000u);
        EXPECT_GE(a.instrGap, 1u);
    }
}

TEST(StreamGenerator, StrideRespected)
{
    StreamGenerator g(0, 4, 1, Rng(1));
    EXPECT_EQ(g.next().addr, 0u);
    EXPECT_EQ(g.next().addr, 4u);
    EXPECT_EQ(g.next().addr, 8u);
}

TEST(CyclicGenerator, WrapsAtRegion)
{
    CyclicGenerator g(100, 5, 1, Rng(1));
    std::vector<Addr> addrs;
    for (int i = 0; i < 12; ++i)
        addrs.push_back(g.next().addr);
    EXPECT_EQ(addrs[0], 100u);
    EXPECT_EQ(addrs[4], 104u);
    EXPECT_EQ(addrs[5], 100u); // wrapped
    EXPECT_EQ(addrs[10], 100u);
}

TEST(StackDistGenerator, DeterministicPerSeed)
{
    StackDistConfig cfg;
    cfg.pNew = 0.1;
    cfg.depth = DepthDist::logUniform(1, 256);
    StackDistGenerator a(cfg, 0, Rng(77));
    StackDistGenerator b(cfg, 0, Rng(77));
    for (int i = 0; i < 500; ++i) {
        Access x = a.next(), y = b.next();
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.instrGap, y.instrGap);
    }
}

TEST(StackDistGenerator, FootprintGrowsWithPNew)
{
    StackDistConfig lo_cfg;
    lo_cfg.pNew = 0.01;
    lo_cfg.depth = DepthDist::logUniform(1, 128);
    StackDistConfig hi_cfg = lo_cfg;
    hi_cfg.pNew = 0.5;

    StackDistGenerator lo(lo_cfg, 0, Rng(5));
    StackDistGenerator hi(hi_cfg, 0, Rng(5));
    std::unordered_set<Addr> lo_seen, hi_seen;
    for (int i = 0; i < 5000; ++i) {
        lo_seen.insert(lo.next().addr);
        hi_seen.insert(hi.next().addr);
    }
    EXPECT_GT(hi_seen.size(), 2 * lo_seen.size());
}

/** The prewarmed stack is implicit: an mcf-profile generator, whose
 *  2^20-entry stack was once an 8 MB column of identity addresses,
 *  holds its 384 KB index at construction and grows by the 4-byte
 *  address of each stamp it pushes (every next() pushes one). */
TEST(StackDistGenerator, PrewarmedStackStoresOnlyPushedAddresses)
{
    const StackDistConfig &cfg =
        benchmarkProfile("mcf").components.at(0).stackDist;
    StackDistGenerator gen(cfg, 0, Rng(1));
    ASSERT_EQ(gen.resident(), 1u << 20);
    const std::uint64_t start = gen.bytes();
    EXPECT_LT(start, 512u * 1024);

    // 2^17 pushes stay well inside the 2^21-stamp axis, so nothing
    // renumbers; the vector's capacity may run up to twice ahead.
    const std::uint64_t n = 1u << 17;
    for (std::uint64_t i = 0; i < n; ++i)
        gen.next();
    EXPECT_EQ(gen.capacity(), 1u << 21);
    const std::uint64_t grown = gen.bytes() - start;
    EXPECT_GE(grown, 4 * n);
    EXPECT_LT(grown, 8 * n);
}

TEST(StackDistGenerator, FixedDepthOneRepeatsMru)
{
    // Depth 1 with pNew = 0 re-references the MRU line forever.
    StackDistConfig cfg;
    cfg.pNew = 0.0;
    cfg.depth = DepthDist::fixed(1);
    StackDistGenerator g(cfg, 0, Rng(9));
    Addr first = g.next().addr;
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(g.next().addr, first);
}

TEST(StackDistGenerator, ResidencyBounded)
{
    StackDistConfig cfg;
    cfg.pNew = 1.0; // always new
    cfg.depth = DepthDist::fixed(1);
    cfg.maxResident = 64;
    StackDistGenerator g(cfg, 0, Rng(3));
    for (int i = 0; i < 1000; ++i)
        g.next();
    EXPECT_LE(g.resident(), 64u);
}

TEST(StackDistGenerator, DepthDistributionRoughlyLogUniform)
{
    // With depths log-uniform on [1, 1024], about half the draws
    // should be <= 32 (the geometric midpoint).
    DepthDist d = DepthDist::logUniform(1, 1024);
    Rng rng(21);
    int below = 0;
    constexpr int kDraws = 20000;
    for (int i = 0; i < kDraws; ++i)
        if (d.sample(rng, 1u << 30) <= 32)
            ++below;
    EXPECT_NEAR(below, kDraws / 2, kDraws / 20);
}

TEST(DepthDist, ClampsToCap)
{
    DepthDist d = DepthDist::uniform(100, 200);
    Rng rng(2);
    for (int i = 0; i < 100; ++i)
        EXPECT_LE(d.sample(rng, 50), 50u);
}

TEST(MixtureGenerator, WeightsRespected)
{
    std::vector<MixtureGenerator::Component> comps;
    comps.push_back({0.8, std::make_unique<StreamGenerator>(
                              0, 1, 1, Rng(1))});
    comps.push_back({0.2, std::make_unique<StreamGenerator>(
                              kComponentSpan, 1, 1, Rng(2))});
    MixtureGenerator mix("m", std::move(comps), Rng(3));
    int first = 0;
    constexpr int kDraws = 10000;
    for (int i = 0; i < kDraws; ++i)
        if (mix.next().addr < kComponentSpan)
            ++first;
    EXPECT_NEAR(first, 8000, 300);
}

TEST(TraceBuffer, CaptureAndFootprint)
{
    CyclicGenerator g(0, 10, 5, Rng(1));
    TraceBuffer buf = TraceBuffer::capture(g, 100);
    EXPECT_EQ(buf.size(), 100u);
    EXPECT_EQ(buf.footprint(), 10u);
    EXPECT_GE(buf.totalInstructions(), 100u);
}

/** Capture scatters fillBatch chunks into the columns: record for
 *  record it is the generator's next() sequence, across several
 *  chunk boundaries and a partial last chunk. */
TEST(TraceBuffer, CaptureEqualsNextSequence)
{
    StackDistConfig cfg;
    cfg.pNew = 0.2;
    cfg.depth = DepthDist::logUniform(1, 64);
    StackDistGenerator a(cfg, 1ull << 40, Rng(17));
    StackDistGenerator b(cfg, 1ull << 40, Rng(17));
    TraceBuffer buf = TraceBuffer::capture(a, 1000);
    ASSERT_EQ(buf.size(), 1000u);
    for (std::uint64_t i = 0; i < buf.size(); ++i) {
        const Access want = b.next();
        ASSERT_EQ(buf.addr(i), want.addr) << "at index " << i;
        ASSERT_EQ(buf.instrGap(i), want.instrGap) << "at index " << i;
        ASSERT_EQ(buf.nextUse(i), want.nextUse) << "at index " << i;
        ASSERT_EQ(buf[i].addr, want.addr) << "at index " << i;
        ASSERT_EQ(buf[i].instrGap, want.instrGap) << "at index " << i;
        ASSERT_EQ(buf[i].nextUse, want.nextUse) << "at index " << i;
    }
}

/** An unannotated trace holds no next-use column and reads never;
 *  annotation adds a 4-byte column to the 12 bytes per record. */
TEST(TraceBuffer, NextUseColumnOnlyOnceAnnotated)
{
    CyclicGenerator g(0, 10, 5, Rng(1));
    TraceBuffer buf = TraceBuffer::capture(g, 100);
    EXPECT_FALSE(buf.hasNextUseColumn());
    EXPECT_EQ(buf.bytes(), 12u * 100);
    for (std::uint64_t i = 0; i < buf.size(); ++i)
        ASSERT_EQ(buf[i].nextUse, kNeverUsed) << "at index " << i;

    annotateNextUse(buf);
    EXPECT_TRUE(buf.hasNextUseColumn());
    EXPECT_EQ(buf.bytes(), 16u * 100);
    EXPECT_EQ(buf.nextUse(0), 10u);
    EXPECT_EQ(buf.nextUse(99), kNeverUsed);

    // Appending to an annotated trace extends its column with never.
    buf.append(0x42, 3);
    EXPECT_EQ(buf.bytes(), 16u * 101);
    EXPECT_EQ(buf[100].addr, 0x42u);
    EXPECT_EQ(buf[100].instrGap, 3u);
    EXPECT_EQ(buf[100].nextUse, kNeverUsed);
}

/** The 32-bit next-use column's edges: 2^32 - 2 is the largest
 *  finite next use it holds, 2^32 - 1 is its never value and so
 *  does not fit, and kNeverUsed round-trips to itself. */
TEST(TraceBuffer, NextUseNarrowing)
{
    const AccessTime largest = (1ull << 32) - 2;
    EXPECT_EQ(TraceBuffer::kMaxNextUse, largest);
    EXPECT_TRUE(TraceBuffer::nextUseFits(largest));
    EXPECT_EQ(TraceBuffer::narrowNextUse(largest), 0xfffffffeu);
    EXPECT_EQ(TraceBuffer::widenNextUse(0xfffffffeu), largest);

    EXPECT_FALSE(TraceBuffer::nextUseFits(largest + 1));
    EXPECT_FALSE(TraceBuffer::nextUseFits(1ull << 32));
    EXPECT_FALSE(TraceBuffer::nextUseFits(kNeverUsed - 1));

    EXPECT_TRUE(TraceBuffer::nextUseFits(kNeverUsed));
    EXPECT_EQ(TraceBuffer::narrowNextUse(kNeverUsed),
              TraceBuffer::kNeverStored);
    EXPECT_EQ(TraceBuffer::widenNextUse(TraceBuffer::kNeverStored),
              kNeverUsed);

    EXPECT_TRUE(TraceBuffer::nextUseFits(0));
    EXPECT_EQ(TraceBuffer::widenNextUse(TraceBuffer::narrowNextUse(7)),
              7u);
}

TEST(NextUseAnnotator, MatchesBruteForce)
{
    StackDistConfig cfg;
    cfg.pNew = 0.2;
    cfg.depth = DepthDist::logUniform(1, 64);
    StackDistGenerator g(cfg, 0, Rng(31));
    TraceBuffer buf = TraceBuffer::capture(g, 2000);
    annotateNextUse(buf);

    // Brute force per sampled index.
    for (std::uint64_t i = 0; i < buf.size(); i += 97) {
        AccessTime expect = kNeverUsed;
        for (std::uint64_t j = i + 1; j < buf.size(); ++j) {
            if (buf[j].addr == buf[i].addr) {
                expect = j;
                break;
            }
        }
        EXPECT_EQ(buf[i].nextUse, expect) << "at index " << i;
    }
}

TEST(NextUseAnnotator, LastOccurrenceNeverUsed)
{
    StreamGenerator g(0, 1, 1, Rng(1));
    TraceBuffer buf = TraceBuffer::capture(g, 50);
    annotateNextUse(buf);
    for (std::uint64_t i = 0; i < buf.size(); ++i)
        EXPECT_EQ(buf[i].nextUse, kNeverUsed);
}

TEST(BenchmarkProfiles, AllNamesResolve)
{
    const auto &names = benchmarkNames();
    EXPECT_EQ(names.size(), 8u);
    for (const auto &n : names) {
        const BenchmarkProfile &p = benchmarkProfile(n);
        EXPECT_EQ(p.name, n);
        EXPECT_FALSE(p.components.empty());
        EXPECT_GE(p.meanInstrGap, 1u);
    }
}

TEST(BenchmarkProfiles, GeneratorsProduceDistinctComponentSpaces)
{
    auto src = makeBenchmarkTrace("mcf", threadBaseAddr(0), Rng(1));
    std::unordered_set<Addr> high_bits;
    for (int i = 0; i < 2000; ++i)
        high_bits.insert(src->next().addr >> 40);
    // mcf has two components.
    EXPECT_EQ(high_bits.size(), 2u);
}

TEST(BenchmarkProfiles, StreamingVsReuseCharacter)
{
    // lbm must have a much larger footprint-per-access than
    // h264ref (streaming vs small working set).
    auto lbm = makeBenchmarkTrace("lbm", 0, Rng(2));
    auto h264 = makeBenchmarkTrace("h264ref", 0, Rng(2));
    std::unordered_set<Addr> lbm_seen, h264_seen;
    constexpr int kAccesses = 20000;
    for (int i = 0; i < kAccesses; ++i) {
        lbm_seen.insert(lbm->next().addr);
        h264_seen.insert(h264->next().addr);
    }
    EXPECT_GT(lbm_seen.size(), 3 * h264_seen.size());
}

TEST(Workload, DuplicateGivesDisjointThreads)
{
    Workload wl = Workload::duplicate("gromacs", 3, 1000, 42);
    EXPECT_EQ(wl.threadCount(), 3u);
    std::unordered_set<Addr> all;
    std::uint64_t total = 0;
    for (std::uint32_t t = 0; t < 3; ++t) {
        const auto &trace = wl.thread(t).trace;
        EXPECT_EQ(trace.size(), 1000u);
        for (std::uint64_t i = 0; i < trace.size(); ++i)
            all.insert(trace[i].addr);
        total += trace.footprint();
    }
    // No cross-thread aliasing.
    EXPECT_EQ(all.size(), total);
}

TEST(Workload, DuplicateThreadsAreIndependentStreams)
{
    Workload wl = Workload::duplicate("mcf", 2, 500, 7);
    int same = 0;
    for (int i = 0; i < 500; ++i) {
        Addr a = wl.thread(0).trace[i].addr & ((1ull << 40) - 1);
        Addr b = wl.thread(1).trace[i].addr & ((1ull << 40) - 1);
        if (a == b)
            ++same;
    }
    EXPECT_LT(same, 250);
}

TEST(Workload, MixAndAnnotate)
{
    Workload wl = Workload::mix({"lbm", "gromacs"}, 300, 5);
    wl.annotateNextUse();
    EXPECT_EQ(wl.threadCount(), 2u);
    // Annotation touched every access (values are either an index
    // within the trace or kNeverUsed).
    for (std::uint32_t t = 0; t < 2; ++t) {
        const auto &trace = wl.thread(t).trace;
        for (std::uint64_t i = 0; i < trace.size(); ++i) {
            AccessTime nu = trace[i].nextUse;
            EXPECT_TRUE(nu == kNeverUsed || (nu > i && nu < 300));
        }
    }
}

TEST(Workload, ReproducibleForSeed)
{
    Workload a = Workload::duplicate("astar", 2, 400, 99);
    Workload b = Workload::duplicate("astar", 2, 400, 99);
    for (std::uint32_t t = 0; t < 2; ++t)
        for (int i = 0; i < 400; ++i)
            EXPECT_EQ(a.thread(t).trace[i].addr,
                      b.thread(t).trace[i].addr);
}

} // namespace
} // namespace fscache
