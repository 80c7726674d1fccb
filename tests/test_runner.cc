/**
 * @file
 * Runner-subsystem tests: ThreadPool task execution, stealing under
 * uneven load, exception propagation without deadlock, and
 * SweepRunner's ordered, jobs-invariant results on real simulation
 * cells.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>

#include "runner/sweep_runner.hh"
#include "runner/thread_pool.hh"
#include "sim/experiment.hh"

namespace fscache
{
namespace
{

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ReusableAfterWaitIdle)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 10; ++i)
            pool.submit([&count] { ++count; });
        pool.waitIdle();
    }
    EXPECT_EQ(count.load(), 30);
}

TEST(ThreadPool, UnevenTasksAllComplete)
{
    // Round-robin submission puts all the long tasks on a few
    // queues; completion of everything within waitIdle() exercises
    // the stealing path.
    ThreadPool pool(4);
    std::atomic<std::uint64_t> sum{0};
    for (int i = 0; i < 32; ++i) {
        pool.submit([&sum, i] {
            std::uint64_t work = (i % 4 == 0) ? 400000 : 100;
            std::uint64_t acc = 0;
            for (std::uint64_t k = 0; k < work; ++k)
                acc += mix64(k);
            sum += acc != 0 ? 1 : 0;
        });
    }
    pool.waitIdle();
    EXPECT_EQ(sum.load(), 32u);
}

TEST(ThreadPool, ExceptionPropagatesWithoutDeadlock)
{
    ThreadPool pool(3);
    std::atomic<int> ran{0};
    for (int i = 0; i < 20; ++i) {
        pool.submit([&ran, i] {
            if (i == 7)
                throw std::runtime_error("cell 7 failed");
            ++ran;
        });
    }
    EXPECT_THROW(pool.waitIdle(), std::runtime_error);
    // Every non-throwing task still ran; the pool is still usable.
    EXPECT_EQ(ran.load(), 19);
    pool.submit([&ran] { ++ran; });
    pool.waitIdle();
    EXPECT_EQ(ran.load(), 20);
}

TEST(SweepRunner, MapPreservesCellOrder)
{
    SweepRunner runner(4);
    auto out = runner.map(64, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(SweepRunner, MapGridRowColIndexing)
{
    SweepRunner runner(2);
    auto grid = runner.mapGrid(3, 5, [](std::size_t r,
                                        std::size_t c) {
        return 10 * r + c;
    });
    ASSERT_EQ(grid.size(), 3u);
    for (std::size_t r = 0; r < 3; ++r) {
        ASSERT_EQ(grid[r].size(), 5u);
        for (std::size_t c = 0; c < 5; ++c)
            EXPECT_EQ(grid[r][c], 10 * r + c);
    }
}

TEST(SweepRunner, ExceptionInCellPropagates)
{
    SweepRunner runner(4);
    EXPECT_THROW(runner.map(16,
                            [](std::size_t i) {
                                if (i == 3)
                                    throw std::runtime_error("boom");
                                return i;
                            }),
                 std::runtime_error);
    // Serial path throws too.
    SweepRunner serial(1);
    EXPECT_THROW(serial.forEach(4,
                                [](std::size_t i) {
                                    if (i == 2)
                                        throw std::runtime_error(
                                            "boom");
                                }),
                 std::runtime_error);
}

/** A real simulation cell: private cache, per-cell seeds. */
struct CellMetrics
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;

    bool
    operator==(const CellMetrics &o) const
    {
        return hits == o.hits && misses == o.misses &&
               insertions == o.insertions;
    }
};

CellMetrics
simulateCell(std::size_t cell)
{
    CacheSpec spec;
    spec.array.kind = ArrayKind::SetAssoc;
    spec.array.numLines = 512 << (cell % 2);
    spec.array.ways = 8;
    spec.ranking = RankKind::CoarseTsLru;
    spec.scheme.kind = SchemeKind::Fs;
    spec.numParts = 1;
    spec.seed = 40 + cell;
    auto cache = buildCache(spec);
    cache->setTarget(0, spec.array.numLines);
    Workload wl = Workload::duplicate(
        cell % 2 ? "mcf" : "h264ref", 1, 8000, 700 + cell);
    runUntimed(*cache, wl, 0.2);
    CellMetrics m;
    m.hits = cache->stats(0).hits;
    m.misses = cache->stats(0).misses;
    m.insertions = cache->stats(0).insertions;
    return m;
}

TEST(SweepRunner, ParallelMatchesSerialOnSimCells)
{
    SweepRunner serial(1);
    SweepRunner parallel(4);
    auto s = serial.map(12, simulateCell);
    auto p = parallel.map(12, simulateCell);
    ASSERT_EQ(s.size(), p.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        EXPECT_EQ(s[i], p[i]) << "cell " << i;
        EXPECT_GT(s[i].hits + s[i].misses, 0u);
    }
}

TEST(SweepRunner, MeasureMissCurveJobsInvariant)
{
    // measureMissCurve shards its sizes through SweepRunner; pin
    // the job count via FS_JOBS both ways and compare.
    setenv("FS_JOBS", "1", 1);
    auto serial = measureMissCurve("omnetpp", {256, 512, 1024, 2048},
                                   8000, RankKind::CoarseTsLru, 3);
    setenv("FS_JOBS", "4", 1);
    auto parallel = measureMissCurve("omnetpp",
                                     {256, 512, 1024, 2048}, 8000,
                                     RankKind::CoarseTsLru, 3);
    unsetenv("FS_JOBS");
    EXPECT_EQ(serial, parallel);
}

TEST(SweepRunner, JobsFromEnv)
{
    setenv("FS_JOBS", "7", 1);
    EXPECT_EQ(SweepRunner::defaultJobs(), 7u);
    EXPECT_EQ(SweepRunner().jobs(), 7u);
    unsetenv("FS_JOBS");
    EXPECT_GE(SweepRunner::defaultJobs(), 1u);
    EXPECT_EQ(SweepRunner(3).jobs(), 3u);
}

/** FS_JOBS=2^32+1 used to wrap to 1 job without a word. The setenv
 *  runs in the death-test child only. */
TEST(SweepRunnerDeathTest, JobsOutOfRangeIsFatal)
{
    EXPECT_EXIT(
        {
            setenv("FS_JOBS", "4294967297", 1);
            (void)SweepRunner::defaultJobs();
        },
        ::testing::ExitedWithCode(1),
        "FS_JOBS=4294967297 is out of range \\(at most 4294967295\\)");
    EXPECT_EXIT(
        {
            setenv("FS_JOBS", "0", 1);
            (void)SweepRunner::defaultJobs();
        },
        ::testing::ExitedWithCode(1),
        "FS_JOBS=0 is out of range \\(at least 1\\)");
    EXPECT_EXIT(
        {
            setenv("FS_JOBS", "-4", 1);
            (void)SweepRunner::defaultJobs();
        },
        ::testing::ExitedWithCode(1),
        "FS_JOBS must be a non-negative decimal integer");
}

} // namespace
} // namespace fscache
