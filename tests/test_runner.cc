/**
 * @file
 * Runner-subsystem tests: ThreadPool task execution, stealing under
 * uneven load, exception propagation without deadlock, and
 * SweepRunner's ordered, jobs-invariant results on real simulation
 * cells, and a throwing cell failing its sweep alike serially and
 * pooled.
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

TEST(SweepRunner, PreservesCellOrder)
{
    SweepRunner runner(4);
    auto square = [](std::size_t i) { return i * i; };
    auto out = runner.mapResilient(64, square).values();
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(SweepRunner, ThrowingCellFailsSweepSerialAndPooled)
{
    // Cells 3 and 9 throw (9 not a std::exception); the rest keep
    // their values, and values() names cell 3 at any job count.
    auto cell = [](std::size_t i) {
        if (i == 3)
            throw std::runtime_error("boom");
        if (i == 9)
            throw 7;
        return i;
    };
    auto s = SweepRunner(1).mapResilient(16, cell);
    auto p = SweepRunner(8).mapResilient(16, cell);
    for (std::size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(s.cells[i].value, p.cells[i].value) << "cell " << i;
        EXPECT_EQ(s.cells[i].error, p.cells[i].error) << "cell " << i;
        EXPECT_EQ(s.cells[i].ok(), i != 3 && i != 9) << "cell " << i;
    }
    EXPECT_EQ(s.cells[3].error, "boom");
    EXPECT_EQ(s.cells[9].error, "unknown exception");
    EXPECT_EQ(*s.cells[4].value, 4u);
    for (const auto *report : {&s, &p}) {
        try {
            (void)report->values();
            ADD_FAILURE() << "expected FsError";
        } catch (const FsError &e) {
            EXPECT_STREQ(e.what(), "cell 3: boom");
        }
    }
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
    auto s = serial.mapResilient(12, simulateCell).values();
    auto p = parallel.mapResilient(12, simulateCell).values();
    ASSERT_EQ(s.size(), p.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        EXPECT_EQ(s[i], p[i]) << "cell " << i;
        EXPECT_GT(s[i].hits + s[i].misses, 0u);
    }
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
