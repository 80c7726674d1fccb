/**
 * @file
 * TSan-targeted stress harness for the runner subsystem.
 *
 * These tests are shaped for ThreadSanitizer (the `tsan` CMake
 * preset): many small tasks to force real interleavings through the
 * submit/steal/waitIdle paths, exception storms, nested submission
 * from worker threads, and FS_JOBS in {1, 2, hardware} cross-checks
 * of the determinism contract. They also run (fast) in normal
 * builds; under TSan they are the race detector's food supply —
 * a single-shot happy path exercises almost none of the pool's
 * synchronization edges.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/errors.hh"
#include "common/log.hh"
#include "common/random.hh"
#include "runner/sweep_runner.hh"
#include "runner/thread_pool.hh"

namespace fscache
{
namespace
{

unsigned
hwJobs()
{
    // Floor at 4 so the harness exercises real concurrency even on
    // small CI boxes where hardware_concurrency() is 1 or 2 —
    // oversubscription is a feature here, it widens interleavings.
    return std::max(4u, std::thread::hardware_concurrency());
}

/**
 * Deterministic per-cell pseudo-simulation: fold a forked Rng
 * stream. Stands in for a real cell (private cache + trace) while
 * keeping TSan runtime low; any cross-cell interference or
 * scheduling dependence shows up as a changed hash.
 */
std::uint64_t
cellHash(std::size_t cell, int draws = 256)
{
    Rng rng = Rng(0xf5cac8eu).fork(cell);
    std::uint64_t acc = 0;
    for (int i = 0; i < draws; ++i)
        acc = mix64(acc ^ rng());
    return acc;
}

/** The serial and pooled reports of one sweep agree cell by cell. */
template <typename R>
void
expectSameOutcomes(const SweepReport<R> &s, const SweepReport<R> &p)
{
    ASSERT_EQ(s.cells.size(), p.cells.size());
    for (std::size_t i = 0; i < s.cells.size(); ++i) {
        ASSERT_EQ(s.cells[i].value, p.cells[i].value) << "cell " << i;
        ASSERT_EQ(s.cells[i].error, p.cells[i].error) << "cell " << i;
    }
}

/** What values() throws for a failed sweep, or "" if it returns. */
template <typename R>
std::string
firstFailure(const SweepReport<R> &report)
{
    try {
        (void)report.values();
    } catch (const FsError &e) {
        return e.what();
    }
    return std::string();
}

TEST(ThreadPoolStress, ManySmallTasks)
{
    ThreadPool pool(hwJobs());
    std::atomic<std::uint64_t> sum{0};
    constexpr int kTasks = 4000;
    for (int i = 0; i < kTasks; ++i) {
        pool.submit([&sum, i] {
            sum.fetch_add(mix64(static_cast<std::uint64_t>(i)),
                          std::memory_order_relaxed);
        });
    }
    pool.waitIdle();
    std::uint64_t expect = 0;
    for (int i = 0; i < kTasks; ++i)
        expect += mix64(static_cast<std::uint64_t>(i));
    EXPECT_EQ(sum.load(), expect);
}

TEST(ThreadPoolStress, RepeatedSubmitWaitCycles)
{
    // Reuse one pool across many submit/waitIdle rounds; the
    // pending_-reaches-zero edge and the missed-wakeup guard run
    // once per round instead of once per test.
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 40; ++i)
            pool.submit([&count] {
                count.fetch_add(1, std::memory_order_relaxed);
            });
        pool.waitIdle();
        ASSERT_EQ(count.load(), (round + 1) * 40);
    }
}

TEST(ThreadPoolStress, NestedSubmissionFromWorkers)
{
    // Tasks that submit more tasks to the same pool: the nested
    // submit happens while the outer task still holds a pending_
    // count, so waitIdle() must not return until the leaves run.
    ThreadPool pool(4);
    std::atomic<int> leaves{0};
    for (int i = 0; i < 64; ++i) {
        pool.submit([&pool, &leaves] {
            for (int j = 0; j < 8; ++j)
                pool.submit([&leaves] {
                    leaves.fetch_add(1, std::memory_order_relaxed);
                });
        });
    }
    pool.waitIdle();
    EXPECT_EQ(leaves.load(), 64 * 8);
}

TEST(ThreadPoolStress, DeepNestedSubmissionChain)
{
    // A chain of tasks each spawning the next; exercises the case
    // where pending_ would hit zero between link N finishing and
    // link N+1 being counted if submission ordering were wrong.
    ThreadPool pool(2);
    std::atomic<int> depth{0};
    std::function<void()> link = [&pool, &depth, &link] {
        if (depth.fetch_add(1, std::memory_order_relaxed) < 100)
            pool.submit(link);
    };
    pool.submit(link);
    pool.waitIdle();
    EXPECT_GE(depth.load(), 100);
}

TEST(ThreadPoolStress, ExceptionStorm)
{
    ThreadPool pool(hwJobs());
    std::atomic<int> ran{0};
    for (int round = 0; round < 10; ++round) {
        int thrown = 0;
        for (int i = 0; i < 200; ++i) {
            if (i % 7 == 0) {
                ++thrown;
                pool.submit([] {
                    throw std::runtime_error("storm");
                });
            } else {
                pool.submit([&ran] {
                    ran.fetch_add(1, std::memory_order_relaxed);
                });
            }
        }
        EXPECT_THROW(pool.waitIdle(), std::runtime_error);
        ASSERT_EQ(ran.load(), (round + 1) * (200 - thrown));
    }
    // Pool is still usable after ten storms.
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.waitIdle();
}

TEST(SweepRunnerStress, ManyCellSweepMatchesSerial)
{
    SweepRunner serial(1);
    SweepRunner wide(hwJobs());
    constexpr std::size_t kCells = 2048;
    auto hash = [](std::size_t i) { return cellHash(i); };
    auto s = serial.mapResilient(kCells, hash).values();
    auto p = wide.mapResilient(kCells, hash).values();
    ASSERT_EQ(s.size(), p.size());
    for (std::size_t i = 0; i < kCells; ++i)
        ASSERT_EQ(s[i], p[i]) << "cell " << i;
}

TEST(SweepRunnerStress, CrossJobsIdentical)
{
    // FS_JOBS in {1, 2, hw}: the determinism contract says the
    // result vector is bit-identical regardless of worker count.
    const std::vector<unsigned> jobSet{1, 2, hwJobs()};
    std::vector<std::vector<std::uint64_t>> results;
    results.reserve(jobSet.size());
    auto hash = [](std::size_t i) { return cellHash(i, 64); };
    for (unsigned jobs : jobSet) {
        SweepRunner runner(jobs);
        results.push_back(runner.mapResilient(512, hash).values());
    }
    for (std::size_t k = 1; k < results.size(); ++k)
        EXPECT_EQ(results[0], results[k])
            << "jobs=" << jobSet[k] << " diverged from serial";
}

TEST(SweepRunnerStress, CrossJobsIdenticalViaEnv)
{
    // Same check through the FS_JOBS environment path the tools
    // use. setenv is safe here: no pool is alive between sweeps.
    auto sweep = [] {
        SweepRunner runner; // reads FS_JOBS
        auto hash = [](std::size_t i) { return cellHash(i, 64); };
        return runner.mapResilient(256, hash).values();
    };
    setenv("FS_JOBS", "1", 1);
    auto serial = sweep();
    setenv("FS_JOBS", "2", 1);
    auto two = sweep();
    setenv("FS_JOBS", std::to_string(hwJobs()).c_str(), 1);
    auto hw = sweep();
    unsetenv("FS_JOBS");
    EXPECT_EQ(serial, two);
    EXPECT_EQ(serial, hw);
}

TEST(SweepRunnerStress, NestedSweepInsideCells)
{
    // A cell that runs its own inner sweep (its own pool); mirrors
    // a bench sharding workloads that each shard sizes internally.
    auto nested = [](unsigned outerJobs, unsigned innerJobs) {
        SweepRunner outer(outerJobs);
        auto cell = [innerJobs](std::size_t o) {
            SweepRunner inner(innerJobs);
            auto leaf = inner.mapResilient(16, [o](std::size_t c) {
                return cellHash(o * 16 + c, 32);
            });
            std::uint64_t acc = 0;
            for (std::uint64_t v : leaf.values())
                acc = mix64(acc ^ v);
            return acc;
        };
        return outer.mapResilient(8, cell).values();
    };
    auto serial = nested(1, 1);
    auto par = nested(2, 2);
    auto mixed = nested(hwJobs(), 1);
    EXPECT_EQ(serial, par);
    EXPECT_EQ(serial, mixed);
}

TEST(SweepRunnerStress, ThrowingCellsFailSweepRunnerReusable)
{
    auto cell = [](std::size_t i) {
        if (i % 31 == 5)
            throw std::runtime_error("cell");
        return cellHash(i, 16);
    };
    SweepRunner serial(1);
    auto s = serial.mapResilient(256, cell);
    EXPECT_EQ(firstFailure(s), "cell 5: cell");
    SweepRunner runner(8);
    for (int round = 0; round < 5; ++round) {
        SCOPED_TRACE(round);
        auto p = runner.mapResilient(256, cell);
        expectSameOutcomes(s, p);
        EXPECT_EQ(firstFailure(p), "cell 5: cell");
    }
    // Runner unharmed: a clean sweep still matches serial.
    auto hash = [](std::size_t i) { return cellHash(i, 16); };
    EXPECT_EQ(runner.mapResilient(64, hash).values(),
              serial.mapResilient(64, hash).values());
}

TEST(SweepRunnerStress, CellWritesVisibleAfterReturn)
{
    // waitIdle() must publish every cell's writes to the caller
    // (happens-before edge); under TSan a missing edge is a report,
    // in normal builds a lost write fails the check.
    constexpr std::size_t kCells = 1024;
    std::vector<std::uint64_t> slots(kCells, 0);
    SweepRunner runner(hwJobs());
    auto report = runner.mapResilient(kCells, [&slots](std::size_t i) {
        slots[i] = cellHash(i, 16);
        return true;
    });
    ASSERT_EQ(report.values().size(), kCells);
    for (std::size_t i = 0; i < kCells; ++i)
        ASSERT_EQ(slots[i], cellHash(i, 16)) << "cell " << i;
}

TEST(SweepRunnerStress, ResilientSweepUnderFaultStorm)
{
    // Failing cells on the pool under TSan: exceptions and
    // corruption reports interleave with clean cells across
    // workers; the outcome slots are per-cell, so the only shared
    // state is the pool's own. Failing cells are a pure function of
    // the index, so the serial and FS_JOBS=8 sweeps must agree cell
    // for cell and name the same first failure.
    constexpr std::size_t kCells = 256;
    auto fails = [](std::size_t i) {
        return i == 5 || i == 17 || cellHash(i, 16) % 4 == 0;
    };
    auto cell = [](std::size_t i) {
        std::uint64_t v = cellHash(i, 16);
        if (i == 5 || i == 17)
            throw StateCorruptionError("injected corruption",
                                       "report line\n");
        if (v % 4 == 0)
            throw FsError("injected failure");
        return v;
    };
    const char *prev = std::getenv("FS_JOBS");
    std::string saved = prev != nullptr ? prev : "";
    setenv("FS_JOBS", "8", 1);
    SweepRunner wide;
    if (prev != nullptr)
        setenv("FS_JOBS", saved.c_str(), 1);
    else
        unsetenv("FS_JOBS");
    ASSERT_EQ(wide.jobs(), 8u);
    SweepRunner serial(1);
    auto s = serial.mapResilient(kCells, cell);
    auto p = wide.mapResilient(kCells, cell);
    expectSameOutcomes(s, p);
    // The report follows what() on its own line, trailing newline
    // dropped.
    EXPECT_EQ(s.cells[5].error, "injected corruption\nreport line");
    EXPECT_EQ(s.cells[17].error, "injected corruption\nreport line");
    std::size_t failed = 0, first = kCells;
    for (std::size_t i = 0; i < kCells; ++i) {
        EXPECT_EQ(s.cells[i].ok(), !fails(i)) << "cell " << i;
        if (fails(i)) {
            ++failed;
            first = std::min(first, i);
        }
    }
    EXPECT_GT(failed, 16u);
    EXPECT_LT(failed, kCells / 2);
    std::string want = strprintf("cell %zu: ", first);
    EXPECT_EQ(firstFailure(s).rfind(want, 0), 0u) << firstFailure(s);
    EXPECT_EQ(firstFailure(p), firstFailure(s));
}

TEST(RngDeterminism, StreamsInvariantAcrossFsJobs)
{
    // The property the determinism lint protects: every random
    // stream is a pure function of (seed, cell), so the worker
    // count cannot perturb it. Each cell folds a long forked
    // stream; any cross-thread state in Rng would diverge here.
    const std::vector<unsigned> jobSet{1, 2, hwJobs()};
    std::vector<std::vector<std::uint64_t>> streams;
    streams.reserve(jobSet.size());
    for (unsigned jobs : jobSet) {
        SweepRunner runner(jobs);
        auto report = runner.mapResilient(128, [](std::size_t cell) {
            Rng rng(1000 + cell);
            std::uint64_t acc = 0;
            for (int i = 0; i < 512; ++i)
                acc = mix64(acc ^ rng());
            return acc;
        });
        streams.push_back(report.values());
    }
    for (std::size_t k = 1; k < streams.size(); ++k)
        EXPECT_EQ(streams[0], streams[k]);
}

} // namespace
} // namespace fscache
