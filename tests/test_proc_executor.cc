/**
 * @file
 * Process-farm executor tests: wire-codec bit-exactness and a seeded
 * mutation test of its decoders, env-knob range checks, clean-run
 * byte identity with the in-process path, crash containment (segv
 * fault and raise(SIGKILL) mid-cell), hard-timeout SIGKILL of a
 * spinning cell, poison-cell quarantine after k worker deaths, and
 * checkpoint-journal interop across executor modes.
 *
 * This binary has its own main(): under FS_EXECUTOR=process the
 * farm re-execs the *driver* binary with --fs-worker, and for these
 * tests the driver is the test binary itself. main() routes a
 * worker re-entry straight into the shared test sweep (which then
 * serves cells and exits) and runs gtest otherwise. The sweep's
 * shape is controlled only through environment variables, which the
 * worker inherits — parent and worker always rebuild the same
 * sweep.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/errors.hh"
#include "common/fault_injection.hh"
#include "common/random.hh"
#include "runner/proc_executor.hh"
#include "runner/sweep_runner.hh"

namespace fscache
{
namespace
{

constexpr std::size_t kCells = 6;

double
cellValue(std::size_t i)
{
    // Non-representable values so only bit-exact round-trips
    // reproduce them across the wire and the journal.
    return (static_cast<double>(i) + 0.1) / 3.0;
}

std::string
encodeD(double v)
{
    CellEncoder e;
    e.f64(v);
    return e.result();
}

double
decodeD(const std::string &p)
{
    CellDecoder d(p);
    return d.f64();
}

/**
 * The one test sweep, shared verbatim by the gtest parent and the
 * re-exec'd workers. FS_PROC_TEST_KILL_CELL=<n> makes cell n
 * raise(SIGKILL) mid-cell; FS_FAULTS drives the usual injection
 * arms inside the cell guard.
 */
SweepReport<double>
runTestSweep()
{
    const char *kill = std::getenv("FS_PROC_TEST_KILL_CELL");
    long kill_cell = kill != nullptr ? std::atol(kill) : -1;
    SweepRunner runner(2);
    return runner.mapResilientCheckpointed(
        kCells,
        [kill_cell](std::size_t i) -> double {
            if (kill_cell >= 0 &&
                i == static_cast<std::size_t>(kill_cell))
                std::raise(SIGKILL);
            return cellValue(i);
        },
        "proctest", "cfg=proc", encodeD, decodeD);
}

/** Serial in-process reference payloads, cell order. */
std::vector<std::string>
serialPayloads()
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < kCells; ++i)
        out.push_back(encodeD(cellValue(i)));
    return out;
}

/**
 * Scrub every farm knob and pin the *parent's* fault injector to
 * empty: FS_FAULTS set by a test is meant for the worker processes
 * (which read the environment fresh at exec), never for the parent,
 * whose guard must not fire faults while farming.
 */
class ProcExecutorTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        clearKnobs();
        FaultInjector::installForTest("");
    }

    void
    TearDown() override
    {
        clearKnobs();
        FaultInjector::installForTest("");
        if (!dir_.empty()) {
            std::string cmd = "rm -rf '" + dir_ + "'";
            (void)std::system(cmd.c_str());
        }
    }

    /** Fresh checkpoint dir for the interop tests. */
    const std::string &
    checkpointDir()
    {
        if (dir_.empty()) {
            char tmpl[] = "/tmp/fscache-proc-XXXXXX";
            char *dir = mkdtemp(tmpl);
            EXPECT_NE(dir, nullptr);
            dir_ = dir;
        }
        return dir_;
    }

  private:
    static void
    clearKnobs()
    {
        unsetenv("FS_EXECUTOR");
        unsetenv("FS_WORKERS");
        unsetenv("FS_WORKER_HARD_TIMEOUT_MS");
        unsetenv("FS_POISON_KILLS");
        unsetenv("FS_WORKER_BACKOFF_MS");
        unsetenv("FS_FAULTS");
        unsetenv("FS_PROC_TEST_KILL_CELL");
        unsetenv("FS_CHECKPOINT_DIR");
    }

    std::string dir_;
};

TEST(ProcWire, SpecRoundTripsAndRejectsForeignVersions)
{
    std::string line = procwire::encodeSpec(0xdeadbeefcafef00dull,
                                            42);
    std::uint64_t fp = 0;
    std::size_t cell = 0;
    procwire::decodeSpec(line, fp, cell);
    EXPECT_EQ(fp, 0xdeadbeefcafef00dull);
    EXPECT_EQ(cell, 42u);

    CellEncoder foreign;
    foreign.u64(procwire::kVersion + 1).u64(1).u64(2);
    EXPECT_THROW(procwire::decodeSpec(foreign.result(), fp, cell),
                 FsError);
}

TEST(ProcWire, ResultRoundTripsBitExactly)
{
    CellOutcome<std::string> o;
    o.status = CellStatus::Failed;
    o.errorClass = ErrorClass::Crash;
    o.error = "worker died (SIGSEGV) running cell 3";
    o.detail = "line one\nline two with spaces";
    o.crashSignal = "SIGSEGV";
    o.attempts = 2;
    o.value.emplace(encodeD(cellValue(3)));

    std::size_t cell = 0;
    CellOutcome<std::string> back;
    procwire::decodeResult(procwire::encodeResult(3, o), cell, back);
    EXPECT_EQ(cell, 3u);
    EXPECT_EQ(back.status, o.status);
    EXPECT_EQ(back.errorClass, o.errorClass);
    EXPECT_EQ(back.error, o.error);
    EXPECT_EQ(back.detail, o.detail);
    EXPECT_EQ(back.crashSignal, o.crashSignal);
    EXPECT_EQ(back.attempts, o.attempts);
    ASSERT_TRUE(back.value.has_value());
    // The payload is the checkpoint codec: bit-exact by contract.
    EXPECT_EQ(*back.value, *o.value);

    CellOutcome<std::string> empty;
    empty.status = CellStatus::TimedOut;
    empty.errorClass = ErrorClass::HardTimeout;
    procwire::decodeResult(procwire::encodeResult(0, empty), cell,
                           back);
    EXPECT_EQ(back.status, CellStatus::TimedOut);
    EXPECT_EQ(back.errorClass, ErrorClass::HardTimeout);
    EXPECT_FALSE(back.value.has_value());
}

/**
 * Decode `line` as whichever message kind `is_spec` names. Returns
 * true and sets `reencoded` when it decodes; false when the decoder
 * rejects it with FsError. Any other exception escapes and fails the
 * test.
 */
bool
decodeAndReencode(const std::string &line, bool is_spec,
                  std::string &reencoded)
{
    try {
        if (is_spec) {
            std::uint64_t fp = 0;
            std::size_t cell = 0;
            procwire::decodeSpec(line, fp, cell);
            reencoded = procwire::encodeSpec(fp, cell);
        } else {
            std::size_t cell = 0;
            CellOutcome<std::string> o;
            procwire::decodeResult(line, cell, o);
            reencoded = procwire::encodeResult(cell, o);
        }
        return true;
    } catch (const FsError &) {
        return false;
    }
}

TEST(ProcWire, NonCanonicalLinesAreRejected)
{
    const std::string spec = procwire::encodeSpec(0xabc, 5);
    ASSERT_EQ(spec, "1 abc 5");
    std::string out;
    for (const char *bad :
         {" 1 abc 5", "1  abc 5", "1 abc 5 ", "1 0abc 5", "1 ABC 5",
          "1 -abc 5", "1 +abc 5", "1 0xabc 5", "1 abc 10000000000000000",
          "1 abc\t5", ""})
        EXPECT_FALSE(decodeAndReencode(bad, true, out)) << bad;

    CellOutcome<std::string> o;
    o.attempts = 1;
    const std::string res = procwire::encodeResult(2, o);
    ASSERT_EQ(res, "1 2 0 0 1 s s s 0 s");
    for (const char *bad :
         {"1 2 0 0 100000000 s s s 0 s", // attempts beyond unsigned
          "1 2 0 0 1 s s s 2 s",         // has-value flag not 0/1
          "1 2 0 0 1 s s s 0 s00",       // payload without a value
          "1 2 0 0 1 s s s 1 s0"})       // odd-length hex payload
        EXPECT_FALSE(decodeAndReencode(bad, false, out)) << bad;
}

/**
 * Deterministic mutation test of the farm wire decoders: seeded byte
 * flips, truncations and insertions over real encodeSpec /
 * encodeResult lines. Every mutant must either decode to a message
 * that re-encodes to exactly the mutant's bytes, or be rejected with
 * FsError — never crash, hang, or trip a sanitizer.
 */
TEST(ProcWire, MutatedLinesDecodeCanonicallyOrThrow)
{
    std::vector<std::pair<std::string, bool>> seeds;
    seeds.emplace_back(procwire::encodeSpec(0, 0), true);
    seeds.emplace_back(
        procwire::encodeSpec(0xdeadbeefcafef00dull, 123456), true);
    CellOutcome<std::string> ok;
    ok.attempts = 1;
    ok.value.emplace(encodeD(cellValue(3)));
    seeds.emplace_back(procwire::encodeResult(3, ok), false);
    CellOutcome<std::string> crash;
    crash.status = CellStatus::Failed;
    crash.errorClass = ErrorClass::Crash;
    crash.error = "worker died (SIGSEGV) running cell 9";
    crash.detail = "multi\nline detail";
    crash.crashSignal = "SIGSEGV";
    crash.attempts = 4;
    seeds.emplace_back(procwire::encodeResult(9, crash), false);

    // Mostly bytes the codec itself emits, so mutants stay close to
    // valid lines and reach the deep checks, plus arbitrary bytes.
    const std::string alphabet = "0123456789abcdefs -+xX\t\n";
    Rng rng(0x5eedc0dec0ffeeull);
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (int iter = 0; iter < 20000; ++iter) {
        const auto &[seed, is_spec] = seeds[rng.below(seeds.size())];
        std::string line = seed;
        const std::uint64_t edits = rng.range(1, 3);
        for (std::uint64_t e = 0; e < edits; ++e) {
            const std::uint64_t pos = rng.below(line.size() + 1);
            switch (rng.below(3)) {
              case 0: // flip one bit of one byte
                if (pos < line.size())
                    line[pos] = static_cast<char>(
                        line[pos] ^ (1u << rng.below(8)));
                break;
              case 1: // truncate
                line.resize(pos);
                break;
              default: // insert
                line.insert(
                    line.begin() + static_cast<std::ptrdiff_t>(pos),
                    rng.chance(0.8)
                        ? alphabet[rng.below(alphabet.size())]
                        : static_cast<char>(rng.below(256)));
                break;
            }
        }
        std::string reencoded;
        if (decodeAndReencode(line, is_spec, reencoded)) {
            ++accepted;
            ASSERT_EQ(reencoded, line) << "iteration " << iter;
        } else {
            ++rejected;
        }
    }
    // Both outcomes must actually be exercised.
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 100u);
}

TEST_F(ProcExecutorTest, CleanFarmIsByteIdenticalToSerial)
{
    setenv("FS_EXECUTOR", "process", 1);
    setenv("FS_WORKERS", "2", 1);
    auto farm = runTestSweep();
    ASSERT_TRUE(farm.allOk());
    std::vector<std::string> want = serialPayloads();
    for (std::size_t i = 0; i < kCells; ++i) {
        EXPECT_FALSE(farm.cells[i].restored) << i;
        EXPECT_EQ(encodeD(*farm.cells[i].value), want[i]) << i;
    }
}

TEST_F(ProcExecutorTest, SegvFaultQuarantinesOneCellOnly)
{
    setenv("FS_EXECUTOR", "process", 1);
    setenv("FS_WORKERS", "2", 1);
    setenv("FS_FAULTS", "cell=2:segv", 1);
    auto farm = runTestSweep();
    EXPECT_EQ(farm.okCount(), kCells - 1);

    const CellOutcome<double> &bad = farm.cells[2];
    EXPECT_EQ(bad.status, CellStatus::Failed);
    EXPECT_EQ(bad.errorClass, ErrorClass::Crash);
    // Plain build: the null store delivers SIGSEGV. Sanitizer
    // builds intercept it and exit nonzero instead; both decode as
    // a crash, so pin the class, not the exact signal.
    EXPECT_EQ(failureLabel(bad).rfind("crash", 0), 0u)
        << failureLabel(bad);

    std::vector<std::string> want = serialPayloads();
    for (std::size_t i = 0; i < kCells; ++i) {
        if (i == 2)
            continue;
        ASSERT_TRUE(farm.cells[i].ok()) << i;
        EXPECT_EQ(encodeD(*farm.cells[i].value), want[i]) << i;
    }
}

TEST_F(ProcExecutorTest, SigkillMidCellIsContained)
{
    setenv("FS_EXECUTOR", "process", 1);
    setenv("FS_WORKERS", "2", 1);
    setenv("FS_PROC_TEST_KILL_CELL", "3", 1);
    auto farm = runTestSweep();
    EXPECT_EQ(farm.okCount(), kCells - 1);

    const CellOutcome<double> &bad = farm.cells[3];
    EXPECT_EQ(bad.errorClass, ErrorClass::Crash);
    // SIGKILL cannot be intercepted by any runtime, so the signal
    // name is stable across build flavors.
    EXPECT_EQ(bad.crashSignal, "SIGKILL");
    EXPECT_EQ(failureLabel(bad), "crash:SIGKILL");

    std::vector<std::string> want = serialPayloads();
    for (std::size_t i = 0; i < kCells; ++i) {
        if (i == 3)
            continue;
        ASSERT_TRUE(farm.cells[i].ok()) << i;
        EXPECT_EQ(encodeD(*farm.cells[i].value), want[i]) << i;
    }
}

TEST_F(ProcExecutorTest, SpinCellIsHardKilledAtTheDeadline)
{
    setenv("FS_EXECUTOR", "process", 1);
    setenv("FS_WORKERS", "2", 1);
    setenv("FS_WORKER_HARD_TIMEOUT_MS", "1000", 1);
    setenv("FS_FAULTS", "cell=1:spin", 1);
    auto farm = runTestSweep();
    EXPECT_EQ(farm.okCount(), kCells - 1);

    const CellOutcome<double> &bad = farm.cells[1];
    EXPECT_EQ(bad.status, CellStatus::TimedOut);
    EXPECT_EQ(bad.errorClass, ErrorClass::HardTimeout);
    EXPECT_EQ(failureLabel(bad), "hard-timeout");

    std::vector<std::string> want = serialPayloads();
    for (std::size_t i = 0; i < kCells; ++i) {
        if (i == 1)
            continue;
        ASSERT_TRUE(farm.cells[i].ok()) << i;
        EXPECT_EQ(encodeD(*farm.cells[i].value), want[i]) << i;
    }
}

TEST_F(ProcExecutorTest, PoisonCellQuarantinedAfterKDeaths)
{
    setenv("FS_EXECUTOR", "process", 1);
    setenv("FS_WORKERS", "2", 1);
    setenv("FS_POISON_KILLS", "2", 1);
    setenv("FS_FAULTS", "cell=0:segv", 1);
    auto farm = runTestSweep();
    EXPECT_EQ(farm.okCount(), kCells - 1);

    const CellOutcome<double> &bad = farm.cells[0];
    EXPECT_EQ(bad.errorClass, ErrorClass::Crash);
    // The cell was requeued on a fresh worker once and killed it
    // too before the poison detector quarantined it.
    EXPECT_EQ(bad.attempts, 2u);
    for (std::size_t i = 1; i < kCells; ++i)
        EXPECT_TRUE(farm.cells[i].ok()) << i;
}

TEST_F(ProcExecutorTest, ThreadJournalResumesUnderProcessMode)
{
    setenv("FS_CHECKPOINT_DIR", checkpointDir().c_str(), 1);

    // Thread-mode run journals every cell except the faulted one
    // (failed cells are never journaled). The fault is installed
    // directly — this run executes in *this* process.
    FaultInjector::installForTest("cell=4:throw");
    auto partial = runTestSweep();
    FaultInjector::installForTest("");
    EXPECT_EQ(partial.okCount(), kCells - 1);

    // Process-mode resume: restored cells come from the journal,
    // only cell 4 goes to the farm; output bit-identical to an
    // uninterrupted serial run.
    setenv("FS_EXECUTOR", "process", 1);
    setenv("FS_WORKERS", "2", 1);
    auto resumed = runTestSweep();
    ASSERT_TRUE(resumed.allOk());
    std::vector<std::string> want = serialPayloads();
    for (std::size_t i = 0; i < kCells; ++i) {
        EXPECT_EQ(resumed.cells[i].restored, i != 4) << i;
        EXPECT_EQ(encodeD(*resumed.cells[i].value), want[i]) << i;
    }
}

TEST_F(ProcExecutorTest, ProcessJournalResumesUnderThreadMode)
{
    setenv("FS_CHECKPOINT_DIR", checkpointDir().c_str(), 1);

    // Farm run with a crashing cell: the five clean cells are
    // journaled from their wire payloads, the crashed one is not.
    setenv("FS_EXECUTOR", "process", 1);
    setenv("FS_WORKERS", "2", 1);
    setenv("FS_FAULTS", "cell=2:segv", 1);
    auto partial = runTestSweep();
    EXPECT_EQ(partial.okCount(), kCells - 1);
    EXPECT_EQ(partial.cells[2].errorClass, ErrorClass::Crash);

    // Thread-mode resume recomputes only the crashed cell.
    unsetenv("FS_EXECUTOR");
    unsetenv("FS_FAULTS");
    auto resumed = runTestSweep();
    ASSERT_TRUE(resumed.allOk());
    std::vector<std::string> want = serialPayloads();
    for (std::size_t i = 0; i < kCells; ++i) {
        EXPECT_EQ(resumed.cells[i].restored, i != 2) << i;
        EXPECT_EQ(encodeD(*resumed.cells[i].value), want[i]) << i;
    }
}

TEST_F(ProcExecutorTest, FarmWithoutCodecFallsBackToThreads)
{
    // mapResilient has no codec, so FS_EXECUTOR=process cannot farm
    // it; it must still run correctly (thread executor + one
    // warning) rather than fail.
    setenv("FS_EXECUTOR", "process", 1);
    SweepRunner runner(2);
    auto report = runner.mapResilient(
        kCells, [](std::size_t i) { return cellValue(i); });
    ASSERT_TRUE(report.allOk());
    for (std::size_t i = 0; i < kCells; ++i)
        EXPECT_EQ(*report.cells[i].value, cellValue(i)) << i;
}

TEST(ProcExecutorConfigTest, EnvKnobsParse)
{
    setenv("FS_WORKERS", "3", 1);
    setenv("FS_WORKER_HARD_TIMEOUT_MS", "2500", 1);
    setenv("FS_POISON_KILLS", "4", 1);
    setenv("FS_WORKER_BACKOFF_MS", "10", 1);
    ProcExecutorConfig cfg = ProcExecutorConfig::fromEnv();
    EXPECT_EQ(cfg.workers, 3u);
    EXPECT_EQ(cfg.hardTimeoutMs, 2500u);
    EXPECT_EQ(cfg.poisonKills, 4u);
    EXPECT_EQ(cfg.respawnBackoffMs, 10u);
    unsetenv("FS_WORKERS");
    unsetenv("FS_WORKER_HARD_TIMEOUT_MS");
    unsetenv("FS_POISON_KILLS");
    unsetenv("FS_WORKER_BACKOFF_MS");

    EXPECT_EQ(ProcExecutorConfig::fromEnv().poisonKills, 1u);
    EXPECT_EQ(ProcExecutorConfig::fromEnv().hardTimeoutMs, 0u);
}

/** Values beyond `unsigned` used to wrap silently: FS_WORKERS=2^32
 *  fell back to the default pool, FS_POISON_KILLS=2^32 claimed to be
 *  0. Each must now die naming the knob and the range. The setenv
 *  runs in the death-test child only. */
TEST(ProcExecutorConfigTest, OutOfRangeKnobsAreFatal)
{
    EXPECT_EXIT(
        {
            setenv("FS_WORKERS", "4294967296", 1);
            (void)ProcExecutorConfig::fromEnv();
        },
        ::testing::ExitedWithCode(1),
        "FS_WORKERS=4294967296 is out of range \\(at most 4294967295\\)");
    EXPECT_EXIT(
        {
            setenv("FS_POISON_KILLS", "4294967296", 1);
            (void)ProcExecutorConfig::fromEnv();
        },
        ::testing::ExitedWithCode(1),
        "FS_POISON_KILLS=4294967296 is out of range");
    EXPECT_EXIT(
        {
            setenv("FS_WORKER_HARD_TIMEOUT_MS", "-5", 1);
            (void)ProcExecutorConfig::fromEnv();
        },
        ::testing::ExitedWithCode(1),
        "FS_WORKER_HARD_TIMEOUT_MS must be a non-negative decimal");
    EXPECT_EXIT(
        {
            setenv("FS_WORKER_BACKOFF_MS", "99999999999999999999", 1);
            (void)ProcExecutorConfig::fromEnv();
        },
        ::testing::ExitedWithCode(1),
        "FS_WORKER_BACKOFF_MS=99999999999999999999 is out of range");
}

} // namespace
} // namespace fscache

int
main(int argc, char **argv)
{
    // Farm workers re-exec this binary; route them straight into
    // the test sweep (serveCellsAsWorker never returns for the
    // farmed fingerprint).
    fscache::procExecutorInit(&argc, argv);
    if (fscache::procWorkerMode()) {
        (void)fscache::runTestSweep();
        return 0;
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
