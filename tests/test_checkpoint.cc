/**
 * @file
 * Checkpoint/resume tests: bit-exact payload codec round-trips,
 * seeded mutation tests of the codec's canonical form and of the
 * journal loader, journal persistence and atomicity, fingerprint
 * keying, torn-line tolerance, and the crash-safety contract — a
 * sweep killed mid-run (fork + _exit at cell k) resumes executing
 * only the missing cells with values identical to an uninterrupted
 * run.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/errors.hh"
#include "common/log.hh"
#include "common/random.hh"
#include "runner/checkpoint.hh"
#include "runner/sweep_runner.hh"

namespace fscache
{
namespace
{

/** Fresh private directory per test; removed on teardown. */
class CheckpointTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/fscache-ckpt-XXXXXX";
        char *dir = mkdtemp(tmpl);
        ASSERT_NE(dir, nullptr);
        dir_ = dir;
    }

    void
    TearDown() override
    {
        unsetenv("FS_CHECKPOINT_DIR");
        // Best-effort cleanup; the journal names are flat files.
        std::string cmd = "rm -rf '" + dir_ + "'";
        (void)std::system(cmd.c_str());
    }

    std::string dir_;
};

double
cellDouble(std::size_t i)
{
    // An awkward, non-representable value so only a bit-exact
    // round-trip reproduces it.
    return std::sqrt(static_cast<double>(i) + 2.0) / 3.0;
}

TEST(CellCodec, RoundTripsIntegersDoublesStrings)
{
    CellEncoder e;
    e.u64(0).u64(std::numeric_limits<std::uint64_t>::max());
    e.f64(0.1).f64(-0.0).f64(1e-310); // subnormal
    e.str("hello world").str("");
    CellDecoder d(e.result());
    EXPECT_EQ(d.u64(), 0u);
    EXPECT_EQ(d.u64(), std::numeric_limits<std::uint64_t>::max());
    double a = d.f64(), b = d.f64(), c = d.f64();
    EXPECT_EQ(a, 0.1);
    EXPECT_TRUE(std::signbit(b));
    EXPECT_EQ(c, 1e-310);
    EXPECT_EQ(d.str(), "hello world");
    EXPECT_EQ(d.str(), "");
    EXPECT_TRUE(d.done());
}

TEST(CellCodec, NanAndInfinitySurviveBitExactly)
{
    CellEncoder e;
    e.f64(std::numeric_limits<double>::quiet_NaN());
    e.f64(std::numeric_limits<double>::infinity());
    e.f64(-std::numeric_limits<double>::infinity());
    CellDecoder d(e.result());
    EXPECT_TRUE(std::isnan(d.f64()));
    EXPECT_EQ(d.f64(), std::numeric_limits<double>::infinity());
    EXPECT_EQ(d.f64(), -std::numeric_limits<double>::infinity());
}

TEST(CellCodec, TruncatedPayloadThrowsTyped)
{
    CellEncoder e;
    e.u64(7);
    CellDecoder d(e.result());
    EXPECT_EQ(d.u64(), 7u);
    EXPECT_THROW(d.u64(), FsError);
}

TEST(CellCodec, GarbagePayloadThrowsTyped)
{
    CellDecoder d("not-a-number");
    EXPECT_THROW(d.u64(), FsError);
}

/**
 * Decode `payload` as the token kinds in `schema` ('u' u64, 'f' f64,
 * 's' str) and re-encode the values. Trailing tokens throw FsError,
 * as the drivers' cell decoders do.
 */
std::string
reencodeAs(const std::string &schema, const std::string &payload)
{
    CellDecoder d(payload);
    CellEncoder e;
    for (char kind : schema) {
        if (kind == 'u')
            e.u64(d.u64());
        else if (kind == 'f')
            e.f64(d.f64());
        else
            e.str(d.str());
    }
    if (!d.done())
        throw FsError("trailing tokens");
    return e.result();
}

/** reencodeAs() that reports FsError as false. */
bool
decodesCanonically(const std::string &schema,
                   const std::string &payload, std::string &reencoded)
{
    try {
        reencoded = reencodeAs(schema, payload);
        return true;
    } catch (const FsError &) {
        return false;
    }
}

/** Real encoder payloads with the schema each decodes under. */
std::vector<std::pair<std::string, std::string>>
seedPayloads()
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<std::pair<std::string, std::string>> seeds;
    seeds.emplace_back(
        "uuu", CellEncoder()
                   .u64(0)
                   .u64(std::numeric_limits<std::uint64_t>::max())
                   .u64(0xdeadbeefcafef00dull)
                   .result());
    seeds.emplace_back(
        "fffffff",
        CellEncoder()
            .f64(std::numeric_limits<double>::quiet_NaN())
            .f64(std::bit_cast<double>(0xfff0000000000badull))
            .f64(kInf)
            .f64(-kInf)
            .f64(-0.0)
            .f64(1e-310)
            .f64(cellDouble(3))
            .result());
    seeds.emplace_back("sss", CellEncoder()
                                  .str("hello world")
                                  .str("")
                                  .str(std::string("\0\xff bin", 6))
                                  .result());
    seeds.emplace_back("usfu", CellEncoder()
                                   .u64(7)
                                   .str("mcf")
                                   .f64(0.1)
                                   .u64(0)
                                   .result());
    return seeds;
}

/**
 * Apply 1-3 seeded edits to `text`: a bit flip, a truncation, or an
 * insertion drawn mostly from `alphabet` (bytes the format itself
 * uses, so mutants stay close to valid input and reach the deep
 * checks) and sometimes from all 256 bytes.
 */
std::string
mutate(Rng &rng, std::string text, const std::string &alphabet)
{
    const std::uint64_t edits = rng.range(1, 3);
    for (std::uint64_t e = 0; e < edits; ++e) {
        const std::uint64_t pos = rng.below(text.size() + 1);
        switch (rng.below(3)) {
          case 0: // flip one bit of one byte
            if (pos < text.size())
                text[pos] = static_cast<char>(
                    text[pos] ^ (1u << rng.below(8)));
            break;
          case 1: // truncate
            text.resize(pos);
            break;
          default: // insert
            text.insert(
                text.begin() + static_cast<std::ptrdiff_t>(pos),
                rng.chance(0.8)
                    ? alphabet[rng.below(alphabet.size())]
                    : static_cast<char>(rng.below(256)));
            break;
        }
    }
    return text;
}

TEST(CellCodec, NonCanonicalPayloadsAreRejected)
{
    const std::string u3 =
        CellEncoder().u64(1).u64(0xabc).u64(5).result();
    ASSERT_EQ(u3, "1 abc 5");
    std::string out;
    for (const char *bad :
         {" 1 abc 5", "1  abc 5", "1 abc 5 ", "1 0abc 5", "1 ABC 5",
          "1 -abc 5", "1 +abc 5", "1 0xabc 5",
          "1 abc 10000000000000000", "1 abc\t5", "1 abc", ""})
        EXPECT_FALSE(decodesCanonically("uuu", bad, out)) << bad;

    const std::string s2 = CellEncoder().str("").str("\x01").result();
    ASSERT_EQ(s2, "s s01");
    for (const char *bad :
         {"s s0", "s s1", "s S01", "s s0A", "x s01", "s s01 s"})
        EXPECT_FALSE(decodesCanonically("ss", bad, out)) << bad;
}

/**
 * Deterministic mutation test of CellDecoder's canonical-form
 * checks: seeded byte flips, truncations and insertions over real
 * CellEncoder payloads. Every mutant must either decode to values
 * that re-encode to exactly its bytes, or be rejected with FsError —
 * never crash, hang, or trip a sanitizer.
 */
TEST(CellCodec, MutatedPayloadsDecodeCanonicallyOrThrow)
{
    const auto seeds = seedPayloads();
    const std::string alphabet = "0123456789abcdefs -+xX\t\n";
    Rng rng(0x5eedc0dec0ffeeull);
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (int iter = 0; iter < 20000; ++iter) {
        const auto &[schema, seed] = seeds[rng.below(seeds.size())];
        const std::string payload = mutate(rng, seed, alphabet);
        std::string reencoded;
        if (decodesCanonically(schema, payload, reencoded)) {
            ++accepted;
            ASSERT_EQ(reencoded, payload) << "iteration " << iter;
        } else {
            ++rejected;
        }
    }
    // Both outcomes must actually be exercised.
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 100u);
}

TEST(Fingerprint, DiffersAcrossKeys)
{
    EXPECT_NE(fingerprint64("fig2;cells=54"),
              fingerprint64("fig2;cells=53"));
    EXPECT_EQ(fingerprint64("same"), fingerprint64("same"));
}

TEST_F(CheckpointTest, RecordsPersistAcrossReopen)
{
    {
        auto j = CheckpointJournal::openAt(dir_, "sweep", "k=1");
        ASSERT_NE(j, nullptr);
        EXPECT_TRUE(j->restored().empty());
        j->record(0, "a");
        j->record(3, "b b");
    }
    auto j = CheckpointJournal::openAt(dir_, "sweep", "k=1");
    ASSERT_NE(j, nullptr);
    ASSERT_EQ(j->restored().size(), 2u);
    EXPECT_EQ(j->restored().at(0), "a");
    EXPECT_EQ(j->restored().at(3), "b b");
}

TEST_F(CheckpointTest, ConfigKeyChangesIsolateJournals)
{
    auto j1 = CheckpointJournal::openAt(dir_, "sweep", "seed=1");
    j1->record(0, "old");
    auto j2 = CheckpointJournal::openAt(dir_, "sweep", "seed=2");
    // A different configuration must not see the other's cells.
    EXPECT_TRUE(j2->restored().empty());
    EXPECT_NE(j1->path(), j2->path());
}

TEST_F(CheckpointTest, TornTrailingLineIsSkipped)
{
    std::string path;
    {
        auto j = CheckpointJournal::openAt(dir_, "sweep", "k=1");
        j->record(0, "good");
        j->record(1, "alsogood");
        path = j->path();
    }
    // Simulate a crash that tore the last line mid-write.
    {
        std::ofstream out(path, std::ios::app);
        out << "{\"cell\":2,\"v\":\"tr";
    }
    auto j = CheckpointJournal::openAt(dir_, "sweep", "k=1");
    ASSERT_EQ(j->restored().size(), 2u);
    EXPECT_EQ(j->restored().count(2), 0u);
}

/**
 * Mutated journal lines through CheckpointJournal's loader: each
 * mutant is either skipped (that cell recomputes) or restored as one
 * entry whose payload then decodes canonically or throws FsError
 * (mapResilientCheckpointed recomputes that cell too). Never a
 * crash.
 */
TEST_F(CheckpointTest, MutatedJournalLinesAreSkippedOrRestored)
{
    const auto seeds = seedPayloads();
    const std::string alphabet = "0123456789abcdefs -+\"{}:,cellv\n";
    Rng rng(0x5eedc0dec0ffeeull);
    std::string path;
    {
        auto probe = CheckpointJournal::openAt(dir_, "mut", "k");
        ASSERT_NE(probe, nullptr);
        path = probe->path();
    }
    std::size_t skipped = 0;
    std::size_t decoded = 0;
    std::size_t undecodable = 0;
    for (int iter = 0; iter < 2000; ++iter) {
        const std::size_t k = rng.below(seeds.size());
        const auto &[schema, payload] = seeds[k];
        const std::string line = mutate(
            rng,
            strprintf("{\"cell\":%zu,\"v\":\"%s\"}", k,
                      payload.c_str()),
            alphabet);
        {
            std::ofstream out(path, std::ios::trunc);
            out << line << '\n';
        }
        auto j = CheckpointJournal::openAt(dir_, "mut", "k");
        ASSERT_LE(j->restored().size(), 1u) << line;
        if (j->restored().empty()) {
            ++skipped;
            continue;
        }
        const std::string &restored = j->restored().begin()->second;
        std::string reencoded;
        if (decodesCanonically(schema, restored, reencoded)) {
            ++decoded;
            ASSERT_EQ(reencoded, restored) << "iteration " << iter;
        } else {
            ++undecodable;
        }
    }
    EXPECT_GT(skipped, 100u);
    EXPECT_GT(decoded, 100u);
    EXPECT_GT(undecodable, 100u);
}

TEST_F(CheckpointTest, UnsetEnvDisablesCheckpointing)
{
    unsetenv("FS_CHECKPOINT_DIR");
    EXPECT_EQ(CheckpointJournal::openFromEnv("sweep", "k"), nullptr);
    setenv("FS_CHECKPOINT_DIR", "", 1);
    EXPECT_EQ(CheckpointJournal::openFromEnv("sweep", "k"), nullptr);
}

TEST_F(CheckpointTest, ResumeExecutesOnlyMissingCells)
{
    setenv("FS_CHECKPOINT_DIR", dir_.c_str(), 1);
    auto encode = [](double v) {
        CellEncoder e;
        e.f64(v);
        return e.result();
    };
    auto decode = [](const std::string &p) {
        CellDecoder d(p);
        return d.f64();
    };
    constexpr std::size_t kCells = 8;

    // First run: cells 5.. fail (permanent), so the journal holds
    // exactly cells 0..4.
    SweepRunner runner(1);
    auto first = runner.mapResilientCheckpointed(
        kCells,
        [](std::size_t i) -> double {
            if (i >= 5)
                throw FsError("unavailable");
            return cellDouble(i);
        },
        "partial", "cfg=A", encode, decode);
    EXPECT_EQ(first.okCount(), 5u);

    // Second run: everything works; only the failed cells may
    // execute — restored cells must not call fn again.
    std::vector<std::size_t> executed;
    auto resumed = runner.mapResilientCheckpointed(
        kCells,
        [&executed](std::size_t i) {
            executed.push_back(i);
            return cellDouble(i);
        },
        "partial", "cfg=A", encode, decode);
    ASSERT_TRUE(resumed.allOk());
    EXPECT_EQ(executed, (std::vector<std::size_t>{5, 6, 7}));
    for (std::size_t i = 0; i < kCells; ++i) {
        EXPECT_EQ(*resumed.cells[i].value, cellDouble(i)) << i;
        EXPECT_EQ(resumed.cells[i].restored, i < 5) << i;
    }
}

TEST_F(CheckpointTest, UndecodableRecordRecomputes)
{
    setenv("FS_CHECKPOINT_DIR", dir_.c_str(), 1);
    // Poison cell 1 with a payload the decoder rejects. The config
    // key must match what mapResilientCheckpointed derives (it
    // appends ";cells=N").
    {
        auto j = CheckpointJournal::openAt(dir_, "poison",
                                           "cfg=B;cells=3");
        j->record(0, CellEncoder().f64(cellDouble(0)).result());
        j->record(1, "garbage payload");
    }
    std::vector<std::size_t> executed;
    SweepRunner runner(1);
    auto report = runner.mapResilientCheckpointed(
        3,
        [&executed](std::size_t i) {
            executed.push_back(i);
            return cellDouble(i);
        },
        "poison", "cfg=B",
        [](double v) { return CellEncoder().f64(v).result(); },
        [](const std::string &p) { return CellDecoder(p).f64(); },
        CellGuardConfig{});
    ASSERT_TRUE(report.allOk());
    EXPECT_EQ(executed, (std::vector<std::size_t>{1, 2}));
    EXPECT_EQ(*report.cells[1].value, cellDouble(1));
}

TEST_F(CheckpointTest, RecordSurvivesSigkillImmediatelyAfter)
{
    // Durability regression for the fsync-before-and-after-rename
    // fix: once record() returns, the entry must be on disk even if
    // the process is SIGKILLed the next instruction — no buffered
    // tmp file waiting for a destructor, no unrenamed tmp, and no
    // lingering *.tmp beside the journal.
    std::string path;
    {
        auto probe = CheckpointJournal::openAt(dir_, "durable", "k");
        ASSERT_NE(probe, nullptr);
        path = probe->path();
    }
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        auto j = CheckpointJournal::openAt(dir_, "durable", "k");
        j->record(0, CellEncoder().f64(cellDouble(0)).result());
        j->record(1, CellEncoder().f64(cellDouble(1)).result());
        raise(SIGKILL); // no exit handlers, no stream flush
        _exit(99);      // not reached
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    auto j = CheckpointJournal::openAt(dir_, "durable", "k");
    ASSERT_EQ(j->restored().size(), 2u);
    EXPECT_EQ(CellDecoder(j->restored().at(1)).f64(), cellDouble(1));

    struct stat st;
    EXPECT_NE(::stat((path + ".tmp").c_str(), &st), 0)
        << "flush left its tmp file behind";
}

TEST_F(CheckpointTest, KilledRunResumesByteIdentically)
{
    setenv("FS_CHECKPOINT_DIR", dir_.c_str(), 1);
    constexpr std::size_t kCells = 6;
    constexpr std::size_t kKillAt = 3;
    auto encode = [](double v) {
        CellEncoder e;
        e.f64(v);
        return e.result();
    };
    auto decode = [](const std::string &p) {
        CellDecoder d(p);
        return d.f64();
    };

    // Child: run the sweep serially and die *mid-cell* at cell k —
    // after cells 0..k-1 were journaled, before k completes. _exit
    // skips all destructors/flushes, like a SIGKILL.
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        SweepRunner serial(1);
        (void)serial.mapResilientCheckpointed(
            kCells,
            [](std::size_t i) -> double {
                if (i == kKillAt)
                    _exit(42);
                return cellDouble(i);
            },
            "killed", "cfg=C", encode, decode);
        _exit(0); // not reached
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 42);

    // Parent: resume. Only cells k.. may execute, and the full
    // result payload must be bit-identical to an uninterrupted run.
    std::vector<std::size_t> executed;
    SweepRunner runner(1);
    auto resumed = runner.mapResilientCheckpointed(
        kCells,
        [&executed](std::size_t i) {
            executed.push_back(i);
            return cellDouble(i);
        },
        "killed", "cfg=C", encode, decode);
    ASSERT_TRUE(resumed.allOk());
    EXPECT_EQ(executed,
              (std::vector<std::size_t>{kKillAt, 4, 5}));

    unsetenv("FS_CHECKPOINT_DIR");
    auto clean = runner.mapResilient(
        kCells, [](std::size_t i) { return cellDouble(i); });
    ASSERT_TRUE(clean.allOk());
    for (std::size_t i = 0; i < kCells; ++i) {
        EXPECT_EQ(encode(*resumed.cells[i].value),
                  encode(*clean.cells[i].value))
            << i;
    }
}

} // namespace
} // namespace fscache
