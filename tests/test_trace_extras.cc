/**
 * @file
 * Tests for the trace extensions: text trace I/O round-trips.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>

#include "common/errors.hh"
#include "common/random.hh"
#include "trace/cyclic_generator.hh"
#include "trace/file_trace.hh"
#include "trace/next_use_annotator.hh"
#include "trace/stream_generator.hh"

namespace fscache
{
namespace
{

TEST(FileTrace, ParseBasicFormats)
{
    std::istringstream in(
        "# comment line\n"
        "0x10 5\n"
        "32 7 2\n"
        "\n"
        "0xff 2 18446744073709551615   # trailing comment\n");
    TraceBuffer buf = readTrace(in);
    ASSERT_EQ(buf.size(), 3u);
    EXPECT_EQ(buf[0].addr, 0x10u);
    EXPECT_EQ(buf[0].instrGap, 5u);
    EXPECT_EQ(buf[0].nextUse, kNeverUsed);
    EXPECT_EQ(buf[1].addr, 32u);
    EXPECT_EQ(buf[1].nextUse, 2u);
    EXPECT_EQ(buf[2].addr, 0xffu);
    EXPECT_EQ(buf[2].nextUse, kNeverUsed);
}

/** A next use must name a later record of the same trace (or be
 *  the never value): anything else is rejected with the offending
 *  record's location, before OPT could size an axis by it. */
TEST(FileTrace, OutOfRangeNextUseThrowsTyped)
{
    const struct
    {
        const char *text;
        const char *want;
        const char *where;
    } cases[] = {
        // Own index and earlier.
        {"0x1 1\n0x2 1 1\n0x3 1\n",
         "bad next-use 1: not after its own record;",
         "(record 1, line 2, byte offset 6)"},
        {"0x1 1\n0x2 1 0\n0x3 1\n",
         "bad next-use 0: not after its own record;",
         "(record 1, line 2, byte offset 6)"},
        // Past the end: the record count is 3, so 3 is one too far.
        {"0x1 1\n0x2 1 3\n0x3 1\n",
         "bad next-use 3: past the last record (the trace holds 3);",
         "(record 1, line 2, byte offset 6)"},
        {"0x1 1\n# gap\n0x2 1 1000000000000\n0x3 1\n",
         "bad next-use 1000000000000: past the last record",
         "(record 1, line 3, byte offset 12)"},
        // The farthest next use is the one reported.
        {"0x1 1 2\n0x2 1 9\n0x3 1 7\n",
         "bad next-use 9: past the last record (the trace holds 3);",
         "(record 1, line 2, byte offset 8)"},
        // One below the never value is just a very large index.
        {"0x1 1 18446744073709551614\n",
         "bad next-use 18446744073709551614: past the last record",
         "(record 0, line 1, byte offset 0)"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.text);
        std::istringstream in(c.text);
        try {
            readTrace(in, "nu.trc");
            FAIL() << "expected TraceFormatError";
        } catch (const TraceFormatError &e) {
            std::string msg = e.what();
            EXPECT_EQ(msg.rfind("nu.trc: ", 0), 0u) << msg;
            EXPECT_NE(msg.find(c.want), std::string::npos) << msg;
            EXPECT_NE(msg.find(c.where), std::string::npos) << msg;
        }
    }

    // The boundary values themselves load.
    std::istringstream ok("0x1 1 2\n0x2 1 18446744073709551615\n"
                          "0x3 1\n");
    TraceBuffer buf = readTrace(ok);
    ASSERT_EQ(buf.size(), 3u);
    EXPECT_EQ(buf[0].nextUse, 2u);
    EXPECT_EQ(buf[1].nextUse, kNeverUsed);
}

TEST(FileTrace, DefaultGapIsOne)
{
    std::istringstream in("0x1\n0x2\n");
    TraceBuffer buf = readTrace(in);
    ASSERT_EQ(buf.size(), 2u);
    EXPECT_EQ(buf[0].instrGap, 1u);
}

TEST(FileTrace, RoundTripPreservesAccesses)
{
    CyclicGenerator gen(100, 17, 9, Rng(4));
    TraceBuffer original = TraceBuffer::capture(gen, 200);

    std::ostringstream out;
    writeTrace(out, original);
    std::istringstream in(out.str());
    TraceBuffer loaded = readTrace(in);

    ASSERT_EQ(loaded.size(), original.size());
    for (std::uint64_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(loaded[i].addr, original[i].addr);
        EXPECT_EQ(loaded[i].instrGap, original[i].instrGap);
    }
}

TEST(FileTrace, RoundTripPreservesAnnotation)
{
    CyclicGenerator gen(0, 5, 1, Rng(1));
    TraceBuffer original = TraceBuffer::capture(gen, 20);
    annotateNextUse(original);

    std::ostringstream out;
    writeTrace(out, original);
    std::istringstream in(out.str());
    TraceBuffer loaded = readTrace(in);

    ASSERT_EQ(loaded.size(), original.size());
    for (std::uint64_t i = 0; i < original.size(); ++i)
        EXPECT_EQ(loaded[i].nextUse, original[i].nextUse);
}

/** writeTrace(readTrace(text)) reproduces the text byte for byte,
 *  with next-use fields and without; a trace whose next uses are all
 *  never is written without them. */
TEST(FileTrace, RoundTripIsByteIdentical)
{
    CyclicGenerator cyclic(100, 17, 9, Rng(4));
    TraceBuffer plain = TraceBuffer::capture(cyclic, 200);
    TraceBuffer annotated = plain;
    annotateNextUse(annotated);
    StreamGenerator stream(7, 3, 11, Rng(2));
    TraceBuffer never = TraceBuffer::capture(stream, 50);
    annotateNextUse(never);

    const struct
    {
        const TraceBuffer *trace;
        bool fields;
    } cases[] = {{&plain, false}, {&annotated, true}, {&never, false}};
    for (const auto &c : cases) {
        std::ostringstream first;
        writeTrace(first, *c.trace);
        EXPECT_EQ(first.str().find(" next-use\n") != std::string::npos,
                  c.fields);
        std::istringstream in(first.str());
        TraceBuffer loaded = readTrace(in);
        EXPECT_EQ(loaded.hasNextUseColumn(), c.fields);
        std::ostringstream second;
        writeTrace(second, loaded);
        EXPECT_EQ(second.str(), first.str());
    }
}

/** readTrace allocates the next-use column at the first record that
 *  carries the field; earlier records, and later ones without it,
 *  read never. */
TEST(FileTrace, NextUseColumnFromFirstField)
{
    std::istringstream plain("0x1 1\n0x2 1\n");
    TraceBuffer buf = readTrace(plain);
    EXPECT_FALSE(buf.hasNextUseColumn());
    EXPECT_EQ(buf.bytes(), 12u * 2);

    std::istringstream mixed("0x1 1\n0x2 1 3\n0x3 1\n0x2 1\n");
    buf = readTrace(mixed);
    EXPECT_TRUE(buf.hasNextUseColumn());
    EXPECT_EQ(buf.bytes(), 16u * 4);
    EXPECT_EQ(buf[0].nextUse, kNeverUsed);
    EXPECT_EQ(buf[1].nextUse, 3u);
    EXPECT_EQ(buf[2].nextUse, kNeverUsed);
    EXPECT_EQ(buf[3].nextUse, kNeverUsed);
}

TEST(FileTrace, FileRoundTrip)
{
    StreamGenerator gen(7, 3, 11, Rng(2));
    TraceBuffer original = TraceBuffer::capture(gen, 50);
    const std::string path = "/tmp/fscache_test_trace.txt";
    saveTraceFile(path, original);
    TraceBuffer loaded = loadTraceFile(path);
    ASSERT_EQ(loaded.size(), 50u);
    EXPECT_EQ(loaded[49].addr, original[49].addr);
}


TEST(FileTrace, BadAddressThrowsTyped)
{
    std::istringstream in("zzz 5\n");
    try {
        readTrace(in, "bad.trc");
        FAIL() << "expected TraceFormatError";
    } catch (const TraceFormatError &e) {
        // Diagnostic names the source, field, record index, line
        // and byte offset.
        EXPECT_NE(std::string(e.what()).find("bad.trc"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("bad address 'zzz'"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("record 0"),
                  std::string::npos);
    }
}

/** Tokens a lenient integer parse would map to a wrong value (a
 *  sign wraps, an overflow saturates, an over-wide gap truncates, a
 *  doubled prefix re-parses) must be rejected with a located
 *  diagnostic naming the field. */
TEST(FileTrace, MalformedIntegersThrowTyped)
{
    const struct
    {
        const char *text;
        const char *want;
    } cases[] = {
        {"-1 1\n", "bad address '-1'"},
        {"+1 1\n", "bad address '+1'"},
        {"0x40 -5\n", "bad instr-gap '-5'"},
        {"0x40 +5\n", "bad instr-gap '+5'"},
        {"99999999999999999999\n",
         "bad address '99999999999999999999': out of range"},
        {"0x10000000000000000\n", "out of range"},
        {"0x40 4294967297\n", "bad instr-gap '4294967297': out of "
                               "range (max 4294967295)"},
        {"0x40 1 18446744073709551616\n", "bad next-use"},
        {"0x40 1 -1\n", "bad next-use '-1'"},
        {"0x 1\n", "bad address '0x'"},
        {"0x0x10 1\n", "bad address '0x0x10'"},
        {"0x40 0x\n", "bad instr-gap '0x'"},
        {"1e3 1\n", "bad address '1e3'"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.text);
        std::istringstream in(std::string("0x1 1\n") + c.text);
        try {
            readTrace(in, "int.trc");
            FAIL() << "expected TraceFormatError";
        } catch (const TraceFormatError &e) {
            std::string msg = e.what();
            EXPECT_NE(msg.find(c.want), std::string::npos) << msg;
            EXPECT_NE(msg.find("record 1, line 2, byte offset 6"),
                      std::string::npos)
                << msg;
        }
    }
}

TEST(FileTrace, IntegerEdgesParse)
{
    // The largest address is one below all ones (kInvalidAddr; see
    // AllOnesAddressThrowsTyped).
    std::istringstream in("0xFFFFFFFFFFFFFFFE 4294967295 0X2\n"
                          "18446744073709551614 0xffffffff 002\n"
                          "010 0 0xFFFFFFFFFFFFFFFF\n");
    TraceBuffer buf = readTrace(in);
    ASSERT_EQ(buf.size(), 3u);
    EXPECT_EQ(buf[0].addr, UINT64_MAX - 1);
    EXPECT_EQ(buf[0].instrGap, UINT32_MAX);
    EXPECT_EQ(buf[0].nextUse, 2u);
    EXPECT_EQ(buf[1].addr, UINT64_MAX - 1);
    EXPECT_EQ(buf[1].instrGap, UINT32_MAX);
    EXPECT_EQ(buf[1].nextUse, 2u);
    // A leading 0 is decimal, not octal; a zero gap reads as 1.
    EXPECT_EQ(buf[2].addr, 10u);
    EXPECT_EQ(buf[2].instrGap, 1u);
    EXPECT_EQ(buf[2].nextUse, kNeverUsed);
}

/** The all-ones address is kInvalidAddr, an empty line's tag and
 *  the address index's free-slot key: a record carrying it could not
 *  be told from an empty way, and would abort a fully associative
 *  array's index, so readTrace rejects it at its record. */
TEST(FileTrace, AllOnesAddressThrowsTyped)
{
    for (const char *addr : {"0xffffffffffffffff", "0xFFFFFFFFFFFFFFFF",
                             "18446744073709551615"}) {
        SCOPED_TRACE(addr);
        std::istringstream in(std::string("0x40 10\n0x80 10\n") +
                              addr + " 10\n0x40 10\n");
        try {
            readTrace(in, "ones.trc");
            FAIL() << "expected TraceFormatError";
        } catch (const TraceFormatError &e) {
            std::string msg = e.what();
            EXPECT_NE(msg.find(std::string("bad address '") + addr +
                               "': out of range (max "
                               "18446744073709551614)"),
                      std::string::npos)
                << msg;
            EXPECT_NE(msg.find("record 2, line 3, byte offset 16"),
                      std::string::npos)
                << msg;
        }
    }
}

/**
 * Seeded mutation sweep over valid trace lines: bit flips,
 * truncations and insertions (mostly bytes of the format itself, so
 * mutants stay near-valid). Every mutant must either load — and
 * then survive a writeTrace/readTrace round trip unchanged — or be
 * rejected with TraceFormatError; nothing else may escape.
 */
TEST(FileTrace, MutatedLinesLoadOrThrowTyped)
{
    const std::string seeds[] = {
        "0x1f40 3 1\n0x1f40 4\n",
        "4096 12\n",
        "0xFFFFFFFFFFFFFFFF 4294967295 18446744073709551615\n",
        "0x10 5 2 # comment\n0x20 6\n0x10 7 18446744073709551615\n",
    };
    const std::string alphabet = "0123456789abcdefxX+- \t#\n";
    Rng rng(0x7ace5eedull);
    std::size_t loaded = 0;
    std::size_t rejected = 0;
    for (int iter = 0; iter < 20000; ++iter) {
        std::string text = seeds[rng.below(std::size(seeds))];
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
        std::istringstream in(text);
        TraceBuffer buf;
        try {
            buf = readTrace(in, "mut.trc");
        } catch (const TraceFormatError &) {
            ++rejected;
            continue;
        }
        ++loaded;
        std::ostringstream out;
        writeTrace(out, buf);
        std::istringstream again(out.str());
        TraceBuffer back = readTrace(again);
        ASSERT_EQ(back.size(), buf.size()) << "iteration " << iter;
        for (std::uint64_t i = 0; i < buf.size(); ++i) {
            ASSERT_EQ(back[i].addr, buf[i].addr) << "iteration " << iter;
            ASSERT_EQ(back[i].instrGap, buf[i].instrGap)
                << "iteration " << iter;
            ASSERT_EQ(back[i].nextUse, buf[i].nextUse)
                << "iteration " << iter;
        }
    }
    // Both outcomes must actually be exercised.
    EXPECT_GT(loaded, 100u);
    EXPECT_GT(rejected, 100u);
}

TEST(FileTrace, DiagnosticCarriesRecordAndOffset)
{
    // 1st line (10 bytes incl. newline) is fine; the bad token
    // starts record 1 at byte offset 10, line 2.
    std::istringstream in("0x10 50 1\n0x20 oops\n");
    try {
        readTrace(in, "t.trc");
        FAIL() << "expected TraceFormatError";
    } catch (const TraceFormatError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("bad instr-gap 'oops'"),
                  std::string::npos) << msg;
        EXPECT_NE(msg.find("record 1"), std::string::npos) << msg;
        EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("byte offset 10"), std::string::npos)
            << msg;
    }
}

TEST(FileTrace, TrailingFieldThrows)
{
    std::istringstream in("0x10 5 1 99\n0x20 5\n");
    try {
        readTrace(in);
        FAIL() << "expected TraceFormatError";
    } catch (const TraceFormatError &e) {
        EXPECT_NE(std::string(e.what()).find("trailing field '99'"),
                  std::string::npos) << e.what();
    }
}

TEST(FileTrace, EmptyTraceThrowsClearMessage)
{
    std::istringstream in("# only a comment\n\n");
    try {
        readTrace(in, "empty.trc");
        FAIL() << "expected TraceFormatError";
    } catch (const TraceFormatError &e) {
        EXPECT_NE(std::string(e.what()).find("no accesses"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("empty.trc"),
                  std::string::npos);
    }
}

TEST(FileTrace, MissingFileThrowsTyped)
{
    EXPECT_THROW(loadTraceFile("/nonexistent/file.trc"),
                 TraceFormatError);
}

} // namespace
} // namespace fscache
