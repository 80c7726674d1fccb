/**
 * @file
 * ArgParser tests: option forms, typed accessors, defaults, help,
 * error handling, the checked environment-knob parser, and a seeded
 * mutation test of fscache_sim's fatal()-on-error argv decoding.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/arg_parser.hh"
#include "common/random.hh"

namespace fscache
{
namespace
{

ArgParser
makeParser()
{
    ArgParser p("tool", "test tool");
    p.addString("name", "default", "a string");
    p.addInt("count", 7, "an int");
    p.addDouble("ratio", 0.5, "a double");
    p.addFlag("verbose", "a flag");
    return p;
}

TEST(ArgParser, DefaultsWhenUnset)
{
    ArgParser p = makeParser();
    const char *argv[] = {"tool"};
    EXPECT_TRUE(p.parse(1, argv));
    EXPECT_EQ(p.getString("name"), "default");
    EXPECT_EQ(p.getInt("count"), 7);
    EXPECT_DOUBLE_EQ(p.getDouble("ratio"), 0.5);
    EXPECT_FALSE(p.getFlag("verbose"));
    EXPECT_FALSE(p.given("name"));
}

TEST(ArgParser, SpaceSeparatedValues)
{
    ArgParser p = makeParser();
    const char *argv[] = {"tool", "--name", "abc", "--count", "42"};
    EXPECT_TRUE(p.parse(5, argv));
    EXPECT_EQ(p.getString("name"), "abc");
    EXPECT_EQ(p.getInt("count"), 42);
    EXPECT_TRUE(p.given("name"));
}

TEST(ArgParser, EqualsForm)
{
    ArgParser p = makeParser();
    const char *argv[] = {"tool", "--ratio=0.25", "--name=x"};
    EXPECT_TRUE(p.parse(3, argv));
    EXPECT_DOUBLE_EQ(p.getDouble("ratio"), 0.25);
    EXPECT_EQ(p.getString("name"), "x");
}

TEST(ArgParser, FlagForm)
{
    ArgParser p = makeParser();
    const char *argv[] = {"tool", "--verbose"};
    EXPECT_TRUE(p.parse(2, argv));
    EXPECT_TRUE(p.getFlag("verbose"));
}

TEST(ArgParser, HelpReturnsFalse)
{
    ArgParser p = makeParser();
    const char *argv[] = {"tool", "--help"};
    EXPECT_FALSE(p.parse(2, argv));
}

TEST(ArgParser, HelpTextMentionsOptions)
{
    ArgParser p = makeParser();
    std::ostringstream os;
    p.printHelp(os);
    std::string text = os.str();
    EXPECT_NE(text.find("--name"), std::string::npos);
    EXPECT_NE(text.find("--verbose"), std::string::npos);
    EXPECT_NE(text.find("default: 7"), std::string::npos);
}

TEST(ArgParser, NegativeNumbers)
{
    ArgParser p = makeParser();
    const char *argv[] = {"tool", "--count", "-5"};
    EXPECT_TRUE(p.parse(3, argv));
    EXPECT_EQ(p.getInt("count"), -5);
}

using ArgParserDeathTest = ::testing::Test;

TEST(ArgParserDeathTest, UnknownOptionIsFatal)
{
    ArgParser p = makeParser();
    const char *argv[] = {"tool", "--nope"};
    EXPECT_EXIT(p.parse(2, argv), ::testing::ExitedWithCode(1),
                "unknown option");
}

TEST(ArgParserDeathTest, MissingValueIsFatal)
{
    ArgParser p = makeParser();
    const char *argv[] = {"tool", "--count"};
    EXPECT_EXIT(p.parse(2, argv), ::testing::ExitedWithCode(1),
                "needs a value");
}

TEST(ArgParserDeathTest, BadIntIsFatal)
{
    ArgParser p = makeParser();
    const char *argv[] = {"tool", "--count", "abc"};
    // The diagnostic names the flag, the token and the expected
    // form, and the process exits cleanly with status 1.
    EXPECT_EXIT(p.parse(3, argv), ::testing::ExitedWithCode(1),
                "option '--count': \"abc\" is not an integer");
}

TEST(ArgParserDeathTest, TrailingJunkIntIsFatal)
{
    // Bare std::stoll would silently accept "12abc" as 12.
    ArgParser p = makeParser();
    const char *argv[] = {"tool", "--count", "12abc"};
    EXPECT_EXIT(p.parse(3, argv), ::testing::ExitedWithCode(1),
                "option '--count': \"12abc\" is not an integer");
}

TEST(ArgParserDeathTest, TrailingJunkDoubleIsFatal)
{
    ArgParser p = makeParser();
    const char *argv[] = {"tool", "--ratio", "0.5x"};
    EXPECT_EXIT(p.parse(3, argv), ::testing::ExitedWithCode(1),
                "option '--ratio': \"0.5x\" is not a number");
}

TEST(ArgParser, CheckedParsersAcceptValidTokens)
{
    EXPECT_EQ(parseInt64Arg("--n", "-42"), -42);
    EXPECT_EQ(parseU64Arg("--n", "42"), 42u);
    EXPECT_DOUBLE_EQ(parseDoubleArg("--x", "2.5e-3"), 2.5e-3);
    EXPECT_EQ(parseU64Arg("--lines", "131072"), 131072u);
}

TEST(ArgParserDeathTest, CheckedParsersRejectMalformedTokens)
{
    EXPECT_EXIT(parseU64Arg("--lines", "12abc"),
                ::testing::ExitedWithCode(1),
                "option '--lines': \"12abc\" is not an integer");
    EXPECT_EXIT(parseU64Arg("--lines", "-3"),
                ::testing::ExitedWithCode(1),
                "must not be negative");
    EXPECT_EXIT(parseDoubleArg("--targets", ""),
                ::testing::ExitedWithCode(1), "empty value");
    EXPECT_EXIT(parseInt64Arg("--n", "99999999999999999999999"),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(ArgParser, EnvKnobParsesOrFallsBack)
{
    unsetenv("FS_TEST_KNOB");
    EXPECT_EQ(parseEnvUnsigned("FS_TEST_KNOB", 7u), 7u);
    setenv("FS_TEST_KNOB", "", 1);
    EXPECT_EQ(parseEnvUnsigned("FS_TEST_KNOB", 7u), 7u);
    setenv("FS_TEST_KNOB", "4294967295", 1);
    EXPECT_EQ(parseEnvUnsigned("FS_TEST_KNOB", 7u), 4294967295u);
    setenv("FS_TEST_KNOB", "18446744073709551615", 1);
    EXPECT_EQ(parseEnvUnsigned<std::uint64_t>("FS_TEST_KNOB", 0),
              ~0ull);
    unsetenv("FS_TEST_KNOB");
}

TEST(ArgParserDeathTest, EnvKnobRejectsMalformedAndOutOfRange)
{
    for (const char *bad : {"-1", "+3", " 3", "3 ", "0x10", "12abc"})
        EXPECT_EXIT(
            {
                setenv("FS_TEST_KNOB", bad, 1);
                (void)parseEnvUnsigned("FS_TEST_KNOB", 0u);
            },
            ::testing::ExitedWithCode(1),
            "FS_TEST_KNOB must be a non-negative decimal integer")
            << bad;
    EXPECT_EXIT(
        {
            setenv("FS_TEST_KNOB", "18446744073709551616", 1);
            (void)parseEnvUnsigned<std::uint64_t>("FS_TEST_KNOB", 0);
        },
        ::testing::ExitedWithCode(1), "FS_TEST_KNOB=.* is out of range");
    EXPECT_EXIT(
        {
            setenv("FS_TEST_KNOB", "256", 1);
            (void)parseEnvUnsigned<std::uint8_t>("FS_TEST_KNOB", 0);
        },
        ::testing::ExitedWithCode(1),
        "FS_TEST_KNOB=256 is out of range \\(at most 255\\)");
}

TEST(ArgParserDeathTest, FlagWithValueIsFatal)
{
    ArgParser p = makeParser();
    const char *argv[] = {"tool", "--verbose=1"};
    EXPECT_EXIT(p.parse(2, argv), ::testing::ExitedWithCode(1),
                "takes no value");
}

/** fscache_sim's option table, enough to parse its argv shape. */
ArgParser
makeSimParser()
{
    ArgParser p("fscache_sim", "mutation target");
    p.addString("scheme", "fs", "");
    p.addString("array", "setassoc", "");
    p.addString("ranking", "coarse", "");
    p.addString("hash", "h3", "");
    p.addString("lines", "131072", "");
    p.addInt("ways", 16, "");
    p.addInt("candidates", 16, "");
    p.addString("threads", "mcf", "");
    p.addString("traces", "", "");
    p.addString("targets", "", "");
    p.addInt("accesses", 200000, "");
    p.addDouble("warmup", 0.1, "");
    p.addInt("seed", 1, "");
    p.addFlag("untimed", "");
    p.addFlag("nuca", "");
    p.addFlag("json", "");
    return p;
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

/** Bytes a mutation may insert: printable ASCII, so a fatal message
 *  stays on one line. */
char
randomByte(Rng &rng, const std::string &bias)
{
    if (rng.below(2) == 0)
        return bias[rng.below(bias.size())];
    return static_cast<char>(' ' + rng.below(95));
}

/** One random edit of one token: delete, insert, replace, truncate,
 *  swap in a hostile number, or duplicate. */
void
mutateToken(Rng &rng, std::string &tok, const std::string &bias)
{
    static const char *const kHostile[] = {
        "", "-1", "+1", "0", "nan", "inf", "-inf", "1e400", "0x10",
        "99999999999999999999", "18446744073709551616", "--", "-",
        "=", ".", "1.5.2", " 7", "7 "};
    std::size_t at = tok.empty() ? 0 : rng.below(tok.size() + 1);
    switch (rng.below(6)) {
      case 0:
        if (!tok.empty())
            tok.erase(std::min(at, tok.size() - 1), 1);
        break;
      case 1:
        tok.insert(at, 1, randomByte(rng, bias));
        break;
      case 2:
        if (!tok.empty())
            tok[std::min(at, tok.size() - 1)] = randomByte(rng, bias);
        break;
      case 3:
        tok.resize(at);
        break;
      case 4:
        tok = kHostile[rng.below(std::size(kHostile))];
        break;
      default:
        tok += tok.substr(at);
        break;
    }
}

/**
 * Death-test predicate that accepts only a clean exit 0 (parsed) or
 * exit 1 (fatal with a message) and counts each. A signal, an abort
 * or any other status fails the mutant.
 */
struct CleanExit
{
    int *counts;

    bool
    operator()(int status) const
    {
        if (!WIFEXITED(status))
            return false;
        int code = WEXITSTATUS(status);
        if (code != 0 && code != 1)
            return false;
        ++counts[code];
        return true;
    }
};

/** The child's whole stderr: one "parsed" line or one fatal line. A
 *  sanitizer report (which also exits 1) never matches. */
const char *const kCleanStderr = "parsed\n|fatal: [^\n]*\n";

[[noreturn]] void
exitParsed()
{
    std::fprintf(stderr, "parsed\n");
    std::exit(0);
}

TEST(ArgParserMutationDeathTest, MutatedSimArgvParsesOrFailsCleanly)
{
    const std::vector<std::string> seed = {
        "fscache_sim", "--scheme", "vantage", "--array=zcache",
        "--ranking", "lfu", "--lines", "8192,16384", "--ways", "16",
        "--threads", "mcf,lbm", "--targets", "40,60", "--accesses",
        "60000", "--warmup=0.25", "--seed", "-7", "--untimed",
        "--json"};
    const std::string bias = "-=,.0123456789e";
    Rng rng(0xa59f11e5ull);
    int counts[2] = {0, 0};
    for (int m = 0; m < 200; ++m) {
        std::vector<std::string> argv = seed;
        for (std::uint64_t k = 1 + rng.below(2); k > 0; --k) {
            std::size_t i = 1 + rng.below(argv.size() - 1);
            switch (rng.below(5)) {
              case 0:
                argv.erase(argv.begin() + static_cast<long>(i));
                break;
              case 1:
                argv.insert(argv.begin() + static_cast<long>(i),
                            argv[1 + rng.below(argv.size() - 1)]);
                break;
              case 2:
                argv[i] = std::to_string(rng.below(1u << 20));
                break;
              default:
                mutateToken(rng, argv[i], bias);
                break;
            }
            if (argv.size() < 2)
                argv.push_back("--json");
        }
        std::string shown;
        for (const std::string &a : argv)
            shown += " [" + a + "]";
        EXPECT_EXIT(
            {
                std::vector<const char *> raw;
                for (const std::string &a : argv)
                    raw.push_back(a.c_str());
                ArgParser p = makeSimParser();
                if (p.parse(static_cast<int>(raw.size()), raw.data())) {
                    // The decoders fscache_sim runs on the values.
                    for (const std::string &l :
                         splitCommas(p.getString("lines")))
                        (void)parseU64Arg("--lines", l);
                    for (const std::string &t :
                         splitCommas(p.getString("targets")))
                        (void)parseDoubleArg("--targets", t);
                    // parse() already ran parseInt64Arg and
                    // parseDoubleArg on every typed value.
                    (void)p.getInt("seed");
                    (void)p.getDouble("warmup");
                    (void)p.getFlag("json");
                }
                exitParsed();
            },
            CleanExit{counts}, ::testing::MatchesRegex(kCleanStderr))
            << "mutant " << m << ":" << shown;
    }
    EXPECT_GT(counts[0], 10) << "too few mutants parsed";
    EXPECT_GT(counts[1], 10) << "too few mutants were rejected";
}

} // namespace
} // namespace fscache
