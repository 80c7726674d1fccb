/**
 * @file
 * ArgParser tests: option forms, typed accessors, defaults, help,
 * error handling, and the checked environment-knob parser.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>

#include "common/arg_parser.hh"

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

} // namespace
} // namespace fscache
