/**
 * @file
 * Minimal command-line argument parser for the tools.
 *
 * Supports `--flag`, `--key value` and `--key=value` forms with
 * typed accessors and automatic `--help` text. Unknown options are
 * fatal so typos never silently fall back to defaults. Every error
 * is a fatal() exit 1 with a message, never a crash; a seeded
 * mutation test (tests/test_arg_parser.cc) holds that.
 */

#ifndef FSCACHE_COMMON_ARG_PARSER_HH
#define FSCACHE_COMMON_ARG_PARSER_HH

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace fscache
{

/**
 * Checked full-token numeric parsers for command-line values.
 *
 * Unlike bare std::stoll/std::stod they reject trailing junk
 * ("12abc"), empty tokens and out-of-range values, and exit(1) with
 * a message naming the flag, the offending token and the expected
 * form. `flag` is the user-facing spelling, e.g. "--lines".
 */
std::int64_t parseInt64Arg(const std::string &flag,
                           const std::string &token);

/** As parseInt64Arg, additionally rejecting negative values. */
std::uint64_t parseU64Arg(const std::string &flag,
                          const std::string &token);

/** Checked full-token double parser (rejects NaN/inf spellings
 *  only if malformed; accepts any finite decimal). */
double parseDoubleArg(const std::string &flag,
                      const std::string &token);

/**
 * Checked parser for an unsigned-integer environment knob (e.g.
 * FS_JOBS). Returns `fallback` when `name` is unset or empty.
 * Otherwise the value must be plain decimal digits — no sign, no
 * whitespace, no trailing junk — naming a number in [min, max];
 * anything else exit(1)s with a message naming the variable and the
 * offending value. Nothing is ever silently wrapped or truncated.
 */
std::uint64_t parseEnvU64(const char *name, std::uint64_t fallback,
                          std::uint64_t min, std::uint64_t max);

/** parseEnvU64 bounded by the destination type's range. */
template <typename T>
T
parseEnvUnsigned(const char *name, T fallback, T min = 0)
{
    static_assert(std::is_unsigned_v<T>);
    return static_cast<T>(parseEnvU64(
        name, fallback, min, std::numeric_limits<T>::max()));
}

/** See file comment. */
class ArgParser
{
  public:
    /**
     * @param program name shown in help output
     * @param description one-line tool description
     */
    ArgParser(std::string program, std::string description);

    /** Register a string option. */
    void addString(const std::string &name,
                   const std::string &default_value,
                   const std::string &help);

    /** Register an integer option. */
    void addInt(const std::string &name, std::int64_t default_value,
                const std::string &help);

    /** Register a floating-point option. */
    void addDouble(const std::string &name, double default_value,
                   const std::string &help);

    /** Register a boolean flag (present => true). */
    void addFlag(const std::string &name, const std::string &help);

    /**
     * Parse argv. On `--help`, prints usage and returns false (the
     * caller should exit 0). Unknown or malformed options are
     * fatal.
     */
    bool parse(int argc, const char *const *argv);

    std::string getString(const std::string &name) const;
    std::int64_t getInt(const std::string &name) const;
    double getDouble(const std::string &name) const;
    bool getFlag(const std::string &name) const;

    /** True if the option was given explicitly (not defaulted). */
    bool given(const std::string &name) const;

    void printHelp(std::ostream &os) const;

  private:
    enum class Kind
    {
        String,
        Int,
        Double,
        Flag,
    };

    struct Option
    {
        Kind kind;
        std::string help;
        std::string value; // textual, canonical
        bool given = false;
    };

    const Option &find(const std::string &name, Kind kind) const;

    std::string program_;
    std::string description_;
    std::map<std::string, Option> options_;
    std::vector<std::string> order_;
};

} // namespace fscache

#endif // FSCACHE_COMMON_ARG_PARSER_HH
