#include "common/arg_parser.hh"

#include <cerrno>
#include <cstdlib>
#include <iostream>

#include "common/log.hh"

namespace fscache
{

std::int64_t
parseInt64Arg(const std::string &flag, const std::string &token)
{
    if (token.empty())
        fatal("option '%s': empty value (expected an integer, "
              "e.g. 42)", flag.c_str());
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0')
        fatal("option '%s': \"%s\" is not an integer (expected "
              "e.g. 42)", flag.c_str(), token.c_str());
    if (errno == ERANGE)
        fatal("option '%s': \"%s\" is out of range for a 64-bit "
              "integer", flag.c_str(), token.c_str());
    return v;
}

std::uint64_t
parseU64Arg(const std::string &flag, const std::string &token)
{
    std::int64_t v = parseInt64Arg(flag, token);
    if (v < 0)
        fatal("option '%s': \"%s\" must not be negative",
              flag.c_str(), token.c_str());
    return static_cast<std::uint64_t>(v);
}

std::uint64_t
parseEnvU64(const char *name, std::uint64_t fallback,
            std::uint64_t min, std::uint64_t max)
{
    const char *env = std::getenv(name);
    if (env == nullptr || *env == '\0')
        return fallback;
    // strtoull alone would accept "-1" (wrapping it) and leading
    // blanks; only a full run of digits is a valid knob value.
    for (const char *p = env; *p != '\0'; ++p)
        if (*p < '0' || *p > '9')
            fatal("%s must be a non-negative decimal integer, got "
                  "\"%s\"", name, env);
    errno = 0;
    unsigned long long v = std::strtoull(env, nullptr, 10);
    if (errno == ERANGE || v > max)
        fatal("%s=%s is out of range (at most %llu)", name, env,
              static_cast<unsigned long long>(max));
    if (v < min)
        fatal("%s=%s is out of range (at least %llu)", name, env,
              static_cast<unsigned long long>(min));
    return v;
}

double
parseDoubleArg(const std::string &flag, const std::string &token)
{
    if (token.empty())
        fatal("option '%s': empty value (expected a number, "
              "e.g. 0.5)", flag.c_str());
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0')
        fatal("option '%s': \"%s\" is not a number (expected "
              "e.g. 0.5)", flag.c_str(), token.c_str());
    if (errno == ERANGE)
        fatal("option '%s': \"%s\" is out of range for a double",
              flag.c_str(), token.c_str());
    return v;
}

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)),
      description_(std::move(description))
{
}

void
ArgParser::addString(const std::string &name,
                     const std::string &default_value,
                     const std::string &help)
{
    fs_assert(options_.find(name) == options_.end(),
              "duplicate option");
    options_[name] = {Kind::String, help, default_value, false};
    order_.push_back(name);
}

void
ArgParser::addInt(const std::string &name, std::int64_t default_value,
                  const std::string &help)
{
    fs_assert(options_.find(name) == options_.end(),
              "duplicate option");
    options_[name] = {Kind::Int, help, std::to_string(default_value),
                      false};
    order_.push_back(name);
}

void
ArgParser::addDouble(const std::string &name, double default_value,
                     const std::string &help)
{
    fs_assert(options_.find(name) == options_.end(),
              "duplicate option");
    options_[name] = {Kind::Double, help,
                      std::to_string(default_value), false};
    order_.push_back(name);
}

void
ArgParser::addFlag(const std::string &name, const std::string &help)
{
    fs_assert(options_.find(name) == options_.end(),
              "duplicate option");
    options_[name] = {Kind::Flag, help, "0", false};
    order_.push_back(name);
}

bool
ArgParser::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp(std::cout);
            return false;
        }
        if (arg.rfind("--", 0) != 0)
            fatal("unexpected argument '%s' (try --help)",
                  arg.c_str());
        arg = arg.substr(2);

        std::string value;
        bool has_value = false;
        std::size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            has_value = true;
        }

        auto it = options_.find(arg);
        if (it == options_.end())
            fatal("unknown option '--%s' (try --help)", arg.c_str());
        Option &opt = it->second;

        if (opt.kind == Kind::Flag) {
            if (has_value)
                fatal("flag '--%s' takes no value", arg.c_str());
            // assign() instead of operator=(const char*): GCC 12's
            // -O3 inliner flags the latter's internal memcpy with a
            // spurious -Wrestrict overlap warning here.
            opt.value.assign(1, '1');
            opt.given = true;
            continue;
        }
        if (!has_value) {
            if (i + 1 >= argc)
                fatal("option '--%s' needs a value", arg.c_str());
            value = argv[++i];
        }
        // Validate typed values eagerly, rejecting trailing junk
        // ("12abc") — the checked parsers exit with a message
        // naming the flag and the offending token.
        std::string flag = "--" + arg;
        if (opt.kind == Kind::Int)
            (void)parseInt64Arg(flag, value);
        else if (opt.kind == Kind::Double)
            (void)parseDoubleArg(flag, value);
        opt.value = value;
        opt.given = true;
    }
    return true;
}

const ArgParser::Option &
ArgParser::find(const std::string &name, Kind kind) const
{
    auto it = options_.find(name);
    fs_assert(it != options_.end(), "unregistered option queried");
    fs_assert(it->second.kind == kind, "option type mismatch");
    return it->second;
}

std::string
ArgParser::getString(const std::string &name) const
{
    return find(name, Kind::String).value;
}

std::int64_t
ArgParser::getInt(const std::string &name) const
{
    return parseInt64Arg("--" + name, find(name, Kind::Int).value);
}

double
ArgParser::getDouble(const std::string &name) const
{
    return parseDoubleArg("--" + name,
                          find(name, Kind::Double).value);
}

bool
ArgParser::getFlag(const std::string &name) const
{
    return find(name, Kind::Flag).value == "1";
}

bool
ArgParser::given(const std::string &name) const
{
    auto it = options_.find(name);
    fs_assert(it != options_.end(), "unregistered option queried");
    return it->second.given;
}

void
ArgParser::printHelp(std::ostream &os) const
{
    os << program_ << " — " << description_ << "\n\noptions:\n";
    for (const std::string &name : order_) {
        const Option &opt = options_.at(name);
        std::string left = "  --" + name;
        if (opt.kind != Kind::Flag)
            left += " <" +
                    std::string(opt.kind == Kind::Int      ? "int"
                                : opt.kind == Kind::Double ? "num"
                                                           : "str") +
                    ">";
        os << left;
        if (left.size() < 28)
            os << std::string(28 - left.size(), ' ');
        else
            os << "\n" << std::string(28, ' ');
        os << opt.help;
        if (opt.kind != Kind::Flag)
            os << " [default: " << opt.value << "]";
        os << "\n";
    }
}

} // namespace fscache
