#include "common/fault_injection.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancellation.hh"
#include "common/errors.hh"
#include "common/log.hh"
#include "common/random.hh"

namespace fscache
{

namespace
{

/** Salt for the rate clause's per-cell hash (arbitrary, fixed). */
constexpr std::uint64_t kRateSalt = 0xfa01753c0de5eedull;

/**
 * Full-token decimal in [0, max]. Only digits are accepted: strtoull
 * alone would wrap "-1" to a cell that never runs, silently disarming
 * the fault. `what` names the field in the message.
 */
std::uint64_t
parseIndex(const std::string &spec, const std::string &tok,
           const char *what, std::uint64_t max)
{
    if (tok.empty() ||
        tok.find_first_not_of("0123456789") != std::string::npos)
        fatal("FS_FAULTS \"%s\": bad %s \"%s\"", spec.c_str(), what,
              tok.c_str());
    errno = 0;
    unsigned long long v = std::strtoull(tok.c_str(), nullptr, 10);
    if (errno == ERANGE || v > max)
        fatal("FS_FAULTS \"%s\": %s \"%s\" is out of range (at most "
              "%llu)", spec.c_str(), what, tok.c_str(),
              static_cast<unsigned long long>(max));
    return v;
}

/**
 * Plain decimal probability in [0, 1]: digits with at most one
 * point. strtod alone would take "nan" (which passes every range
 * test, since NaN compares false, and then fires on every cell),
 * leading blanks and hex floats.
 */
double
parseRate(const std::string &spec, const std::string &tok)
{
    std::size_t point = tok.find('.');
    bool plain =
        tok.find_first_not_of("0123456789.") == std::string::npos &&
        tok.find_first_of("0123456789") != std::string::npos &&
        (point == std::string::npos ||
         tok.find('.', point + 1) == std::string::npos);
    double rate = plain ? std::strtod(tok.c_str(), nullptr) : -1.0;
    if (!(rate >= 0.0 && rate <= 1.0))
        fatal("FS_FAULTS \"%s\": rate \"%s\" must be a plain "
              "decimal probability in [0,1]", spec.c_str(),
              tok.c_str());
    return rate;
}

std::atomic<const FaultInjector *> g_active{nullptr};
std::atomic<bool> g_initialized{false};

/**
 * Every injector ever installed, kept alive for the whole process:
 * a worker thread from an earlier sweep could still hold the raw
 * pointer, so retirement must not free it. Ownership lives here so
 * leak checkers see reachable memory, not leaks.
 */
const FaultInjector *
retain(std::unique_ptr<const FaultInjector> fi)
{
    static std::mutex mu;
    static std::vector<std::unique_ptr<const FaultInjector>> retired;
    std::lock_guard<std::mutex> lock(mu);
    retired.push_back(std::move(fi));
    return retired.back().get();
}

/**
 * Armed `cell=N:corrupt*` target. Thread-local: the fault point and
 * the cell body run on the same worker thread, so arming cannot
 * cross cells running concurrently on other workers.
 */
thread_local FaultInjector::CorruptTarget t_corruptArmed =
    FaultInjector::CorruptTarget::None;

} // namespace

FaultInjector
FaultInjector::parse(const std::string &spec)
{
    FaultInjector fi;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t sep = spec.find(';', pos);
        if (sep == std::string::npos)
            sep = spec.size();
        std::string clause = spec.substr(pos, sep - pos);
        pos = sep + 1;
        if (clause.empty())
            continue;

        std::size_t eq = clause.find('=');
        std::size_t colon = clause.find(':');
        if (eq == std::string::npos || colon == std::string::npos ||
            colon < eq) {
            fatal("FS_FAULTS \"%s\": clause \"%s\" is not "
                  "key=value:action", spec.c_str(), clause.c_str());
        }
        std::string key = clause.substr(0, eq);
        std::string value = clause.substr(eq + 1, colon - eq - 1);
        std::string action = clause.substr(colon + 1);

        Clause c;
        if (key == "cell") {
            c.byRate = false;
            c.cell = static_cast<std::size_t>(parseIndex(
                spec, value, "cell index",
                std::numeric_limits<std::size_t>::max()));
        } else if (key == "rate") {
            c.byRate = true;
            c.rate = parseRate(spec, value);
        } else {
            fatal("FS_FAULTS \"%s\": unknown key \"%s\" (want cell "
                  "or rate)", spec.c_str(), key.c_str());
        }

        std::size_t star = action.find('*');
        if (star != std::string::npos) {
            c.attempts = static_cast<unsigned>(parseIndex(
                spec, action.substr(star + 1), "attempt count",
                std::numeric_limits<unsigned>::max()));
            action = action.substr(0, star);
        }
        if (action == "throw") {
            c.kind = Kind::Throw;
        } else if (action == "hang") {
            c.kind = Kind::Hang;
        } else if (action == "transient") {
            c.kind = Kind::Transient;
        } else if (action == "corrupt") {
            c.kind = Kind::Corrupt;
        } else if (action == "corrupt-treap") {
            c.kind = Kind::CorruptRankIndex;
        } else if (action == "corrupt-occ") {
            c.kind = Kind::CorruptOcc;
        } else {
            fatal("FS_FAULTS \"%s\": unknown action \"%s\" (want "
                  "throw, hang, transient, corrupt, corrupt-treap, "
                  "or corrupt-occ)",
                  spec.c_str(), action.c_str());
        }
        if (c.kind != Kind::Transient && star != std::string::npos)
            fatal("FS_FAULTS \"%s\": only transient takes an "
                  "attempt count", spec.c_str());
        if (c.kind == Kind::Transient && c.attempts == 0)
            fatal("FS_FAULTS \"%s\": transient*0 never fires",
                  spec.c_str());
        if (c.byRate && c.kind != Kind::Transient)
            fatal("FS_FAULTS \"%s\": rate= supports only transient",
                  spec.c_str());
        fi.clauses_.push_back(c);
    }
    return fi;
}

const FaultInjector *
FaultInjector::active()
{
    if (!g_initialized.load(std::memory_order_acquire)) {
        // First use: adopt FS_FAULTS. Races here are benign — both
        // winners parse the same environment value; the loser's
        // injector leaks (one small allocation, process lifetime).
        const char *env = std::getenv("FS_FAULTS");
        const FaultInjector *fi = nullptr;
        if (env != nullptr && *env != '\0') {
            auto parsed =
                std::make_unique<const FaultInjector>(parse(env));
            if (!parsed->empty())
                fi = retain(std::move(parsed));
        }
        g_active.store(fi, std::memory_order_release);
        g_initialized.store(true, std::memory_order_release);
    }
    return g_active.load(std::memory_order_acquire);
}

void
FaultInjector::installForTest(const std::string &spec)
{
    const FaultInjector *fi = nullptr;
    if (!spec.empty()) {
        auto parsed =
            std::make_unique<const FaultInjector>(parse(spec));
        if (!parsed->empty())
            fi = retain(std::move(parsed));
    }
    // The previous injector stays alive in the retain() registry: a
    // worker thread from an earlier sweep could still hold it.
    g_active.store(fi, std::memory_order_release);
    g_initialized.store(true, std::memory_order_release);
}

FaultInjector::CorruptTarget
FaultInjector::consumeArmedCorruption()
{
    CorruptTarget armed = t_corruptArmed;
    t_corruptArmed = CorruptTarget::None;
    return armed;
}

void
FaultInjector::fire(std::size_t cell, unsigned attempt) const
{
    // A corruption armed for a previous cell on this worker that
    // was never consumed (the cell ran too few accesses) must not
    // leak into this one.
    t_corruptArmed = CorruptTarget::None;
    for (const Clause &c : clauses_) {
        if (c.byRate) {
            // Deterministic per-cell coin: same cells fail in every
            // run, independent of scheduling.
            double u = static_cast<double>(
                           mix64(static_cast<std::uint64_t>(cell) ^
                                 kRateSalt) >>
                           11) *
                       0x1.0p-53;
            if (u >= c.rate || attempt >= c.attempts)
                continue;
            throw TransientError(strprintf(
                "injected transient fault (rate=%g) at cell %zu "
                "attempt %u", c.rate, cell, attempt));
        }
        if (c.cell != cell)
            continue;
        switch (c.kind) {
          case Kind::Throw:
            throw FsError(strprintf(
                "injected permanent fault at cell %zu", cell));
          case Kind::Corrupt:
            // Silent by design: arm only; PartitionedCache damages
            // the targeted structure when it consumes the flag
            // mid-cell.
            t_corruptArmed = CorruptTarget::AddrIndex;
            break;
          case Kind::CorruptRankIndex:
            t_corruptArmed = CorruptTarget::RankIndex;
            break;
          case Kind::CorruptOcc:
            t_corruptArmed = CorruptTarget::Occupancy;
            break;
          case Kind::Transient:
            if (attempt < c.attempts)
                throw TransientError(strprintf(
                    "injected transient fault at cell %zu attempt "
                    "%u", cell, attempt));
            break;
          case Kind::Hang:
            // Cooperative wedge: spins until the watchdog deadline
            // (or an explicit cancel) reaps it. Refuse to hang with
            // no cancellation scope installed — that would be an
            // unreapable deadlock, which is what this framework
            // exists to prevent.
            if (detail::currentCancelState() == nullptr)
                throw FsError(strprintf(
                    "injected hang at cell %zu outside a "
                    "cancellation scope (set FS_CELL_TIMEOUT_MS and "
                    "run under the cell guard)", cell));
            while (true) {
                pollCancellation();
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            }
        }
    }
}

} // namespace fscache
