#include "common/fault_injection.hh"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "common/log.hh"

namespace fscache
{

namespace
{

/**
 * Full-token decimal cell index. Only digits are accepted: strtoull
 * alone would wrap "-1" to a cell that never runs, silently
 * disarming the fault.
 */
std::size_t
parseCell(const std::string &spec, const std::string &tok)
{
    if (tok.empty() ||
        tok.find_first_not_of("0123456789") != std::string::npos)
        fatal("FS_FAULTS \"%s\": bad cell index \"%s\"", spec.c_str(),
              tok.c_str());
    errno = 0;
    unsigned long long v = std::strtoull(tok.c_str(), nullptr, 10);
    if (errno == ERANGE || v > std::numeric_limits<std::size_t>::max())
        fatal("FS_FAULTS \"%s\": cell index \"%s\" is out of range "
              "(at most %zu)", spec.c_str(), tok.c_str(),
              std::numeric_limits<std::size_t>::max());
    return static_cast<std::size_t>(v);
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
        if (key != "cell")
            fatal("FS_FAULTS \"%s\": unknown key \"%s\" (want cell)",
                  spec.c_str(), key.c_str());

        Clause c;
        c.cell = parseCell(spec, value);
        if (action == "corrupt") {
            c.target = CorruptTarget::Lookup;
        } else if (action == "corrupt-rank") {
            c.target = CorruptTarget::RankIndex;
        } else if (action == "corrupt-occ") {
            c.target = CorruptTarget::Occupancy;
        } else {
            fatal("FS_FAULTS \"%s\": unknown action \"%s\" (want "
                  "corrupt, corrupt-rank, or corrupt-occ)",
                  spec.c_str(), action.c_str());
        }
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
FaultInjector::rearm(CorruptTarget target)
{
    t_corruptArmed = target;
}

void
FaultInjector::fire(std::size_t cell) const
{
    // A corruption armed for a previous cell on this worker that
    // was never consumed (the cell ran too few accesses) must not
    // leak into this one. Silent by design: PartitionedCache damages
    // the targeted structure when it consumes the flag mid-cell.
    t_corruptArmed = CorruptTarget::None;
    for (const Clause &c : clauses_)
        if (c.cell == cell)
            t_corruptArmed = c.target;
}

} // namespace fscache
