#include "runner/cell_guard.hh"

#include <chrono>
#include <thread>

#include "common/log.hh"

namespace fscache
{

const char *
cellStatusName(CellStatus status)
{
    switch (status) {
      case CellStatus::Ok:
        return "ok";
      case CellStatus::Failed:
        return "failed";
      case CellStatus::TimedOut:
        return "timed-out";
    }
    return "?";
}

const char *
errorClassName(ErrorClass cls)
{
    switch (cls) {
      case ErrorClass::None:
        return "none";
      case ErrorClass::Transient:
        return "transient";
      case ErrorClass::Permanent:
        return "permanent";
      case ErrorClass::Timeout:
        return "timeout";
      case ErrorClass::Corruption:
        return "corruption";
    }
    return "?";
}

std::string
failureLabel(ErrorClass cls)
{
    return errorClassName(cls);
}

namespace detail
{

std::uint64_t
guardNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
backoffBeforeRetry(std::uint64_t base_ms, unsigned attempt)
{
    if (base_ms == 0)
        return;
    std::uint64_t ms = base_ms << (attempt - 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

} // namespace detail

CellGuardConfig
CellGuardConfig::fromEnv()
{
    CellGuardConfig cfg;
    cfg.timeoutMs = cellTimeoutMsFromEnv();
    return cfg;
}

std::string
renderManifest(const std::vector<ManifestEntry> &entries)
{
    std::string out;
    out += strprintf("quarantined cells: %zu\n", entries.size());
    for (const ManifestEntry &e : entries) {
        std::string cls = failureLabel(e.errorClass);
        out += strprintf("  cell %zu: %s [%s, %u attempt%s] %s\n",
                         e.cell, cellStatusName(e.status),
                         cls.c_str(), e.attempts,
                         e.attempts == 1 ? "" : "s",
                         e.error.c_str());
        if (e.detail.empty())
            continue;
        // Corruption reports are multi-line; indent them under the
        // entry so the manifest stays one-entry-per-cell scannable.
        std::size_t pos = 0;
        while (pos < e.detail.size()) {
            std::size_t nl = e.detail.find('\n', pos);
            if (nl == std::string::npos)
                nl = e.detail.size();
            out += strprintf("      %.*s\n",
                             static_cast<int>(nl - pos),
                             e.detail.c_str() + pos);
            pos = nl + 1;
        }
    }
    return out;
}

} // namespace fscache
