#include "runner/cell_guard.hh"

#include "common/log.hh"

namespace fscache
{

namespace
{

thread_local bool t_inGuardedCell = false;

} // namespace

bool
inGuardedCell()
{
    return t_inGuardedCell;
}

detail::GuardedCellScope::GuardedCellScope()
    : outer_(t_inGuardedCell)
{
    t_inGuardedCell = true;
}

detail::GuardedCellScope::~GuardedCellScope()
{
    t_inGuardedCell = outer_;
}

const char *
errorClassName(ErrorClass cls)
{
    switch (cls) {
      case ErrorClass::None:
        return "none";
      case ErrorClass::Permanent:
        return "permanent";
      case ErrorClass::Corruption:
        return "corruption";
    }
    return "?";
}

std::string
renderManifest(const std::vector<ManifestEntry> &entries)
{
    std::string out;
    out += strprintf("quarantined cells: %zu\n", entries.size());
    for (const ManifestEntry &e : entries) {
        out += strprintf("  cell %zu: failed [%s] %s\n", e.cell,
                         errorClassName(e.errorClass),
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
