#include "cache/cache_array.hh"

#include "common/log.hh"

namespace fscache
{

CacheArray::CacheArray(LineId num_lines, bool unrestricted)
    : tags_(num_lines, unrestricted)
{
}

std::string
CacheArray::auditInvariants() const
{
    std::string err = tags_.auditInvariants();
    if (!err.empty())
        return "tag store: " + err;
    for (LineId id = 0; id < numLines(); ++id) {
        const Line &l = tags_.line(id);
        if (!l.valid)
            continue;
        LineId found = lookup(l.addr);
        if (found == id)
            continue;
        std::string got = found == kInvalidLine
                              ? std::string("no line")
                              : strprintf("line %u", found);
        return strprintf("lookup: valid line %u (addr %llu) is not "
                         "found at its slot (lookup gives %s)", id,
                         static_cast<unsigned long long>(l.addr),
                         got.c_str());
    }
    return std::string();
}

LineId
CacheArray::corruptLookupForFaultInjection()
{
    // An index never finds a rewritten address, so an unrestricted
    // array takes the first non-resident one. A restricted array
    // finds it at `id` only if `id` is one of its home slots: a
    // chance of at most 1/2 per address with two sets or more, and
    // a certainty with one set, where the search gives up.
    constexpr int kTries = 64;
    for (LineId id = 0; id < numLines(); ++id) {
        if (!tags_.line(id).valid)
            continue;
        const Addr original = tags_.line(id).addr;
        Addr moved = original;
        for (int tries = 0; tries < kTries;) {
            ++moved;
            if (moved == kInvalidAddr || lookup(moved) != kInvalidLine)
                continue;
            ++tries;
            tags_.rewriteAddrForFaultInjection(id, moved);
            if (lookup(moved) != id)
                return id;
        }
        tags_.rewriteAddrForFaultInjection(id, original);
        return kInvalidLine;
    }
    return kInvalidLine;
}

} // namespace fscache
