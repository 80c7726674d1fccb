#include "cache/cache_array.hh"

#include "common/log.hh"

namespace fscache
{

CacheArray::CacheArray(LineId num_lines, bool indexed)
    : tags_(num_lines, indexed)
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
    return tags_.corruptAddrIndexForFaultInjection();
}

} // namespace fscache
