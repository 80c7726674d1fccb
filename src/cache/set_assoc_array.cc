#include "cache/set_assoc_array.hh"

#include "common/log.hh"
#include "common/prefetch.hh"

namespace fscache
{

SetAssocArray::SetAssocArray(LineId num_lines, std::uint32_t ways,
                             HashKind hash, std::uint64_t seed)
    : CacheArray(num_lines, /*unrestricted=*/false), ways_(ways)
{
    fs_assert(ways >= 1, "need at least one way");
    fs_assert(num_lines % ways == 0,
              "lines (%u) not divisible by ways (%u)", num_lines, ways);
    hash_ = makeIndexHash(hash, num_lines / ways, seed);
}

void
SetAssocArray::collectCandidates(Addr addr, std::vector<LineId> &out)
{
    out.clear();
    LineId base = setBase(addr);
    for (std::uint32_t w = 0; w < ways_; ++w)
        // `out` is the caller's reused candidate buffer; capacity tops
        // out at ways_ on the first miss (witness:
        // tests/test_hot_alloc.cc).
        out.push_back(base + w);
}

CacheArray::SlotRange
SetAssocArray::prefetch(Addr addr) const
{
    LineId base = setBase(addr);
    prefetchBytes(&tags_.line(base), ways_ * sizeof(Line));
    return {base, ways_};
}

std::string
SetAssocArray::name() const
{
    return strprintf("setassoc-%uw-%s", ways_, hash_->name().c_str());
}

} // namespace fscache
