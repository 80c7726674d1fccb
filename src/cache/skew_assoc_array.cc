#include "cache/skew_assoc_array.hh"

#include "common/log.hh"
#include "common/random.hh"

namespace fscache
{

SkewAssocArray::SkewAssocArray(LineId num_lines, std::uint32_t banks,
                               std::uint32_t ways, std::uint64_t seed)
    : CacheArray(num_lines, /*unrestricted=*/false), banks_(banks),
      ways_(ways), bankLines_(num_lines / banks)
{
    fs_assert(banks >= 1 && ways >= 1, "need banks/ways >= 1");
    fs_assert(num_lines % (banks * ways) == 0,
              "lines (%u) not divisible by banks*ways (%u)", num_lines,
              banks * ways);
    std::uint64_t sets_per_bank = bankLines_ / ways_;
    for (std::uint32_t b = 0; b < banks_; ++b) {
        hashes_.push_back(makeIndexHash(HashKind::H3, sets_per_bank,
                                        mix64(seed) + b));
    }
}

void
SkewAssocArray::collectCandidates(Addr addr, std::vector<LineId> &out)
{
    out.clear();
    for (std::uint32_t b = 0; b < banks_; ++b)
        for (std::uint32_t w = 0; w < ways_; ++w)
            // Caller's reused candidate buffer; high-water = banks_ *
            // ways_.
            out.push_back(slotFor(addr, b, w));
}

std::string
SkewAssocArray::name() const
{
    return strprintf("skew-%ub-%uw", banks_, ways_);
}

} // namespace fscache
