#include "cache/random_cands_array.hh"

#include "common/log.hh"

namespace fscache
{

RandomCandsArray::RandomCandsArray(LineId num_lines,
                                   std::uint32_t candidates, Rng rng)
    : CacheArray(num_lines, /*unrestricted=*/true),
      candidates_(candidates), rng_(rng)
{
    fs_assert(candidates >= 1, "need at least one candidate");
    fs_assert(num_lines >= candidates * 2,
              "cache too small for %u distinct candidates", candidates);
}

void
RandomCandsArray::collectCandidates(Addr addr, std::vector<LineId> &out)
{
    (void)addr;
    out.clear();
    // R distinct draws; R << numLines, so rejection is cheap.
    while (out.size() < candidates_) {
        auto slot = static_cast<LineId>(rng_.below(numLines()));
        bool dup = false;
        for (LineId existing : out) {
            if (existing == slot) {
                dup = true;
                break;
            }
        }
        if (!dup)
            // `out` is the caller's reused candidate buffer; capacity
            // reaches its high-water mark (= candidates_) after the
            // first few misses (witness: tests/test_hot_alloc.cc).
            out.push_back(slot);
    }
}

std::string
RandomCandsArray::name() const
{
    return strprintf("random-%uc", candidates_);
}

} // namespace fscache
