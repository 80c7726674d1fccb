/**
 * @file
 * Ideal random-candidates array: every replacement draws R distinct
 * uniformly random slots.
 *
 * This is the paper's analytical cache model made executable (the
 * Uniformity Assumption holds by construction); Sections IV.C/IV.D
 * run exactly this array with R = 16.
 */

#ifndef FSCACHE_CACHE_RANDOM_CANDS_ARRAY_HH
#define FSCACHE_CACHE_RANDOM_CANDS_ARRAY_HH

#include "cache/cache_array.hh"
#include "common/random.hh"

namespace fscache
{

/** See file comment. */
class RandomCandsArray : public CacheArray
{
  public:
    /**
     * @param num_lines total slots (must be > candidates)
     * @param candidates R, distinct slots per replacement
     * @param rng sampling stream
     */
    RandomCandsArray(LineId num_lines, std::uint32_t candidates,
                     Rng rng);

    std::uint32_t candidateCount() const override
    { return candidates_; }

    void collectCandidates(Addr addr,
                           std::vector<LineId> &out) override;

    std::string name() const override;

  private:
    std::uint32_t candidates_;
    Rng rng_;
};

} // namespace fscache

#endif // FSCACHE_CACHE_RANDOM_CANDS_ARRAY_HH
