/**
 * @file
 * Deterministic, cheap pseudo-random number generation.
 *
 * Every stochastic component in fscache (trace generators, hash
 * function families, candidate sampling) draws from
 * an explicitly seeded Rng so that simulations are reproducible
 * bit-for-bit. The generator is xoshiro256** seeded through
 * SplitMix64, which is both much faster than std::mt19937_64 and has
 * no measurable bias for the stream lengths used here.
 */

#ifndef FSCACHE_COMMON_RANDOM_HH
#define FSCACHE_COMMON_RANDOM_HH

#include <cstdint>

#include "common/log.hh"

namespace fscache
{

/** One step of the SplitMix64 sequence (also usable as a mixer). */
inline std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Stateless SplitMix64 finalizer: mixes x into a well-spread value.
 *  Inline: this sits under every tag-store probe. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    return splitMix64(x);
}

/**
 * xoshiro256** pseudo-random generator.
 *
 * Satisfies the UniformRandomBitGenerator requirements so it can also
 * feed <random> distributions where convenient, but the member
 * helpers below avoid that machinery on hot paths.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Seed via SplitMix64 so any 64-bit seed gives a good state. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Re-seed in place. */
    void seed(std::uint64_t seed);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ull; }

    /** Next raw 64-bit value. */
    std::uint64_t operator()();

    /** Uniform integer in [0, bound). bound must be > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        fs_assert(bound > 0, "below(0) is meaningless");
        // Lemire's multiply-shift rejection method (unbiased).
        std::uint64_t x = (*this)();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < bound) {
            std::uint64_t threshold = (-bound) % bound;
            while (lo < threshold) {
                x = (*this)();
                m = static_cast<__uint128_t>(x) * bound;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        fs_assert(lo <= hi, "bad range");
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with success probability p. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Fork an independent child stream.
     *
     * Children seeded with distinct tags are statistically
     * independent of the parent and of each other; used to hand each
     * trace generator / hash family its own stream.
     */
    Rng fork(std::uint64_t tag);

  private:
    std::uint64_t s_[4];
};

} // namespace fscache

#endif // FSCACHE_COMMON_RANDOM_HH
