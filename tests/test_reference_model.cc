/**
 * @file
 * Differential test against a brute-force reference simulator.
 *
 * The reference restates the replacement semantics with naive data
 * structures (per-set vectors, futility by sorting timestamps) for
 * a set-associative array + exact LRU ranking under the
 * Unpartitioned, PF and analytic-FS schemes. Every access's
 * hit/miss outcome and every victim must match PartitionedCache
 * exactly over long random traffic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "partition/futility_scaling_analytic.hh"
#include "sim/experiment.hh"

namespace fscache
{
namespace
{

/** Naive set-associative cache with exact LRU futility. */
class ReferenceCache
{
  public:
    enum class Policy
    {
        Unpartitioned,
        PF,
        Fs,
    };

    ReferenceCache(std::uint32_t sets, std::uint32_t ways,
                   std::uint32_t parts, Policy policy,
                   std::vector<double> alphas = {})
        : sets_(sets), ways_(ways), policy_(policy),
          alphas_(std::move(alphas)), targets_(parts, 0),
          sizes_(parts, 0), store_(sets)
    {
    }

    void setTarget(PartId p, std::uint32_t lines)
    { targets_[p] = lines; }

    struct Outcome
    {
        bool hit = false;
        bool evicted = false;
        Addr victimAddr = kInvalidAddr;
    };

    Outcome
    access(PartId part, Addr addr)
    {
        Outcome out;
        auto &set = store_[addr % sets_];
        for (Entry &e : set) {
            if (e.addr == addr) {
                e.lastUse = ++clock_;
                out.hit = true;
                return out;
            }
        }
        // Miss; free way?
        if (set.size() < ways_) {
            set.push_back({addr, part, ++clock_});
            ++sizes_[part];
            return out;
        }
        // Evict per policy.
        std::size_t victim = pickVictim(set, part);
        out.evicted = true;
        out.victimAddr = set[victim].addr;
        --sizes_[set[victim].part];
        set[victim] = {addr, part, ++clock_};
        ++sizes_[part];
        return out;
    }

  private:
    struct Entry
    {
        Addr addr;
        PartId part;
        std::uint64_t lastUse;
    };

    /** Exact normalized futility of entry e: rank/size within its
     *  partition, computed by brute force over the whole cache. */
    double
    futility(const Entry &e) const
    {
        std::uint32_t older = 0, total = 0;
        for (const auto &set : store_) {
            for (const Entry &o : set) {
                if (o.part != e.part)
                    continue;
                ++total;
                if (o.lastUse >= e.lastUse)
                    ++older; // rank = # of at-least-as-useful lines
            }
        }
        return static_cast<double>(older) / total;
    }

    std::size_t
    pickVictim(const std::vector<Entry> &set, PartId incoming) const
    {
        (void)incoming;
        switch (policy_) {
          case Policy::Unpartitioned: {
            // Largest futility; with exact LRU inside a set this is
            // simply the least recently used candidate... except
            // futility is per-partition rank, so compute it.
            std::size_t best = 0;
            double best_fut = -1.0;
            for (std::size_t i = 0; i < set.size(); ++i) {
                double f = futility(set[i]);
                if (f > best_fut) {
                    best_fut = f;
                    best = i;
                }
            }
            return best;
          }
          case Policy::PF: {
            double max_over = -1e300;
            PartId chosen = kInvalidPart;
            for (const Entry &e : set) {
                double over = static_cast<double>(sizes_[e.part]) -
                              static_cast<double>(targets_[e.part]);
                if (over > max_over) {
                    max_over = over;
                    chosen = e.part;
                }
            }
            std::size_t best = 0;
            double best_fut = -1.0;
            for (std::size_t i = 0; i < set.size(); ++i) {
                if (set[i].part != chosen)
                    continue;
                double f = futility(set[i]);
                if (f > best_fut) {
                    best_fut = f;
                    best = i;
                }
            }
            return best;
          }
          case Policy::Fs:
          default: {
            std::size_t best = 0;
            double best_scaled = -1.0;
            for (std::size_t i = 0; i < set.size(); ++i) {
                double scaled =
                    futility(set[i]) * alphas_[set[i].part];
                if (scaled > best_scaled) {
                    best_scaled = scaled;
                    best = i;
                }
            }
            return best;
          }
        }
    }

    std::uint32_t sets_;
    std::uint32_t ways_;
    Policy policy_;
    std::vector<double> alphas_;
    std::vector<std::uint32_t> targets_;
    std::vector<std::uint32_t> sizes_;
    std::vector<std::vector<Entry>> store_;
    std::uint64_t clock_ = 0;
};

void
differentialRun(SchemeKind scheme, ReferenceCache::Policy policy,
                std::vector<double> alphas, std::uint64_t seed)
{
    constexpr std::uint32_t kSets = 8;
    constexpr std::uint32_t kWays = 4;
    constexpr std::uint32_t kParts = 2;

    CacheSpec spec;
    spec.array.kind = ArrayKind::SetAssoc;
    spec.array.numLines = kSets * kWays;
    spec.array.ways = kWays;
    spec.array.hash = HashKind::Modulo; // match reference indexing
    spec.ranking = RankKind::ExactLru;
    spec.scheme.kind = scheme;
    spec.numParts = kParts;
    auto cache = buildCache(spec);
    cache->setTargets({16, 16});

    if (scheme == SchemeKind::FsAnalytic) {
        auto &fs =
            dynamic_cast<FutilityScalingAnalytic &>(cache->scheme());
        for (PartId p = 0; p < kParts; ++p)
            fs.setScalingFactor(p, alphas[p]);
    }

    ReferenceCache ref(kSets, kWays, kParts, policy, alphas);
    ref.setTarget(0, 16);
    ref.setTarget(1, 16);

    Rng rng(seed);
    for (int i = 0; i < 30000; ++i) {
        auto part = static_cast<PartId>(rng.below(kParts));
        // Small address pool so sets fill and contend.
        Addr addr = (static_cast<Addr>(part) << 32) | rng.below(96);

        AccessOutcome real = cache->access(part, addr);
        ReferenceCache::Outcome expect = ref.access(part, addr);

        ASSERT_EQ(real.hit, expect.hit) << "access " << i;
        ASSERT_EQ(real.evicted, expect.evicted) << "access " << i;
        if (expect.evicted) {
            // The evicted address must be gone from the real cache.
            ASSERT_EQ(cache->array().lookup(expect.victimAddr),
                      kInvalidLine)
                << "access " << i;
        }
    }
}

TEST(ReferenceModel, UnpartitionedMatches)
{
    differentialRun(SchemeKind::None,
                    ReferenceCache::Policy::Unpartitioned,
                    {1.0, 1.0}, 101);
}

TEST(ReferenceModel, PfMatches)
{
    differentialRun(SchemeKind::PF, ReferenceCache::Policy::PF,
                    {1.0, 1.0}, 202);
}

TEST(ReferenceModel, FsAnalyticMatches)
{
    differentialRun(SchemeKind::FsAnalytic,
                    ReferenceCache::Policy::Fs, {1.0, 2.5}, 303);
}

TEST(ReferenceModel, FsUnityFactorsMatchUnpartitioned)
{
    differentialRun(SchemeKind::FsAnalytic,
                    ReferenceCache::Policy::Unpartitioned,
                    {1.0, 1.0}, 404);
}

} // namespace
} // namespace fscache
