/**
 * @file
 * Experiment harness helpers shared by tests, benches and examples:
 * cache assembly from a single spec, untimed workload drivers, the
 * paper's insertion-rate-controlled driver (Section IV.C: "the
 * insertion rate of each partition is controlled by adjusting the
 * speed of the trace feeding").
 */

#ifndef FSCACHE_SIM_EXPERIMENT_HH
#define FSCACHE_SIM_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/array_factory.hh"
#include "common/random.hh"
#include "partition/scheme_factory.hh"
#include "ranking/ranking_factory.hh"
#include "sim/partitioned_cache.hh"
#include "trace/trace_source.hh"
#include "trace/workload.hh"

namespace fscache
{

/** Everything needed to assemble a PartitionedCache. */
struct CacheSpec
{
    ArrayConfig array;
    RankKind ranking = RankKind::CoarseTsLru;
    SchemeConfig scheme;
    std::uint32_t numParts = 1;
    std::uint64_t seed = 1;
};

/** Assemble array + ranking + scheme into a cache. */
std::unique_ptr<PartitionedCache> buildCache(const CacheSpec &spec);

/**
 * Drive a workload through the cache untimed, round-robin one
 * access per thread per turn (thread i uses partition i). Stats are
 * reset once `warmup_fraction` of all accesses have been issued.
 */
void runUntimed(PartitionedCache &cache, const Workload &workload,
                double warmup_fraction = 0.2);

/**
 * Drive live generators so that each partition's share of
 * *insertions* (misses) matches `insertion_probs` — the paper's
 * Section IV methodology for Figures 4 and 5. Each step draws a
 * partition from the distribution and feeds its generator until it
 * produces one miss.
 *
 * @param cache target (numPartitions >= sources.size())
 * @param sources one infinite generator per partition
 * @param insertion_probs per-partition insertion fractions (sum ~1;
 *        individual entries may be 0 to model an idle partition)
 * @param total_insertions misses to simulate after warmup
 * @param warmup_insertions misses before stats reset
 * @param seed partition-draw stream seed
 * @param prefill_probs if non-null, fill the empty cache with
 *        insertions drawn from these fractions (typically the
 *        target size fractions) before switching to
 *        insertion_probs; otherwise the fill leaves occupancies
 *        proportional to the insertion rates and reaching the
 *        targets costs a long drift
 */
void driveByInsertionRate(PartitionedCache &cache,
                          std::vector<std::unique_ptr<TraceSource>>
                              &sources,
                          const std::vector<double> &insertion_probs,
                          std::uint64_t total_insertions,
                          std::uint64_t warmup_insertions,
                          std::uint64_t seed,
                          const std::vector<double> *prefill_probs =
                              nullptr);

} // namespace fscache

#endif // FSCACHE_SIM_EXPERIMENT_HH
