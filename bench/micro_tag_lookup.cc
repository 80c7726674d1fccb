/**
 * @file
 * Microbenchmark: the tag-lookup path (google-benchmark).
 *
 * CacheArray::lookup() runs once per simulated access. How it finds
 * a line follows from where the array may place one: a 16-way
 * set-associative array (the paper's main L2) scans the address's
 * set, a zcache probes its H level-1 slots, and a fully-associative
 * array asks the tag store's flat address index (docs/PERF.md). The
 * benches fill each array through PartitionedCache::access, so every
 * line sits where its array put it, then measure lookups that hit
 * and lookups that miss, over footprints from cache-resident to
 * DRAM-resident.
 */

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "sim/experiment.hh"

using namespace fscache;

namespace
{

/**
 * The array of a cache of `lines` slots on `kind`, after 4 * lines
 * accesses to random addresses. Built once per (kind, lines):
 * google-benchmark calls a bench function several times while it
 * sizes the run, and a zcache fill of 256K lines takes seconds.
 */
const CacheArray &
filledArray(ArrayKind kind, LineId lines)
{
    static std::map<std::pair<ArrayKind, LineId>,
                    std::unique_ptr<PartitionedCache>>
        caches;
    std::unique_ptr<PartitionedCache> &cache = caches[{kind, lines}];
    if (!cache) {
        CacheSpec spec;
        spec.array.kind = kind;
        spec.array.numLines = lines;
        spec.ranking = RankKind::ExactLru;
        spec.scheme.kind = SchemeKind::None;
        cache = buildCache(spec);
        cache->setTargets({lines});
        Rng rng(42);
        for (LineId i = 0; i < 4 * lines; ++i)
            cache->access(0, rng() >> 8); // 56 bits of address space
    }
    return cache->array();
}

void
benchLookupHit(benchmark::State &state, ArrayKind kind)
{
    auto lines = static_cast<LineId>(state.range(0));
    const CacheArray &array = filledArray(kind, lines);
    Rng rng(43);

    // Visit resident addresses in a shuffled order so the probe
    // sequence, not one cached slot, is measured.
    std::vector<Addr> addrs;
    for (LineId id = 0; id < lines; ++id)
        if (array.tags().line(id).valid)
            addrs.push_back(array.tags().line(id).addr);
    for (std::size_t i = addrs.size(); i > 1; --i)
        std::swap(addrs[i - 1], addrs[rng.below(i)]);

    std::size_t cursor = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(array.lookup(addrs[cursor]));
        if (++cursor == addrs.size())
            cursor = 0;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

void
benchLookupMiss(benchmark::State &state, ArrayKind kind)
{
    auto lines = static_cast<LineId>(state.range(0));
    const CacheArray &array = filledArray(kind, lines);

    // Fresh random addresses virtually never collide with the 56-bit
    // resident set, so every lookup misses a full cache.
    Rng probe(44);
    for (auto _ : state)
        benchmark::DoNotOptimize(array.lookup(probe() >> 8));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

void
lookupSizes(benchmark::internal::Benchmark *b)
{
    b->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 18);
}

} // namespace

BENCHMARK_CAPTURE(benchLookupHit, setassoc_16w, ArrayKind::SetAssoc)
    ->Apply(lookupSizes);
BENCHMARK_CAPTURE(benchLookupHit, zcache_4b, ArrayKind::ZCache)
    ->Apply(lookupSizes);
BENCHMARK_CAPTURE(benchLookupHit, fullyassoc, ArrayKind::FullyAssoc)
    ->Apply(lookupSizes);
BENCHMARK_CAPTURE(benchLookupMiss, setassoc_16w, ArrayKind::SetAssoc)
    ->Apply(lookupSizes);
BENCHMARK_CAPTURE(benchLookupMiss, zcache_4b, ArrayKind::ZCache)
    ->Apply(lookupSizes);
BENCHMARK_CAPTURE(benchLookupMiss, fullyassoc, ArrayKind::FullyAssoc)
    ->Apply(lookupSizes);

BENCHMARK_MAIN();
