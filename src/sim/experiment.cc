#include "sim/experiment.hh"

#include "common/log.hh"
#include "runner/sweep_runner.hh"
#include "trace/benchmark_profiles.hh"
#include "trace/trace_buffer.hh"

namespace fscache
{

std::unique_ptr<PartitionedCache>
buildCache(const CacheSpec &spec)
{
    ArrayConfig acfg = spec.array;
    acfg.seed = spec.seed;
    auto array = makeArray(acfg);

    auto ranking = makeRanking(spec.ranking, array->numLines(),
                               &array->tags(), spec.seed);

    SchemeConfig scfg = spec.scheme;
    if (scfg.kind == SchemeKind::WayPart)
        scfg.ways = acfg.ways;
    auto scheme = makeScheme(scfg);

    return std::make_unique<PartitionedCache>(
        std::move(array), std::move(ranking), std::move(scheme),
        spec.numParts);
}

void
runUntimed(PartitionedCache &cache, const Workload &workload,
           double warmup_fraction)
{
    const std::uint32_t n = workload.threadCount();
    fs_assert(cache.numPartitions() >= n,
              "cache has %u partitions for %u threads",
              cache.numPartitions(), n);

    std::uint64_t total = 0;
    for (std::uint32_t t = 0; t < n; ++t)
        total += workload.thread(t).trace.size();
    auto warmup = static_cast<std::uint64_t>(warmup_fraction * total);

    // One access per non-exhausted thread in thread order, round
    // after round; stats reset after exactly `warmup` issued
    // accesses. After each access the thread's next record, due
    // about a round later, has its cache state prefetched.
    std::vector<std::uint64_t> pos(n, 0);
    std::uint32_t turn = 0;
    for (std::uint64_t issued = 1; issued <= total; ++issued) {
        while (pos[turn] >= workload.thread(turn).trace.size())
            turn = (turn + 1 == n) ? 0 : turn + 1;
        const TraceBuffer &trace = workload.thread(turn).trace;
        const std::uint64_t i = pos[turn]++;
        cache.access(static_cast<PartId>(turn), trace.addr(i),
                     trace.nextUse(i));
        if (pos[turn] < trace.size())
            cache.prefetch(trace.addr(pos[turn]));
        turn = (turn + 1 == n) ? 0 : turn + 1;
        if (issued == warmup)
            cache.resetStats();
    }
}

namespace
{

std::vector<double>
cumulative(const std::vector<double> &probs)
{
    std::vector<double> cum(probs.size(), 0.0);
    double total = 0.0;
    for (double p : probs) {
        fs_assert(p >= 0.0, "probabilities must be >= 0");
        total += p;
    }
    fs_assert(total > 0.0, "probabilities must not all be zero");
    double acc = 0.0;
    for (std::size_t i = 0; i < probs.size(); ++i) {
        acc += probs[i] / total;
        cum[i] = acc;
    }
    cum.back() = 1.0;
    return cum;
}

// Zero-weight entries occupy a zero-width CDF interval
// [cum[i-1], cum[i]) and are therefore never drawn.
std::size_t
draw(const std::vector<double> &cum, Rng &rng)
{
    double u = rng.uniform();
    std::size_t pick = 0;
    while (pick + 1 < cum.size() && u >= cum[pick])
        ++pick;
    return pick;
}

} // namespace

void
driveByInsertionRate(PartitionedCache &cache,
                     std::vector<std::unique_ptr<TraceSource>>
                         &sources,
                     const std::vector<double> &insertion_probs,
                     std::uint64_t total_insertions,
                     std::uint64_t warmup_insertions,
                     std::uint64_t seed,
                     const std::vector<double> *prefill_probs)
{
    const std::size_t n = sources.size();
    fs_assert(n >= 1 && insertion_probs.size() == n,
              "sources/probabilities mismatch");
    fs_assert(cache.numPartitions() >= n,
              "cache has %u partitions for %zu sources",
              cache.numPartitions(), n);

    std::vector<double> cum = cumulative(insertion_probs);

    Rng rng(mix64(seed ^ 0x696e7372ull));

    // Per-source look-ahead buffers refilled via fillBatch: the
    // access stream each partition replays is the same per-source
    // subsequence as calling next() on demand, just pulled ahead of
    // consumption. Over-pulled records only advance generator state
    // past the driver's stopping point, and every caller constructs
    // fresh sources per drive and discards them after, so nothing
    // can observe the difference.
    constexpr std::uint64_t kPullBatch = 256;
    struct SourceBuf
    {
        std::vector<Access> buf;
        std::size_t next = 0;
    };
    std::vector<SourceBuf> bufs(n);
    auto pull = [&](std::size_t pick) -> const Access & {
        SourceBuf &sb = bufs[pick];
        if (sb.next == sb.buf.size()) {
            sb.buf.resize(kPullBatch);
            sources[pick]->fillBatch(sb.buf.data(), kPullBatch);
            sb.next = 0;
        }
        return sb.buf[sb.next++];
    };

    // Feed the chosen partition until it inserts (misses) once.
    auto insert_once = [&](std::size_t pick) {
        while (true) {
            const Access &a = pull(pick);
            AccessOutcome out = cache.access(
                static_cast<PartId>(pick), a.addr, a.nextUse);
            if (!out.hit)
                break;
        }
    };

    if (prefill_probs != nullptr) {
        fs_assert(prefill_probs->size() == n,
                  "prefill/sources mismatch");
        std::vector<double> fill_cum = cumulative(*prefill_probs);
        const TagStore &tags = cache.array().tags();
        // Cap the fill: on restricted-placement arrays the last
        // free slot of a rarely indexed set can take a while.
        std::uint64_t cap = 8ull * cache.cacheLines();
        for (std::uint64_t i = 0; !tags.full() && i < cap; ++i)
            insert_once(draw(fill_cum, rng));
    }

    bool reset = (warmup_insertions == 0);
    if (reset)
        cache.resetStats();

    std::uint64_t goal = warmup_insertions + total_insertions;
    for (std::uint64_t ins = 0; ins < goal; ++ins) {
        insert_once(draw(cum, rng));
        if (!reset && ins + 1 >= warmup_insertions) {
            cache.resetStats();
            reset = true;
        }
    }
}

std::vector<std::uint64_t>
measureMissCurve(const std::string &benchmark,
                 const std::vector<LineId> &sizes_lines,
                 std::uint64_t accesses, RankKind ranking,
                 std::uint64_t seed)
{
    Workload wl = Workload::duplicate(benchmark, 1, accesses, seed);
    if (ranking == RankKind::Opt)
        wl.annotateNextUse();

    // Each size is an independent cell: a private cache (all random
    // state seeded from `seed`) driven by the shared read-only
    // workload, so the parallel sweep is bit-identical to FS_JOBS=1.
    SweepRunner runner;
    return runner.mapResilient(sizes_lines.size(), [&](std::size_t i) {
        CacheSpec spec;
        spec.array.kind = ArrayKind::SetAssoc;
        spec.array.numLines = sizes_lines[i];
        spec.array.ways = 16;
        spec.array.hash = HashKind::XorFold;
        spec.ranking = ranking;
        spec.scheme.kind = SchemeKind::None;
        spec.numParts = 1;
        spec.seed = seed;
        auto cache = buildCache(spec);
        cache->setTarget(0, sizes_lines[i]);
        runUntimed(*cache, wl, 0.2);
        return cache->stats(0).misses;
    }).values();
}

} // namespace fscache
