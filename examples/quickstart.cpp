/**
 * @file
 * Quickstart: partition an 8MB shared cache between two synthetic
 * applications with Futility Scaling and inspect the result.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>
#include <iostream>

#include "core/fscache.hh"

using namespace fscache;

int
main()
{
    // 1. Configure a cache: 8MB, 16-way set-associative with XOR
    //    indexing, coarse-timestamp LRU futility ranking, and the
    //    feedback-based Futility Scaling partitioning scheme —
    //    the paper's hardware design.
    CacheSpec spec;
    spec.array.kind = ArrayKind::SetAssoc;
    spec.array.numLines = (8u << 20) / 64; // 64-byte lines
    spec.array.ways = 16;
    spec.array.hash = HashKind::XorFold;
    spec.ranking = RankKind::CoarseTsLru;
    spec.scheme.kind = SchemeKind::Fs;
    spec.numParts = 2;
    spec.seed = 42;
    auto cache = buildCache(spec);

    // 2. Allocate capacity: 75% to partition 0, 25% to partition 1
    //    (any allocation policy from alloc/ produces such targets).
    LineId lines = cache->cacheLines();
    cache->setTargets(proportionalShare(lines, {3.0, 1.0}));

    // 3. Generate a two-thread workload: a reuse-heavy "mcf"-like
    //    thread and a streaming "lbm"-like thread that would
    //    otherwise flood the cache.
    Workload wl = Workload::mix({"mcf", "lbm"}, 400000, 7);

    // 4. Run the trace-driven timing simulation (Table II system).
    TimingSim sim(*cache, wl, TimingConfig{});
    sim.run();

    // 5. Inspect per-partition results.
    std::printf("cache: %u lines, scheme %s, ranking %s\n\n", lines,
                cache->scheme().name().c_str(),
                cache->ranking().name().c_str());

    TablePrinter table({"partition", "benchmark", "target", "mean "
                        "occupancy", "miss ratio", "AEF", "IPC"});
    for (PartId p = 0; p < 2; ++p) {
        table.addRow(
            {strprintf("%u", p), wl.thread(p).benchmark,
             TablePrinter::num(
                 std::uint64_t{cache->scheme().target(p)}),
             TablePrinter::num(cache->deviation(p).meanOccupancy(),
                               1),
             TablePrinter::num(cache->stats(p).missRatio(), 3),
             TablePrinter::num(cache->assocDist(p).aef(), 3),
             TablePrinter::num(sim.perf(p).ipc(), 3)});
    }
    table.print(std::cout);

    std::printf("\nDespite lbm's much higher insertion rate, FS "
                "holds each partition at its target while keeping "
                "eviction futility high (AEF near 1 = evictions "
                "hit useless lines).\n");
    return 0;
}
