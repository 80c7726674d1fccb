/**
 * @file
 * Figure 6: associativity sensitivity of the modeled benchmarks —
 * speedup of a fully-associative cache over a direct-mapped cache
 * of the same size, for sizes 128KB..8MB, under (a) OPT and
 * (b) LRU futility ranking.
 *
 * Expected shape (paper Section VI):
 *  - mcf: large speedups under OPT at every size;
 *  - gromacs: sensitive below ~1MB, negligible above;
 *  - lbm: insensitive everywhere (streaming);
 *  - LRU shrinks everyone's sensitivity vs OPT; cactusADM can even
 *    lose performance from more associativity under LRU.
 */

#include <iostream>
#include <vector>

#include "bench_util.hh"

using namespace fscache;

namespace
{

double
runIpc(const Workload &wl, ArrayKind array, RankKind rank,
       LineId lines)
{
    CacheSpec spec;
    spec.array.kind = array;
    spec.array.numLines = lines;
    spec.array.hash = HashKind::XorFold;
    spec.ranking = rank;
    spec.scheme.kind = SchemeKind::None;
    spec.numParts = 1;
    spec.seed = 3;
    auto cache = buildCache(spec);
    cache->setTarget(0, lines);

    TimingConfig cfg;
    cfg.warmupFraction = 0.3;
    TimingSim sim(*cache, wl, cfg);
    sim.run();
    return sim.perf(0).ipc();
}

} // namespace

int
main()
{
    bench::banner("Figure 6",
                  "Speedup of fully-associative over direct-mapped "
                  "caches, 128KB..8MB, OPT (6a) and LRU (6b) "
                  "rankings");

    const std::vector<std::string> benches{"mcf",    "omnetpp",
                                           "gromacs", "astar",
                                           "cactusadm", "lbm"};
    const std::vector<LineId> sizes{2048, 8192, 16384, 32768,
                                    131072};
    // Long traces matter here: an 8MB cache holds 131072 lines, so
    // short traces would be dominated by compulsory misses that hit
    // both array types equally.
    const std::uint64_t accesses = bench::scaled(1000000);

    // One workload per benchmark, shared read-only by its cells under
    // both rankings (LRU ignores OPT's next-use annotation).
    std::vector<Workload> workloads;
    for (const auto &name : benches) {
        workloads.push_back(Workload::duplicate(name, 1, accesses, 4242));
        workloads.back().annotateNextUse();
    }
    for (RankKind rank : {RankKind::Opt, RankKind::ExactLru}) {
        // Cell (benchmark b, size s) is b * sizes + s.
        auto speedups = bench::runCells(
            "fig6", benches.size() * sizes.size(), [&](std::size_t i) {
                const Workload &wl = workloads[i / sizes.size()];
                LineId lines = sizes[i % sizes.size()];
                return runIpc(wl, ArrayKind::FullyAssoc, rank, lines) /
                       runIpc(wl, ArrayKind::DirectMapped, rank, lines);
            });

        bench::section(rank == RankKind::Opt
                           ? "(a) OPT ranking — speedup FA / DM"
                           : "(b) LRU ranking — speedup FA / DM");
        TablePrinter table({"benchmark", "128KB", "512KB", "1MB",
                            "2MB", "8MB"});
        for (std::size_t b = 0; b < benches.size(); ++b) {
            std::vector<std::string> row{benches[b]};
            for (std::size_t s = 0; s < sizes.size(); ++s)
                row.push_back(TablePrinter::num(
                    speedups[b * sizes.size() + s], 3));
            table.addRow(std::move(row));
        }
        table.print(std::cout);
    }
    std::printf("\nValues > 1 mean the benchmark benefits from "
                "associativity at that size.\n");
    return 0;
}
