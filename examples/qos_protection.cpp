/**
 * @file
 * QoS protection — the scenario that motivates the paper's
 * introduction: a latency-critical, associativity-sensitive
 * application (gromacs) sharing a 32-core CMP's cache with many
 * memory-intensive background threads (lbm).
 *
 * We run the same mix three ways:
 *   1. unpartitioned shared cache (no isolation),
 *   2. Futility Scaling with a 256KB guarantee for the subject,
 *   3. static way-partitioning (the placement-based baseline).
 *
 * Expected: unpartitioned sharing lets lbm flood the cache and the
 * subject's occupancy/IPC collapse; FS restores the guarantee at
 * full associativity; way partitioning isolates but throttles the
 * subject to a couple of physical ways.
 */

#include <cstdio>
#include <iostream>

#include "core/fscache.hh"

using namespace fscache;

namespace
{

constexpr std::uint32_t kThreads = 8;
constexpr LineId kLines = 32768; // 2MB shared L2
constexpr std::uint32_t kSubjectLines = 4096;

struct RunResult
{
    double occupancy;
    double missRatio;
    double ipc;
};

RunResult
run(SchemeKind scheme, const Workload &wl)
{
    CacheSpec spec;
    spec.array.kind = ArrayKind::SetAssoc;
    spec.array.numLines = kLines;
    spec.array.ways = 16;
    spec.array.hash = HashKind::XorFold;
    spec.ranking = RankKind::CoarseTsLru;
    spec.scheme.kind = scheme;
    spec.numParts = kThreads;
    spec.seed = 3;
    auto cache = buildCache(spec);
    cache->setTargets(qosAllocation(kLines, kThreads, 1,
                                    kSubjectLines));

    TimingSim sim(*cache, wl, TimingConfig{});
    sim.run();
    return {cache->deviation(0).meanOccupancy(),
            cache->stats(0).missRatio(), sim.perf(0).ipc()};
}

} // namespace

int
main()
{
    std::printf("QoS protection: 1 gromacs subject (256KB "
                "guarantee) vs %u lbm background threads, 2MB "
                "shared L2\n\n", kThreads - 1);

    std::vector<std::string> mix{"gromacs"};
    for (std::uint32_t t = 1; t < kThreads; ++t)
        mix.push_back("lbm");
    Workload wl = Workload::mix(mix, 300000, 11);

    TablePrinter table({"scheme", "subject occupancy (lines)",
                        "subject miss ratio", "subject IPC"});
    struct Entry
    {
        const char *name;
        SchemeKind kind;
    };
    for (const Entry &e :
         {Entry{"unpartitioned", SchemeKind::None},
          Entry{"futility scaling", SchemeKind::Fs},
          Entry{"way partitioning", SchemeKind::WayPart}}) {
        RunResult r = run(e.kind, wl);
        table.addRow({e.name, TablePrinter::num(r.occupancy, 1),
                      TablePrinter::num(r.missRatio, 3),
                      TablePrinter::num(r.ipc, 3)});
    }
    table.print(std::cout);

    std::printf("\nTarget occupancy for the subject is %u lines. "
                "Unregulated sharing lets the streaming threads "
                "evict the subject's working set; FS enforces the "
                "guarantee by scaling the background partitions' "
                "futility.\n", kSubjectLines);
    return 0;
}
