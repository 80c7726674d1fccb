/**
 * @file
 * Ablation: Vantage's isolation vs the array's candidate count
 * (paper Section VIII.A note: "Vantage could provide a higher
 * degree of isolation on a cache that provides more replacement
 * candidates, e.g. Z4/52 zcache").
 *
 * Forced evictions from the managed region happen when no
 * replacement candidate is unmanaged — probability ~(1 - u)^R. A
 * 16-way set-associative array gives ~18.5% at u = 0.1; a zcache
 * walk with dozens of candidates makes them rare, restoring
 * subject occupancy.
 */

#include <cmath>
#include <iostream>
#include <vector>

#include "qos_common.hh"

using namespace fscache;
using namespace fscache::bench;

namespace
{

struct Result
{
    double forcedRate = 0.0;
    double occupancyFrac = 0.0;
    std::uint32_t nominalR = 0;
};

constexpr std::uint32_t kSubjects = 13;

Result
run(ArrayKind array, std::uint32_t walk_levels, const Workload &wl)
{
    CacheSpec spec;
    spec.array.kind = array;
    spec.array.numLines = kL2Lines;
    spec.array.ways = 16;
    spec.array.hash = HashKind::XorFold;
    spec.array.banks = 4;
    spec.array.walkLevels = walk_levels;
    spec.ranking = RankKind::CoarseTsLru;
    spec.scheme.kind = SchemeKind::Vantage;
    spec.numParts = kThreads;
    spec.seed = 23;
    auto cache = buildCache(spec);
    double managed = cache->scheme().managedFraction();
    cache->setTargets(qosAllocation(
        static_cast<LineId>(kL2Lines * managed), kThreads,
        kSubjects, kSubjectLines));

    runUntimed(*cache, wl, 0.3);

    auto &vantage = dynamic_cast<VantageScheme &>(cache->scheme());
    Result res;
    res.nominalR = cache->array().candidateCount();
    res.forcedRate =
        vantage.replacements()
            ? static_cast<double>(vantage.forcedEvictions()) /
                  vantage.replacements()
            : 0.0;
    for (std::uint32_t p = 0; p < kSubjects; ++p)
        res.occupancyFrac += cache->deviation(p).meanOccupancy() /
                             kSubjectLines;
    res.occupancyFrac /= kSubjects;
    return res;
}

} // namespace

int
main()
{
    bench::banner("Ablation: Vantage vs array candidates",
                  "Forced-eviction rate and subject occupancy, "
                  "16-way set-assoc vs zcache walks (13 subjects)");

    // One workload, shared read-only by every cell.
    const Workload wl =
        Workload::mix(qosMix(kSubjects), bench::scaled(60000), 777);

    TablePrinter table({"array", "nominal R", "(1-u)^R theory",
                        "forced-eviction rate",
                        "subject occupancy/target"});
    struct Config
    {
        const char *name;
        ArrayKind array;
        std::uint32_t levels;
    };
    const std::vector<Config> configs{
        {"setassoc 16-way", ArrayKind::SetAssoc, 1},
        {"zcache 4-bank 1-level", ArrayKind::ZCache, 1},
        {"zcache 4-bank 2-level", ArrayKind::ZCache, 2},
        {"zcache 4-bank 3-level", ArrayKind::ZCache, 3},
    };
    auto results = bench::runCells("ablation_vantage_array",
                                   configs.size(), [&](std::size_t i) {
        return run(configs[i].array, configs[i].levels, wl);
    });
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const Result &r = results[i];
        table.addRow({configs[i].name, TablePrinter::num(r.nominalR, 0),
                      TablePrinter::num(std::pow(0.9, r.nominalR), 4),
                      TablePrinter::num(r.forcedRate, 4),
                      TablePrinter::num(r.occupancyFrac, 3)});
    }
    table.print(std::cout);
    std::printf("\nMore candidates => fewer forced evictions => "
                "stronger Vantage isolation (paper Section "
                "VIII.A).\n");
    return 0;
}
