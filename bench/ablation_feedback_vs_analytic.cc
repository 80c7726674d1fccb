/**
 * @file
 * Ablation: what the 5-register feedback design costs relative to
 * analytic FS with exact futility (DESIGN.md Section 3.1).
 *
 * Three FS variants on the same two-partition workload:
 *  - analytic: exact futility, fixed model-derived alpha;
 *  - feedback + exact LRU futility;
 *  - feedback + 8-bit coarse-timestamp futility (the paper's
 *    hardware design).
 *
 * Expected shape: all three hold sizes; the coarse design gives up
 * a little associativity and shows slightly larger temporal
 * deviation, which is the paper's point — the cheap design largely
 * preserves the analytical properties.
 */

#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hh"
#include "trace/benchmark_profiles.hh"

using namespace fscache;

namespace
{

constexpr LineId kLines = 32768;

struct Result
{
    double occErr = 0.0;
    double mad = 0.0;
    double aef1 = 0.0;
    double aef2 = 0.0;
};

Result
run(SchemeKind scheme, RankKind rank)
{
    CacheSpec spec;
    spec.array.kind = ArrayKind::RandomCands;
    spec.array.numLines = kLines;
    spec.array.randomCands = 16;
    spec.ranking = rank;
    spec.scheme.kind = scheme;
    spec.numParts = 2;
    spec.seed = 21;
    auto cache = buildCache(spec);
    cache->setTargets({kLines * 7 / 10, kLines * 3 / 10});

    if (scheme == SchemeKind::FsAnalytic) {
        auto &fs =
            dynamic_cast<FutilityScalingAnalytic &>(cache->scheme());
        fs.setScalingFactor(
            1, analytic::scalingFactorTwoPart(0.7, 0.5, 16));
    }

    std::vector<std::unique_ptr<TraceSource>> src;
    src.push_back(makeBenchmarkTrace("mcf", threadBaseAddr(0),
                                     Rng(911)));
    src.push_back(makeBenchmarkTrace("mcf", threadBaseAddr(1),
                                     Rng(912)));
    std::vector<double> prefill{0.7, 0.3};
    driveByInsertionRate(*cache, src, {0.5, 0.5},
                         bench::scaled(100000),
                         bench::scaled(50000), 13, &prefill);

    Result res;
    double target1 = kLines * 0.7;
    res.occErr = std::abs(cache->deviation(0).meanOccupancy() -
                          target1) /
                 target1;
    res.mad = cache->deviation(0).mad();
    res.aef1 = cache->assocDist(0).aef();
    res.aef2 = cache->assocDist(1).aef();
    return res;
}

} // namespace

int
main()
{
    bench::banner("Ablation: feedback vs analytic FS",
                  "Exact-futility analytic FS vs the 5-register "
                  "feedback design (70/30 split, R = 16)");

    TablePrinter table({"variant", "occupancy err", "MAD (lines)",
                        "AEF p1", "AEF p2"});
    struct Variant
    {
        const char *name;
        SchemeKind scheme;
        RankKind rank;
    };
    const std::vector<Variant> variants{
        {"analytic + exact futility", SchemeKind::FsAnalytic,
         RankKind::ExactLru},
        {"feedback + exact LRU", SchemeKind::Fs, RankKind::ExactLru},
        {"feedback + coarse 8-bit TS", SchemeKind::Fs,
         RankKind::CoarseTsLru},
    };
    auto results = bench::runCells(
        "ablation_feedback_vs_analytic", variants.size(),
        [&](std::size_t i) {
            return run(variants[i].scheme, variants[i].rank);
        });
    for (std::size_t i = 0; i < variants.size(); ++i) {
        const Result &r = results[i];
        table.addRow({variants[i].name, TablePrinter::num(r.occErr, 4),
                      TablePrinter::num(r.mad, 1),
                      TablePrinter::num(r.aef1, 3),
                      TablePrinter::num(r.aef2, 3)});
    }
    table.print(std::cout);
    return 0;
}
