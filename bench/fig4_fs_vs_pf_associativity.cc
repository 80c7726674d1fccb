/**
 * @file
 * Figure 4: associativity CDFs of FS vs PF for two mcf threads on a
 * 2MB random-candidates cache (R = 16), equal insertion rates
 * (I1/I2 = 1), size splits 9/1 and 6/4.
 *
 * Expected shape (paper Section IV.C):
 *  - FS's unscaled partition 1 keeps AEF ~ R/(R+1) ~ 0.94 at both
 *    splits;
 *  - FS's scaled partition 2 degrades gracefully (AEF ~0.85 at
 *    S2 = 0.1, ~0.94 at S2 = 0.4);
 *  - PF degrades sharply as the partition shrinks (paper: AEF 0.63
 *    at S2 = 0.1, 0.86 at S2 = 0.4);
 *  - analytic-model AEFs match the simulated FS values.
 */

#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hh"
#include "trace/benchmark_profiles.hh"

using namespace fscache;

namespace
{

constexpr LineId kLines = 32768; // 2MB of 64B lines
constexpr std::uint32_t kR = 16;

struct Result
{
    double aef1 = 0.0;
    double aef2 = 0.0;
    std::vector<double> cdf2; // partition 2 CDF at 0.1..1.0
};

Result
run(SchemeKind scheme, double s1)
{
    CacheSpec spec;
    spec.array.kind = ArrayKind::RandomCands;
    spec.array.numLines = kLines;
    spec.array.randomCands = kR;
    spec.ranking = RankKind::ExactLru;
    spec.scheme.kind = scheme;
    spec.numParts = 2;
    spec.seed = 42;
    auto cache = buildCache(spec);
    auto t1 = static_cast<std::uint32_t>(kLines * s1);
    cache->setTargets({t1, kLines - t1});

    if (scheme == SchemeKind::FsAnalytic) {
        auto &fs =
            dynamic_cast<FutilityScalingAnalytic &>(cache->scheme());
        fs.setScalingFactor(0, 1.0);
        fs.setScalingFactor(
            1, analytic::scalingFactorTwoPart(s1, 0.5, kR));
    }

    std::vector<std::unique_ptr<TraceSource>> src;
    src.push_back(makeBenchmarkTrace("mcf", threadBaseAddr(0),
                                     Rng(1001)));
    src.push_back(makeBenchmarkTrace("mcf", threadBaseAddr(1),
                                     Rng(1002)));
    std::vector<double> prefill{s1, 1.0 - s1};
    driveByInsertionRate(*cache, src, {0.5, 0.5},
                         bench::scaled(120000),
                         bench::scaled(60000), 5, &prefill);

    Result res;
    res.aef1 = cache->assocDist(0).aef();
    res.aef2 = cache->assocDist(1).aef();
    res.cdf2 = cache->assocDist(1).cdfCurve(10);
    return res;
}

} // namespace

int
main()
{
    bench::banner("Figure 4",
                  "Associativity CDF of FS vs PF, two mcf threads, "
                  "2MB random-candidates cache, R = 16, I1/I2 = 1");

    // 2 splits x 2 schemes = 4 independent cells (fixed seeds per
    // cell); cells 2i and 2i+1 are FS and PF at splits[i].
    const std::vector<double> splits{0.9, 0.6};
    auto results = bench::runCells("fig4", 2 * splits.size(),
                                   [&](std::size_t i) {
        return run(i % 2 == 0 ? SchemeKind::FsAnalytic : SchemeKind::PF,
                   splits[i / 2]);
    });

    TablePrinter table({"scheme", "S1/S2", "AEF part1", "AEF part2",
                        "analytic AEF part2"});
    TablePrinter cdf({"scheme", "S2", "0.2", "0.4", "0.6", "0.8",
                      "0.9", "1.0"});
    for (std::size_t i = 0; i < splits.size(); ++i) {
        double s1 = splits[i];
        std::vector<analytic::PartitionSpec> parts{{s1, 0.5},
                                                   {1.0 - s1, 0.5}};
        std::vector<double> alphas{
            1.0, analytic::scalingFactorTwoPart(s1, 0.5, kR)};
        double model_aef2 = analytic::fsAef(parts, alphas, kR, 1);

        std::string split = strprintf("%.0f/%.0f", s1 * 10,
                                      (1.0 - s1) * 10);
        for (std::size_t k = 0; k < 2; ++k) {
            const Result &r = results[2 * i + k];
            const char *name = k == 0 ? "FS" : "PF";
            table.addRow({name, split, TablePrinter::num(r.aef1, 3),
                          TablePrinter::num(r.aef2, 3),
                          k == 0 ? TablePrinter::num(model_aef2, 3)
                                 : "-"});
            std::vector<std::string> row{name,
                                         TablePrinter::num(1.0 - s1, 1)};
            for (std::size_t x : {1, 3, 5, 7, 8, 9})
                row.push_back(TablePrinter::num(r.cdf2[x], 3));
            cdf.addRow(std::move(row));
        }
    }
    table.print(std::cout);

    bench::section("Partition 2 eviction-futility CDF (x = 0.1..1.0)");
    cdf.print(std::cout);
    std::printf("\nReference: fully associative CDF is a step at "
                "1.0 (AEF = 1); random eviction is the diagonal "
                "(AEF = 0.5); non-partitioned R=16 gives AEF = "
                "%.3f.\n", analytic::uniformCacheAef(kR));
    return 0;
}
