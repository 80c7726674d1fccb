/**
 * @file
 * Figure 5: distribution of Partition 1's deviation from its target
 * size under FS and PF; equal split (S1/S2 = 1), insertion rates
 * I1 = 0.1 and I1 = 0.5; 2MB random-candidates cache, R = 16.
 *
 * Expected shape (paper Section IV.D): PF holds sizes near-exactly
 * (MAD < 1 line); FS shows a small temporal deviation that is
 * worst at I1 = 0.5 (paper MADs: 59.8 at I1 = 0.1, 67.4 at 0.5 —
 * still < 0.5% of a 1MB partition).
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
constexpr std::uint32_t kR = 16;

struct Result
{
    double mad = 0.0;
    double bias = 0.0;
    std::vector<double> cdf; // P(|dev| <= x) at x in steps of 32
};

Result
run(SchemeKind scheme, double i1)
{
    CacheSpec spec;
    spec.array.kind = ArrayKind::RandomCands;
    spec.array.numLines = kLines;
    spec.array.randomCands = kR;
    spec.ranking = RankKind::ExactLru;
    spec.scheme.kind = scheme;
    spec.numParts = 2;
    spec.seed = 17;
    auto cache = buildCache(spec);
    cache->setTargets({kLines / 2, kLines / 2});

    if (scheme == SchemeKind::FsAnalytic) {
        auto &fs =
            dynamic_cast<FutilityScalingAnalytic &>(cache->scheme());
        double a2 = i1 >= 0.5
                        ? 1.0
                        : analytic::scalingFactorTwoPart(0.5, i1, kR);
        fs.setScalingFactor(0, 1.0);
        fs.setScalingFactor(1, a2);
    }

    std::vector<std::unique_ptr<TraceSource>> src;
    src.push_back(makeBenchmarkTrace("mcf", threadBaseAddr(0),
                                     Rng(2001)));
    src.push_back(makeBenchmarkTrace("mcf", threadBaseAddr(1),
                                     Rng(2002)));
    // Prefill at the target split so the measurement captures the
    // steady-state deviation, not the convergence ramp.
    std::vector<double> prefill{0.5, 0.5};
    driveByInsertionRate(*cache, src, {i1, 1.0 - i1},
                         bench::scaled(200000),
                         bench::scaled(100000), 9, &prefill);

    Result res;
    res.mad = cache->deviation(0).mad();
    res.bias = cache->deviation(0).bias();
    for (int x = 32; x <= 256; x += 32)
        res.cdf.push_back(cache->deviation(0).absDeviationCdf(x));
    return res;
}

} // namespace

int
main()
{
    bench::banner("Figure 5",
                  "Partition 1 size deviation, FS vs PF, equal "
                  "split, 2MB random-candidates cache, R = 16");

    // 2 insertion rates x {FS, PF} = 4 independent cells.
    const std::vector<double> rates{0.1, 0.5};
    auto results = bench::runCells("fig5", 2 * rates.size(),
                                   [&](std::size_t i) {
        return run(i % 2 == 0 ? SchemeKind::FsAnalytic : SchemeKind::PF,
                   rates[i / 2]);
    });

    TablePrinter table({"scheme", "I1", "MAD (lines)", "bias",
                        "P(|dev|<=32)", "P(|dev|<=128)",
                        "P(|dev|<=256)"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Result &r = results[i];
        std::vector<std::string> row{
            i % 2 == 0 ? "FS" : "PF", TablePrinter::num(rates[i / 2], 1),
            TablePrinter::num(r.mad, 1), TablePrinter::num(r.bias, 1)};
        for (std::size_t x : {0, 3, 7})
            row.push_back(TablePrinter::num(r.cdf[x], 3));
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    std::printf("\nExpected: PF MAD < ~2 lines; FS MAD tens of "
                "lines (< 0.5%% of the partition), larger at "
                "I1 = 0.5 than at I1 = 0.1.\n");
    return 0;
}
