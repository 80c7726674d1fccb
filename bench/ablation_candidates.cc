/**
 * @file
 * Ablation: effect of the replacement-candidate count R on FS and
 * PF associativity and on the partitioning bound (DESIGN.md
 * Section 3.1).
 *
 * Two equal-pressure partitions with a 75/25 target split on a
 * random-candidates array. Expected shape: the unscaled FS
 * partition tracks the R/(R+1) law; PF's small partition recovers
 * associativity as R grows (more candidates from the chosen
 * partition); at R = 2 the feasibility region collapses
 * (S1 <= sqrt(I1)).
 */

#include <cmath>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hh"
#include "trace/stack_dist_generator.hh"

using namespace fscache;

namespace
{

constexpr LineId kLines = 16384;

std::unique_ptr<TraceSource>
source(Addr base, std::uint64_t seed)
{
    StackDistConfig cfg;
    cfg.pNew = 0.05;
    cfg.depth = DepthDist::logUniform(1, 1 << 15);
    cfg.maxResident = 1 << 16;
    cfg.meanInstrGap = 1;
    return std::make_unique<StackDistGenerator>(cfg, base, Rng(seed));
}

struct Result
{
    double aef1 = 0.0;
    double aef2 = 0.0;
    double occ1 = 0.0;
};

Result
run(SchemeKind scheme, std::uint32_t r)
{
    CacheSpec spec;
    spec.array.kind = ArrayKind::RandomCands;
    spec.array.numLines = kLines;
    spec.array.randomCands = r;
    spec.ranking = RankKind::ExactLru;
    spec.scheme.kind = scheme;
    spec.numParts = 2;
    spec.seed = 5;
    auto cache = buildCache(spec);
    cache->setTargets({kLines * 3 / 4, kLines / 4});

    if (scheme == SchemeKind::FsAnalytic) {
        auto &fs =
            dynamic_cast<FutilityScalingAnalytic &>(cache->scheme());
        fs.setScalingFactor(
            1, analytic::scalingFactorTwoPart(0.75, 0.5, r));
    }

    std::vector<std::unique_ptr<TraceSource>> src;
    src.push_back(source(0, 71));
    src.push_back(source(1ull << 48, 72));
    std::vector<double> prefill{0.75, 0.25};
    driveByInsertionRate(*cache, src, {0.5, 0.5},
                         bench::scaled(60000),
                         bench::scaled(30000), 3, &prefill);

    Result res;
    res.aef1 = cache->assocDist(0).aef();
    res.aef2 = cache->assocDist(1).aef();
    res.occ1 = cache->deviation(0).meanOccupancy() /
               (kLines * 3.0 / 4.0);
    return res;
}

} // namespace

int
main()
{
    bench::banner("Ablation: candidate count R",
                  "FS vs PF associativity and sizing across R "
                  "(75/25 split, equal insertion rates)");

    // Cells 2k and 2k+1 are FS and PF at rs[k]; an infeasible R's
    // cells run nothing.
    const std::vector<std::uint32_t> rs{2, 4, 8, 16, 32, 64};
    auto results = bench::runCells("ablation_candidates", 2 * rs.size(),
                                   [&](std::size_t i) {
        std::uint32_t r = rs[i / 2];
        if (!analytic::feasible(0.75, 0.5, r))
            return Result{};
        return run(i % 2 == 0 ? SchemeKind::FsAnalytic : SchemeKind::PF,
                   r);
    });

    TablePrinter table({"R", "x^R AEF", "FS AEF p1", "FS AEF p2",
                        "FS occ p1", "PF AEF p1", "PF AEF p2",
                        "PF occ p1"});
    for (std::size_t k = 0; k < rs.size(); ++k) {
        std::uint32_t r = rs[k];
        std::vector<std::string> row{
            TablePrinter::num(std::uint64_t{r}),
            TablePrinter::num(analytic::uniformCacheAef(r), 3)};
        if (!analytic::feasible(0.75, 0.5, r)) {
            row.insert(row.end(),
                       {"infeasible", "-", "-", "-", "-", "-"});
        } else {
            for (std::size_t i : {2 * k, 2 * k + 1})
                for (double Result::*f :
                     {&Result::aef1, &Result::aef2, &Result::occ1})
                    row.push_back(TablePrinter::num(results[i].*f, 3));
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);

    bench::section("feasibility bound S1_max = I1^(1/R), I1 = 0.5");
    TablePrinter bound({"R", "max S1"});
    for (std::uint32_t r : rs)
        bound.addRow({TablePrinter::num(std::uint64_t{r}),
                      TablePrinter::num(std::pow(0.5, 1.0 / r), 3)});
    bound.print(std::cout);
    return 0;
}
