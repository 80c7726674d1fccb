/**
 * @file
 * Ablation: index-hash quality vs the Uniformity Assumption
 * (DESIGN.md Section 3.1).
 *
 * A 16-way set-associative array indexed by modulo, XOR-fold, and
 * H3 hashing, against the ideal random-candidates array. Metrics:
 * unpartitioned AEF (how close the real array gets to the x^R law)
 * and the sizing error of feedback FS with two partitions.
 *
 * Expected shape: XOR-fold and H3 sit close to the ideal array;
 * modulo indexing concentrates candidates and degrades both
 * associativity and sizing for strided/structured address streams.
 */

#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.hh"
#include "trace/benchmark_profiles.hh"

using namespace fscache;

namespace
{

constexpr LineId kLines = 16384;

struct Result
{
    double aefUnpart = 0.0;
    double fsOccErr = 0.0;
};

Result
run(ArrayKind array, HashKind hash)
{
    Result res;

    // Unpartitioned associativity with an mcf-like stream.
    {
        CacheSpec spec;
        spec.array.kind = array;
        spec.array.numLines = kLines;
        spec.array.ways = 16;
        spec.array.hash = hash;
        spec.array.randomCands = 16;
        spec.ranking = RankKind::ExactLru;
        spec.scheme.kind = SchemeKind::None;
        spec.numParts = 1;
        spec.seed = 2;
        auto cache = buildCache(spec);
        cache->setTarget(0, kLines);
        std::vector<std::unique_ptr<TraceSource>> src;
        src.push_back(makeBenchmarkTrace("mcf", threadBaseAddr(0),
                                         Rng(811)));
        driveByInsertionRate(*cache, src, {1.0},
                             bench::scaled(50000),
                             bench::scaled(25000), 3);
        res.aefUnpart = cache->assocDist(0).aef();
    }

    // Feedback-FS sizing with asymmetric targets.
    {
        CacheSpec spec;
        spec.array.kind = array;
        spec.array.numLines = kLines;
        spec.array.ways = 16;
        spec.array.hash = hash;
        spec.array.randomCands = 16;
        spec.ranking = RankKind::CoarseTsLru;
        spec.scheme.kind = SchemeKind::Fs;
        spec.numParts = 2;
        spec.seed = 2;
        auto cache = buildCache(spec);
        cache->setTargets({kLines * 3 / 4, kLines / 4});
        std::vector<std::unique_ptr<TraceSource>> src;
        src.push_back(makeBenchmarkTrace("mcf", threadBaseAddr(0),
                                         Rng(812)));
        src.push_back(makeBenchmarkTrace("mcf", threadBaseAddr(1),
                                         Rng(813)));
        std::vector<double> prefill{0.75, 0.25};
        driveByInsertionRate(*cache, src, {0.5, 0.5},
                             bench::scaled(50000),
                             bench::scaled(25000), 3, &prefill);
        double occ1 = cache->deviation(0).meanOccupancy();
        res.fsOccErr =
            std::abs(occ1 - kLines * 0.75) / (kLines * 0.75);
    }
    return res;
}

} // namespace

int
main()
{
    bench::banner("Ablation: index hashing",
                  "Hash quality vs the Uniformity Assumption "
                  "(16-way set-assoc vs ideal random candidates)");

    TablePrinter table({"array/hash", "unpartitioned AEF",
                        "FS occupancy err (75% part)"});
    struct Config
    {
        const char *name;
        ArrayKind array;
        HashKind hash;
    };
    const std::vector<Config> configs{
        {"setassoc/modulo", ArrayKind::SetAssoc, HashKind::Modulo},
        {"setassoc/xorfold", ArrayKind::SetAssoc, HashKind::XorFold},
        {"setassoc/h3", ArrayKind::SetAssoc, HashKind::H3},
        {"random (ideal)", ArrayKind::RandomCands, HashKind::H3},
    };
    auto results = bench::runCells("ablation_hashing", configs.size(),
                                   [&](std::size_t i) {
        return run(configs[i].array, configs[i].hash);
    });
    for (std::size_t i = 0; i < configs.size(); ++i) {
        table.addRow({configs[i].name,
                      TablePrinter::num(results[i].aefUnpart, 3),
                      TablePrinter::num(results[i].fsOccErr, 4)});
    }
    table.print(std::cout);
    std::printf("\nIdeal reference: AEF = R/(R+1) = %.3f for "
                "R = 16.\n", analytic::uniformCacheAef(16));
    return 0;
}
