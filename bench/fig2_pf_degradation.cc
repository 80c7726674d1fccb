/**
 * @file
 * Figure 2: partitioning-induced associativity loss under the
 * Partitioning-First scheme as the number of partitions grows
 * (N = 1, 2, 4, 8, 16, 32), on a 16-way set-associative cache with
 * 512KB per partition, OPT futility ranking. Each workload
 * duplicates one benchmark N times (equal partitions).
 *
 *  (a) associativity CDF / AEF of the first partition, mcf;
 *  (b) misses of the first partition, normalized to N = 1;
 *  (c) IPC of the first partition, normalized to N = 1.
 *
 * Expected shape: AEF decays from ~0.95 toward the 0.5 random
 * floor as N approaches and passes R = 16; misses rise and IPC
 * falls for associativity-sensitive benchmarks (paper: mcf +37%
 * misses, -24% IPC at N = 32) while lbm barely moves.
 */

#include <iostream>
#include <vector>

#include "bench_util.hh"

using namespace fscache;

namespace
{

constexpr LineId kLinesPerPart = 8192; // 512KB
const std::vector<std::uint32_t> kPartCounts{1, 2, 4, 8, 16, 32};

struct RunResult
{
    double aef = 0.0;
    std::vector<double> cdf;
    std::uint64_t misses = 0;
    double ipc = 0.0;
};

RunResult
run(const std::string &benchmark, std::uint32_t n,
    std::uint64_t accesses_per_thread,
    ArrayKind array = ArrayKind::SetAssoc)
{
    CacheSpec spec;
    spec.array.kind = array;
    spec.array.numLines = kLinesPerPart * n;
    spec.array.ways = 16;
    spec.array.randomCands = 16;
    spec.array.hash = HashKind::XorFold;
    spec.ranking = RankKind::Opt;
    spec.scheme.kind = SchemeKind::PF;
    spec.numParts = n;
    spec.seed = 7;
    auto cache = buildCache(spec);
    cache->setTargets(
        std::vector<std::uint32_t>(n, kLinesPerPart));
    cache->setDeviationSampleInterval(13);

    Workload wl = Workload::duplicate(benchmark, n,
                                      accesses_per_thread, 1234);
    wl.annotateNextUse();

    TimingConfig cfg;
    cfg.warmupFraction = 0.25;
    TimingSim sim(*cache, wl, cfg);
    sim.run();

    RunResult res;
    res.aef = cache->assocDist(0).aef();
    res.cdf = cache->assocDist(0).cdfCurve(10);
    res.misses = sim.perf(0).misses;
    res.ipc = sim.perf(0).ipc();
    return res;
}

} // namespace

int
main()
{
    bench::banner("Figure 2",
                  "PF associativity degradation vs partition count "
                  "(512KB/partition, 16-way, OPT ranking)");

    // 63x this number of accesses are simulated per benchmark (the
    // N-partition workloads sum to 63 threads); raise
    // FS_BENCH_SCALE for tighter statistics.
    const std::uint64_t accesses = bench::scaled(150000);

    const std::vector<std::string> benches{
        "mcf",   "omnetpp",    "gromacs", "h264ref",
        "astar", "cactusadm", "libquantum", "lbm"};

    // One cell per (benchmark x N x array) run: rows 0..7 are the
    // set-assoc runs of `benches` and row 8 is mcf on the ideal
    // array.
    const std::size_t rows = benches.size() + 1;
    const std::size_t cols = kPartCounts.size();
    auto results = bench::runCells("fig2", rows * cols,
                                   [&](std::size_t i) {
        std::size_t row = i / cols, col = i % cols;
        if (row == benches.size())
            return run("mcf", kPartCounts[col], accesses,
                       ArrayKind::RandomCands);
        return run(benches[row], kPartCounts[col], accesses);
    });

    bench::section("(a) mcf: associativity of the 1st partition");
    // Two arrays: the paper's 16-way set-assoc L2, and the ideal
    // random-candidates array whose uniform candidates isolate the
    // partitioning-induced loss (set-assoc sets additionally
    // correlate within-set ranks on our synthetic traces, which
    // lowers the N = 1 baseline; see EXPERIMENTS.md).
    TablePrinter aef_table({"N", "AEF (16-way SA)", "AEF (ideal R=16)",
                            "SA CDF@0.4", "SA CDF@0.6",
                            "SA CDF@0.8"});
    for (std::size_t i = 0; i < kPartCounts.size(); ++i) {
        const RunResult &sa = results[i];
        const RunResult &ideal = results[benches.size() * cols + i];
        aef_table.addRow(
            {TablePrinter::num(std::uint64_t{kPartCounts[i]}),
             TablePrinter::num(sa.aef, 3), TablePrinter::num(ideal.aef, 3),
             TablePrinter::num(sa.cdf[3], 3),
             TablePrinter::num(sa.cdf[5], 3),
             TablePrinter::num(sa.cdf[7], 3)});
    }
    aef_table.print(std::cout);
    std::printf("(worst case is the diagonal CDF: AEF = 0.5; paper "
                "AEFs: 0.95, 0.82, 0.74, 0.66, 0.60, 0.56)\n");

    TablePrinter miss_table({"benchmark", "N=1", "N=2", "N=4", "N=8",
                             "N=16", "N=32"});
    TablePrinter ipc_table({"benchmark", "N=1", "N=2", "N=4", "N=8",
                            "N=16", "N=32"});
    for (std::size_t b = 0; b < benches.size(); ++b) {
        std::vector<std::string> miss_row{benches[b]};
        std::vector<std::string> ipc_row{benches[b]};
        const RunResult &base = results[b * cols];
        auto base_misses = static_cast<double>(base.misses);
        for (std::size_t i = 0; i < kPartCounts.size(); ++i) {
            const RunResult &r = results[b * cols + i];
            miss_row.push_back(TablePrinter::num(
                base_misses > 0 ? r.misses / base_misses : 0.0, 3));
            ipc_row.push_back(TablePrinter::num(
                base.ipc > 0 ? r.ipc / base.ipc : 0.0, 3));
        }
        miss_table.addRow(std::move(miss_row));
        ipc_table.addRow(std::move(ipc_row));
    }

    bench::section("(b) misses of the 1st partition (normalized to "
                    "N = 1)");
    miss_table.print(std::cout);

    bench::section("(c) IPC of the 1st partition (normalized to "
                    "N = 1)");
    ipc_table.print(std::cout);
    return 0;
}
