/**
 * @file
 * Ablation: FS under different futility rankings (paper Section VI:
 * FS is conceptually independent of the ranking; the ranking sets
 * the performance headroom that higher associativity can unlock).
 *
 * One heterogeneous 4-thread mix, FS enforcement, rankings swapped:
 * coarse-timestamp LRU (the paper's hardware), exact LRU, LFU,
 * SRRIP, and ideal OPT. Expected shape: sizing is ranking-
 * independent (occupancy ~= target everywhere); miss ratios and IPC
 * improve from LRU-family -> RRIP -> OPT on scan-heavy threads
 * (cactusadm), echoing Figure 6's OPT-vs-LRU headroom.
 */

#include <iostream>
#include <vector>

#include "bench_util.hh"

using namespace fscache;

namespace
{

constexpr LineId kLines = 65536; // 4MB
const std::vector<std::string> kMix{"mcf", "gromacs", "cactusadm",
                                    "lbm"};

struct Result
{
    double occErr = 0.0;
    double missRatio[4] = {};
    double ipc[4] = {};
};

Result
run(RankKind rank, const Workload &wl)
{
    CacheSpec spec;
    spec.array.kind = ArrayKind::SetAssoc;
    spec.array.numLines = kLines;
    spec.array.ways = 16;
    spec.ranking = rank;
    spec.scheme.kind = SchemeKind::Fs;
    spec.numParts = 4;
    spec.seed = 3;
    auto cache = buildCache(spec);
    cache->setTargets(equalShare(kLines, 4));

    TimingConfig cfg;
    cfg.warmupFraction = 0.3;
    TimingSim sim(*cache, wl, cfg);
    sim.run();

    Result res;
    for (PartId p = 0; p < 4; ++p) {
        res.occErr +=
            std::abs(cache->deviation(p).meanOccupancy() -
                     kLines / 4.0) /
            (kLines / 4.0) / 4.0;
        res.missRatio[p] = cache->stats(p).missRatio();
        res.ipc[p] = sim.perf(p).ipc();
    }
    return res;
}

} // namespace

int
main()
{
    bench::banner("Ablation: futility rankings under FS",
                  "FS with coarse-LRU / exact LRU / LFU / RRIP / "
                  "OPT on a heterogeneous mix (4MB, equal targets)");

    const std::uint64_t accesses = bench::scaled(200000);
    // One workload, shared read-only by every cell. Only OPT reads
    // the next-use annotation; the other rankings ignore it.
    Workload wl = Workload::mix(kMix, accesses, 4242);
    wl.annotateNextUse();

    TablePrinter table({"ranking", "occ err", "mcf IPC",
                        "gromacs IPC", "cactusadm IPC", "lbm IPC",
                        "cactusadm missratio"});
    struct Entry
    {
        const char *name;
        RankKind rank;
    };
    const std::vector<Entry> entries{
        {"coarse-ts-lru", RankKind::CoarseTsLru},
        {"exact lru", RankKind::ExactLru},
        {"lfu", RankKind::Lfu},
        {"rrip", RankKind::Rrip},
        {"opt (ideal)", RankKind::Opt},
    };
    auto results = bench::runCells(
        "ablation_rankings", entries.size(),
        [&](std::size_t i) { return run(entries[i].rank, wl); });
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const Result &r = results[i];
        std::vector<std::string> row{entries[i].name,
                                     TablePrinter::num(r.occErr, 4)};
        for (PartId p = 0; p < 4; ++p)
            row.push_back(TablePrinter::num(r.ipc[p], 3));
        row.push_back(TablePrinter::num(r.missRatio[2], 3));
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    std::printf("\nSizing is ranking-independent; the ranking only "
                "decides how much performance the preserved "
                "associativity is worth (paper Section VI).\n");
    return 0;
}
