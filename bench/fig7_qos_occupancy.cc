/**
 * @file
 * Figure 7: QoS enforcement on a 32-core CMP. Subject threads run
 * gromacs with a 256KB guarantee each; background threads run lbm
 * (much higher miss rate). Mixes vary the number of subject
 * threads.
 *
 *  (a) average occupancy of subject threads relative to their
 *      target — FullAssoc / PF / FS enforce ~100%; Vantage dips a
 *      few percent below; PriSM under-occupies badly (paper: 20.9%
 *      below target with LRU on average);
 *  (b) average eviction futility of subject threads — FullAssoc 1.0,
 *      FS ~0.86, Vantage ~0.80, PF down to ~0.51, PriSM in between.
 *
 * Vantage is skipped at 31 subjects (needs 97% of the cache but
 * manages 90%), as in the paper. Two Vantage rows bracket the
 * paper's: "Vantage" with idealized exact-rank demotion thresholds
 * and "Vantage-rt" with realistic feedback-estimated thresholds.
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "qos_common.hh"

using namespace fscache;
using namespace fscache::bench;

namespace
{

struct QosResult
{
    bool valid = false;
    double occupancyFrac = 0.0; ///< mean subject occupancy / target
    double aef = 0.0;           ///< mean subject AEF
    double abnormality = -1.0;  ///< PriSM only
};

QosResult
run(const QosScheme &scheme, std::uint32_t subjects, RankKind rank,
    const Workload &wl)
{
    auto cache = buildQosCache(scheme, subjects, rank, 99);
    if (!cache)
        return {};

    runUntimed(*cache, wl, 0.3);

    QosResult res;
    res.valid = true;
    for (std::uint32_t p = 0; p < subjects; ++p) {
        res.occupancyFrac += cache->deviation(p).meanOccupancy() /
                             kSubjectLines;
        res.aef += cache->assocDist(p).aef();
    }
    res.occupancyFrac /= subjects;
    res.aef /= subjects;
    if (auto *prism = dynamic_cast<PrismScheme *>(&cache->scheme()))
        res.abnormality = prism->abnormalityRate();
    return res;
}

} // namespace

int
main()
{
    bench::banner("Figure 7",
                  "QoS occupancy and associativity of subject "
                  "threads (gromacs subjects @256KB + lbm "
                  "background, 32 threads, 8MB L2)");

    const std::vector<std::uint32_t> subject_counts{1, 13, 25, 31};
    const std::uint64_t accesses = bench::scaled(60000);

    // One workload per mix, shared read-only by every cell under both
    // rankings (LRU ignores OPT's next-use annotation).
    std::vector<Workload> workloads;
    for (std::uint32_t n : subject_counts) {
        workloads.push_back(Workload::mix(qosMix(n), accesses, 555));
        workloads.back().annotateNextUse();
    }

    for (RankKind rank : {RankKind::CoarseTsLru, RankKind::Opt}) {
        const char *rank_name =
            rank == RankKind::CoarseTsLru ? "LRU" : "OPT";

        TablePrinter occ({"scheme", "Nsub=1", "Nsub=13", "Nsub=25",
                          "Nsub=31"});
        TablePrinter aef({"scheme", "Nsub=1", "Nsub=13", "Nsub=25",
                          "Nsub=31"});
        double prism_abnormality = 0.0;
        int prism_samples = 0;

        // Cell (mix m, scheme s) is m * schemes + s.
        const std::size_t schemes = qosSchemes().size();
        auto results = bench::runCells(
            "fig7", subject_counts.size() * schemes,
            [&](std::size_t i) {
                return run(qosSchemes()[i % schemes],
                           subject_counts[i / schemes], rank,
                           workloads[i / schemes]);
            });

        for (std::size_t s = 0; s < schemes; ++s) {
            std::vector<std::string> occ_row{qosSchemes()[s].name};
            std::vector<std::string> aef_row{qosSchemes()[s].name};
            for (std::size_t m = 0; m < subject_counts.size(); ++m) {
                const QosResult &r = results[m * schemes + s];
                occ_row.push_back(r.valid
                                      ? TablePrinter::num(r.occupancyFrac, 3)
                                      : "n/a");
                aef_row.push_back(
                    r.valid ? TablePrinter::num(r.aef, 3) : "n/a");
                if (r.abnormality >= 0.0) {
                    prism_abnormality += r.abnormality;
                    ++prism_samples;
                }
            }
            occ.addRow(std::move(occ_row));
            aef.addRow(std::move(aef_row));
        }

        bench::section(strprintf(
            "(a) subject occupancy / target — %s ranking",
            rank_name));
        occ.print(std::cout);
        bench::section(strprintf(
            "(b) subject average eviction futility — %s ranking",
            rank_name));
        aef.print(std::cout);
        if (prism_samples > 0) {
            std::printf("\nPriSM abnormality rate (no candidate "
                        "from the selected partition): %.1f%% "
                        "average (paper: >70%%)\n",
                        100.0 * prism_abnormality / prism_samples);
        }
        std::fflush(stdout);
    }
    return 0;
}
