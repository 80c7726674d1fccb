/**
 * @file
 * Section VIII sensitivity study: feedback-based FS vs its two
 * configuration parameters — the interval length l and the
 * changing ratio (Delta alpha) — on a 16-subject QoS mix.
 *
 * Expected shape: the defaults (l = 16, ratio = 2) sit on a broad
 * plateau: small l reacts faster but jitters more (larger size
 * MAD), large l reacts sluggishly; ratio sqrt(2) is gentler, 4 is
 * coarser, with modest effect on either sizing or AEF.
 */

#include <iostream>
#include <vector>

#include "qos_common.hh"

using namespace fscache;
using namespace fscache::bench;

namespace
{

struct SensResult
{
    double occErr = 0.0; ///< mean |occupancy - target| / target
    double mad = 0.0;    ///< mean subject MAD (lines)
    double aef = 0.0;    ///< mean subject AEF
};

constexpr std::uint32_t kSubjects = 16;

SensResult
run(const FsFeedbackConfig &fs_cfg, const Workload &wl)
{
    QosScheme fs{"FS", {}, ArrayKind::SetAssoc};
    fs.scheme.kind = SchemeKind::Fs;
    fs.scheme.fs = fs_cfg;
    auto cache = buildQosCache(fs, kSubjects, RankKind::CoarseTsLru, 31);
    runUntimed(*cache, wl, 0.3);

    SensResult res;
    for (std::uint32_t p = 0; p < kSubjects; ++p) {
        res.occErr += std::abs(cache->deviation(p).meanOccupancy() -
                               kSubjectLines) /
                      kSubjectLines;
        res.mad += cache->deviation(p).mad();
        res.aef += cache->assocDist(p).aef();
    }
    res.occErr /= kSubjects;
    res.mad /= kSubjects;
    res.aef /= kSubjects;
    return res;
}

} // namespace

int
main()
{
    bench::banner("Section VIII (sensitivity)",
                  "FS feedback parameters: interval length l and "
                  "changing ratio, 16-subject QoS mix");

    // One workload, shared read-only by every cell.
    const Workload wl =
        Workload::mix(qosMix(kSubjects), bench::scaled(80000), 321);

    // One cell per parameter point: cells 0..5 sweep the interval
    // length, cells 6..8 sweep the changing ratio.
    const std::vector<std::uint32_t> lengths{4, 8, 16, 32, 64, 128};
    const std::vector<double> ratios{1.41421356, 2.0, 4.0};
    std::vector<FsFeedbackConfig> cells;
    for (std::uint32_t l : lengths) {
        FsFeedbackConfig cfg;
        cfg.intervalLength = l;
        cells.push_back(cfg);
    }
    for (double ratio : ratios) {
        FsFeedbackConfig cfg;
        cfg.changingRatio = ratio;
        cells.push_back(cfg);
    }
    auto results = bench::runCells(
        "fig9", cells.size(),
        [&](std::size_t i) { return run(cells[i], wl); });
    auto addRow = [&](TablePrinter &table, std::string label,
                      const SensResult &r) {
        table.addRow({std::move(label), TablePrinter::num(r.occErr, 4),
                      TablePrinter::num(r.mad, 1),
                      TablePrinter::num(r.aef, 3)});
    };

    bench::section("interval length l (changing ratio = 2)");
    TablePrinter l_table({"l", "occupancy err", "size MAD (lines)",
                          "subject AEF"});
    for (std::size_t i = 0; i < lengths.size(); ++i)
        addRow(l_table,
               TablePrinter::num(std::uint64_t{lengths[i]}),
               results[i]);
    l_table.print(std::cout);

    bench::section("changing ratio (l = 16)");
    TablePrinter a_table({"ratio", "occupancy err",
                          "size MAD (lines)", "subject AEF"});
    for (std::size_t i = 0; i < ratios.size(); ++i)
        addRow(a_table, TablePrinter::num(ratios[i], 3),
               results[lengths.size() + i]);
    a_table.print(std::cout);

    std::printf("\nThe paper's defaults (l = 16, ratio = 2, i.e. "
                "pure bit shifts) should sit on a broad plateau.\n");
    return 0;
}
