/**
 * @file
 * Section VIII headline performance result: end-to-end IPC of the
 * QoS mixes under each partitioning scheme (coarse-timestamp LRU
 * ranking), normalized to the ideal FullAssoc scheme.
 *
 * Expected shape: FS tracks FullAssoc closely and beats Vantage
 * (paper: up to 6.0%) and PriSM (up to 13.7%) on subject-thread
 * performance; PF trails due to associativity loss.
 */

#include <iostream>
#include <map>
#include <vector>

#include "qos_common.hh"

using namespace fscache;
using namespace fscache::bench;

namespace
{

struct PerfResult
{
    bool valid = false;
    double subjectIpc = 0.0;    ///< mean subject-thread IPC
    double throughput = 0.0;    ///< sum of all thread IPCs
    double subjectMpki = 0.0;   ///< mean subject misses/kilo-instr
};

PerfResult
run(const QosScheme &scheme, std::uint32_t subjects,
    const Workload &wl)
{
    auto cache = buildQosCache(scheme, subjects,
                               RankKind::CoarseTsLru, 77);
    if (!cache)
        return {};

    TimingConfig cfg;
    cfg.warmupFraction = 0.3;
    TimingSim sim(*cache, wl, cfg);
    sim.run();

    PerfResult res;
    res.valid = true;
    for (std::uint32_t t = 0; t < subjects; ++t) {
        const ThreadPerf &p = sim.perf(t);
        res.subjectIpc += p.ipc();
        res.subjectMpki += p.instructions
                               ? 1000.0 * p.misses / p.instructions
                               : 0.0;
    }
    res.subjectIpc /= subjects;
    res.subjectMpki /= subjects;
    res.throughput = sim.throughput();
    return res;
}

} // namespace

int
main()
{
    bench::banner("Section VIII (performance)",
                  "Subject-thread IPC per scheme, normalized to "
                  "FullAssoc (LRU ranking)");

    const std::vector<std::uint32_t> subject_counts{1, 13, 25};
    const std::uint64_t accesses = bench::scaled(100000);

    // One workload per mix, shared read-only by every scheme's cell;
    // cell (mix m, scheme s) is m * schemes + s.
    std::vector<Workload> workloads;
    for (std::uint32_t n : subject_counts)
        workloads.push_back(Workload::mix(qosMix(n), accesses, 888));
    const std::size_t schemes = qosSchemes().size();
    auto results = bench::runCells(
        "fig8", subject_counts.size() * schemes, [&](std::size_t i) {
            return run(qosSchemes()[i % schemes],
                       subject_counts[i / schemes],
                       workloads[i / schemes]);
        });

    for (std::size_t m = 0; m < subject_counts.size(); ++m) {
        bench::section(strprintf("%u subject threads",
                                 subject_counts[m]));
        TablePrinter table({"scheme", "subject IPC", "vs FullAssoc",
                            "subject MPKI", "throughput (sum IPC)"});
        // Subject IPC per scheme; an n/a cell reads as 0.
        std::map<std::string, double> ipc;
        for (std::size_t s = 0; s < schemes; ++s) {
            const std::string &name = qosSchemes()[s].name;
            const PerfResult &r = results[m * schemes + s];
            if (!r.valid) {
                table.addRow({name, "n/a", "n/a", "n/a", "n/a"});
                continue;
            }
            ipc[name] = r.subjectIpc;
            double base = ipc["FullAssoc"];
            table.addRow(
                {name, TablePrinter::num(r.subjectIpc, 4),
                 TablePrinter::num(base > 0 ? r.subjectIpc / base : 0.0, 3),
                 TablePrinter::num(r.subjectMpki, 2),
                 TablePrinter::num(r.throughput, 2)});
        }
        table.print(std::cout);
        double fs = ipc["FS"], vantage = ipc["Vantage"],
               prism = ipc["PriSM"];
        if (vantage > 0.0 && prism > 0.0 && fs > 0.0) {
            std::printf("FS vs Vantage: %+.1f%%   FS vs PriSM: "
                        "%+.1f%%\n",
                        100.0 * (fs / vantage - 1.0),
                        100.0 * (fs / prism - 1.0));
        }
    }
    std::printf("\nPaper headline: FS improves subject performance "
                "over Vantage by up to 6.0%% and over PriSM by up "
                "to 13.7%%.\n");
    return 0;
}
