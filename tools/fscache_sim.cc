/**
 * @file
 * fscache_sim: command-line driver for the partitioned-cache
 * simulator.
 *
 * Examples:
 *
 *   # 8MB 16-way FS cache shared by mcf and three lbm threads,
 *   # targets 40/20/20/20 percent, timed run:
 *   fscache_sim --threads mcf,lbm,lbm,lbm --targets 40,20,20,20
 *
 *   # Vantage on a zcache, untimed, JSON output:
 *   fscache_sim --scheme vantage --array zcache --untimed --json
 *
 *   # External text traces (one file per thread):
 *   fscache_sim --traces t0.trc,t1.trc --scheme fs
 *
 *   # Capacity sweep: each size runs as an independent cell,
 *   # sharded across cores by SweepRunner (FS_JOBS controls the
 *   # worker count; FS_JOBS=1 is the serial path, same output):
 *   fscache_sim --lines 16384,32768,65536,131072 --untimed
 *
 * Each sweep cell reduces to a SimCellRecord (every number the
 * reports print), so no live cache outlives its cell.
 */

#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/arg_parser.hh"
#include "common/errors.hh"
#include "core/fscache.hh"
#include "runner/sweep_runner.hh"
#include "stats/json_writer.hh"
#include "trace/file_trace.hh"
#include "trace/next_use_annotator.hh"

using namespace fscache;

namespace
{

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::istringstream in(s);
    std::string item;
    while (std::getline(in, item, sep))
        if (!item.empty())
            out.push_back(item);
    return out;
}

Allocation
parseTargets(const std::string &spec, LineId manageable,
             std::uint32_t threads)
{
    if (spec.empty())
        return equalShare(manageable, threads);
    std::vector<std::string> parts = split(spec, ',');
    if (parts.size() != threads)
        fatal("--targets has %zu entries for %u threads",
              parts.size(), threads);
    std::vector<double> fractions;
    for (const std::string &p : parts) {
        double f = parseDoubleArg("--targets", p);
        if (f < 0.0)
            fatal("--targets entry \"%s\" must not be negative",
                  p.c_str());
        fractions.push_back(f);
    }
    return proportionalShare(manageable, fractions);
}

/** Everything the reports print for one thread of one cell. */
struct ThreadReport
{
    std::uint64_t target = 0;
    double occupancy = 0.0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    double missRatio = 0.0;
    double aef = 0.0;
    double mad = 0.0;
    /** Sparse deviation histogram: (bin, count), non-empty only. */
    std::vector<std::pair<std::uint32_t, std::uint64_t>> devHist;
    double ipc = 0.0; ///< meaningful iff the cell was timed
};

/**
 * One finished (size) cell, reduced to the numbers the reports
 * print — plain data, instead of keeping a live PartitionedCache
 * alive until rendering.
 */
struct SimCellRecord
{
    std::string scheme;
    std::string array;
    std::string ranking;
    std::uint32_t cacheLines = 0; ///< actual (may round from --lines)
    bool timed = false;
    double throughput = 0.0;   ///< timed only
    double avgQueueing = 0.0;  ///< timed only
    std::vector<ThreadReport> threads;
};

void
reportJson(JsonWriter &json, const SimCellRecord &cell,
           const Workload &wl, std::uint32_t threads)
{
    json.beginArray("threads");
    for (PartId p = 0; p < threads; ++p) {
        const ThreadReport &t = cell.threads[p];
        json.beginObject();
        json.field("benchmark", wl.thread(p).benchmark);
        json.field("target", t.target);
        json.field("occupancy", t.occupancy);
        json.field("hits", t.hits);
        json.field("misses", t.misses);
        json.field("miss_ratio", t.missRatio);
        json.field("aef", t.aef);
        json.field("size_mad", t.mad);
        // Sparse dump of the deviation histogram: non-empty bins
        // only, as [bin, count] pairs. Pins the whole distribution
        // (the golden byte-identity tests diff it) without 2048
        // mostly-zero entries.
        json.beginArray("deviation_hist");
        for (const auto &[bin, count] : t.devHist) {
            json.beginObject();
            json.field("bin", std::uint64_t{bin});
            json.field("count", count);
            json.endObject();
        }
        json.endArray();
        if (cell.timed)
            json.field("ipc", t.ipc);
        json.endObject();
    }
    json.endArray();
    if (cell.timed)
        json.field("throughput", cell.throughput);
}

void
reportTable(const SimCellRecord &cell, const Workload &wl,
            std::uint32_t threads)
{
    TablePrinter table({"thread", "benchmark", "target", "occupancy",
                        "miss ratio", "AEF", "MAD", "IPC"});
    for (PartId p = 0; p < threads; ++p) {
        const ThreadReport &t = cell.threads[p];
        table.addRow(
            {strprintf("%u", p), wl.thread(p).benchmark,
             TablePrinter::num(t.target),
             TablePrinter::num(t.occupancy, 1),
             TablePrinter::num(t.missRatio, 4),
             TablePrinter::num(t.aef, 3),
             TablePrinter::num(t.mad, 1),
             cell.timed ? TablePrinter::num(t.ipc, 3)
                        : std::string("-")});
    }
    table.print(std::cout);
    if (cell.timed) {
        std::printf("throughput (sum IPC): %.3f   avg memory "
                    "queueing: %.1f cyc\n", cell.throughput,
                    cell.avgQueueing);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("fscache_sim",
                   "trace-driven partitioned-cache simulator "
                   "(Futility Scaling et al.)");
    args.addString("scheme", "fs",
                   "partitioning scheme: none|pf|fs-analytic|fs|"
                   "vantage|prism|waypart");
    args.addString("array", "setassoc",
                   "array: setassoc|direct|skew|zcache|random|"
                   "fullyassoc");
    args.addString("ranking", "coarse",
                   "futility ranking: lru|coarse|lfu|opt|random|"
                   "rrip");
    args.addString("hash", "xorfold",
                   "index hash: modulo|xorfold|h3");
    args.addString("lines", "131072",
                   "cache capacity in 64B lines; a comma-separated "
                   "list sweeps the sizes in parallel (FS_JOBS "
                   "workers)");
    args.addInt("ways", 16, "set-assoc ways");
    args.addInt("candidates", 16, "random-array candidates R");
    args.addString("threads", "mcf,lbm",
                   "comma-separated benchmark list (one thread "
                   "each)");
    args.addString("traces", "",
                   "comma-separated trace files (overrides "
                   "--threads)");
    args.addString("targets", "",
                   "comma-separated target weights (default: "
                   "equal)");
    args.addInt("accesses", 200000, "accesses per thread");
    args.addDouble("warmup", 0.2, "warmup fraction");
    args.addInt("seed", 1, "master seed");
    args.addFlag("untimed", "skip the timing model (faster)");
    args.addFlag("nuca", "model banked-NUCA contention");
    args.addFlag("json", "machine-readable JSON output");
    if (!args.parse(argc, argv))
        return 0;

    std::vector<LineId> sizes;
    for (const std::string &s : split(args.getString("lines"), ',')) {
        std::uint64_t v = parseU64Arg("--lines", s);
        if (v == 0)
            fatal("--lines entry \"%s\" is not a positive line "
                  "count", s.c_str());
        sizes.push_back(static_cast<LineId>(v));
    }
    if (sizes.empty())
        fatal("--lines needs at least one size");

    // Workload (shared read-only by every sweep cell).
    Workload wl;
    std::vector<std::string> names;
    std::string traces = args.getString("traces");
    auto accesses =
        static_cast<std::uint64_t>(args.getInt("accesses"));
    if (!traces.empty()) {
        std::vector<std::string> files = split(traces, ',');
        for (std::uint32_t t = 0; t < files.size(); ++t)
            names.push_back(files[t]);
        wl = Workload::mix(
            std::vector<std::string>(files.size(), "lbm"), 1,
            args.getInt("seed"));
        for (std::uint32_t t = 0; t < files.size(); ++t) {
            wl.thread(t).benchmark = files[t];
            try {
                wl.thread(t).trace = loadTraceFile(files[t]);
            } catch (const TraceFormatError &e) {
                fatal("%s", e.what());
            }
        }
    } else {
        names = split(args.getString("threads"), ',');
        if (names.empty())
            fatal("--threads needs at least one benchmark");
        wl = Workload::mix(names, accesses, args.getInt("seed"));
    }
    auto threads = static_cast<std::uint32_t>(names.size());

    // OPT keys on next uses: a trace file's own next-use column is
    // kept, and every other trace is annotated here.
    RankKind rank = parseRankKind(args.getString("ranking"));
    if (rank == RankKind::Opt) {
        for (std::uint32_t t = 0; t < wl.threadCount(); ++t) {
            TraceBuffer &trace = wl.thread(t).trace;
            if (!trace.hasNextUseColumn())
                annotateNextUse(trace);
        }
    }

    // Cache spec shared by every cell; numLines is set per cell.
    CacheSpec spec;
    spec.array.kind = parseArrayKind(args.getString("array"));
    spec.array.ways =
        static_cast<std::uint32_t>(args.getInt("ways"));
    spec.array.hash = parseHashKind(args.getString("hash"));
    spec.array.randomCands =
        static_cast<std::uint32_t>(args.getInt("candidates"));
    spec.ranking = rank;
    spec.scheme.kind = parseSchemeKind(args.getString("scheme"));
    spec.numParts = threads;
    spec.seed = static_cast<std::uint64_t>(args.getInt("seed"));

    double warmup = args.getDouble("warmup");
    bool untimed = args.getFlag("untimed");
    bool nuca = args.getFlag("nuca");
    std::string targets = args.getString("targets");

    // Run: one cell per cache size, each with a private cache (all
    // randomness re-seeded from --seed) driving the shared traces.
    // A failing size ends the run (docs/ROBUSTNESS.md).
    SweepRunner runner;
    auto report = runner.mapResilient(
        sizes.size(),
        [&](std::size_t i) {
            CacheSpec cspec = spec;
            cspec.array.numLines = sizes[i];
            std::unique_ptr<PartitionedCache> cache =
                buildCache(cspec);
            auto manageable = static_cast<LineId>(
                sizes[i] * cache->scheme().managedFraction());
            cache->setTargets(
                parseTargets(targets, manageable, threads));
            std::unique_ptr<TimingSim> sim;
            if (untimed) {
                runUntimed(*cache, wl, warmup);
            } else {
                TimingConfig cfg;
                cfg.warmupFraction = warmup;
                cfg.modelNuca = nuca;
                sim = std::make_unique<TimingSim>(*cache, wl, cfg);
                sim->run();
            }

            // Reduce the live cache to the report numbers; the
            // cache dies with the cell.
            SimCellRecord rec;
            rec.scheme = cache->scheme().name();
            rec.array = cache->array().name();
            rec.ranking = cache->ranking().name();
            rec.cacheLines = cache->cacheLines();
            rec.timed = !untimed;
            if (sim) {
                rec.throughput = sim->throughput();
                rec.avgQueueing = sim->memory().avgQueueing();
            }
            for (PartId p = 0; p < threads; ++p) {
                ThreadReport t;
                t.target = cache->scheme().target(p);
                t.occupancy = cache->deviation(p).meanOccupancy();
                t.hits = cache->stats(p).hits;
                t.misses = cache->stats(p).misses;
                t.missRatio = cache->stats(p).missRatio();
                t.aef = cache->assocDist(p).aef();
                t.mad = cache->deviation(p).mad();
                const Histogram &hist =
                    cache->deviation(p).deviationHistogram();
                for (std::uint32_t b = 0; b < hist.bins(); ++b)
                    if (hist.binCount(b) != 0)
                        t.devHist.emplace_back(b,
                                               hist.binCount(b));
                if (sim)
                    t.ipc = sim->perf(p).ipc();
                rec.threads.push_back(std::move(t));
            }
            return rec;
        });

    std::vector<SimCellRecord> cells;
    try {
        cells = report.values();
    } catch (const FsError &e) {
        std::fprintf(stderr, "fscache_sim: %s\n", e.what());
        return 1;
    }
    const SimCellRecord &first = cells.front();

    // Report in size order regardless of completion order.
    if (args.getFlag("json")) {
        JsonWriter json(std::cout);
        json.field("scheme", first.scheme);
        json.field("array", first.array);
        json.field("ranking", first.ranking);
        if (cells.size() == 1) {
            json.field("lines", std::uint64_t{first.cacheLines});
            reportJson(json, first, wl, threads);
        } else {
            json.beginArray("cells");
            for (std::size_t i = 0; i < cells.size(); ++i) {
                json.beginObject();
                json.field("lines", std::uint64_t{sizes[i]});
                reportJson(json, cells[i], wl, threads);
                json.endObject();
            }
            json.endArray();
        }
        json.finish();
        std::printf("\n");
        return 0;
    }

    for (const SimCellRecord &cell : cells) {
        std::printf("%s | %s | %s | %u lines, %u threads\n",
                    cell.scheme.c_str(), cell.array.c_str(),
                    cell.ranking.c_str(), cell.cacheLines,
                    threads);
        reportTable(cell, wl, threads);
    }
    return 0;
}
