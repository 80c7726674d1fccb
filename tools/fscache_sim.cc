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
 * Each sweep cell reduces to a serializable SimCellRecord (every
 * number the reports print, doubles stored by bit pattern), so the
 * sweep is checkpointable (FS_CHECKPOINT_DIR) and farmable across
 * worker processes (FS_EXECUTOR=process) with byte-identical
 * output; see docs/ROBUSTNESS.md.
 */

#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/arg_parser.hh"
#include "core/fscache.hh"
#include "runner/sweep_runner.hh"
#include "stats/json_writer.hh"
#include "trace/file_trace.hh"

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
 * print — plain data, so a cell result can cross a checkpoint
 * journal or a worker-process pipe bit-exactly instead of keeping a
 * live PartitionedCache alive until rendering.
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

/** Codec version; bump on any SimCellRecord layout change so stale
 *  journals recompute instead of misdecoding. */
constexpr std::uint64_t kSimCellCodecVersion = 1;

std::string
encodeSimCell(const SimCellRecord &r)
{
    CellEncoder enc;
    enc.u64(kSimCellCodecVersion)
        .str(r.scheme)
        .str(r.array)
        .str(r.ranking)
        .u64(r.cacheLines)
        .u64(r.timed ? 1 : 0)
        .f64(r.throughput)
        .f64(r.avgQueueing)
        .u64(r.threads.size());
    for (const ThreadReport &t : r.threads) {
        enc.u64(t.target)
            .f64(t.occupancy)
            .u64(t.hits)
            .u64(t.misses)
            .f64(t.missRatio)
            .f64(t.aef)
            .f64(t.mad)
            .f64(t.ipc)
            .u64(t.devHist.size());
        for (const auto &[bin, count] : t.devHist)
            enc.u64(bin).u64(count);
    }
    return enc.result();
}

SimCellRecord
decodeSimCell(const std::string &payload)
{
    CellDecoder dec(payload);
    std::uint64_t version = dec.u64();
    if (version != kSimCellCodecVersion)
        throw FsError(strprintf(
            "sim cell codec version mismatch: got %llu, want %llu",
            static_cast<unsigned long long>(version),
            static_cast<unsigned long long>(kSimCellCodecVersion)));
    SimCellRecord r;
    r.scheme = dec.str();
    r.array = dec.str();
    r.ranking = dec.str();
    r.cacheLines = static_cast<std::uint32_t>(dec.u64());
    r.timed = dec.u64() != 0;
    r.throughput = dec.f64();
    r.avgQueueing = dec.f64();
    std::uint64_t threads = dec.u64();
    r.threads.reserve(threads);
    for (std::uint64_t p = 0; p < threads; ++p) {
        ThreadReport t;
        t.target = dec.u64();
        t.occupancy = dec.f64();
        t.hits = dec.u64();
        t.misses = dec.u64();
        t.missRatio = dec.f64();
        t.aef = dec.f64();
        t.mad = dec.f64();
        t.ipc = dec.f64();
        std::uint64_t bins = dec.u64();
        t.devHist.reserve(bins);
        for (std::uint64_t b = 0; b < bins; ++b) {
            std::uint32_t bin = static_cast<std::uint32_t>(dec.u64());
            std::uint64_t count = dec.u64();
            t.devHist.emplace_back(bin, count);
        }
        r.threads.push_back(std::move(t));
    }
    if (!dec.done())
        throw FsError("sim cell payload has trailing tokens");
    return r;
}

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
    // Farm support: capture argv for worker re-exec and strip the
    // hidden --fs-worker flag before ArgParser sees it.
    procExecutorInit(&argc, argv);

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
            wl.thread(t).trace = loadTraceFile(files[t]);
        }
    } else {
        names = split(args.getString("threads"), ',');
        if (names.empty())
            fatal("--threads needs at least one benchmark");
        wl = Workload::mix(names, accesses, args.getInt("seed"));
    }
    auto threads = static_cast<std::uint32_t>(names.size());

    RankKind rank = parseRankKind(args.getString("ranking"));
    if (rank == RankKind::Opt)
        wl.annotateNextUse();

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

    // Everything that changes a cell's numbers goes into the
    // checkpoint/farm identity key: a journal (or a farm worker)
    // can only ever be matched with the sweep that produced it.
    std::string config_key = strprintf(
        "fscache_sim;scheme=%s;array=%s;ranking=%s;hash=%s;"
        "lines=%s;ways=%lld;cands=%lld;threads=%s;traces=%s;"
        "targets=%s;accesses=%llu;warmup=%g;seed=%lld;untimed=%d;"
        "nuca=%d",
        args.getString("scheme").c_str(),
        args.getString("array").c_str(),
        args.getString("ranking").c_str(),
        args.getString("hash").c_str(),
        args.getString("lines").c_str(),
        static_cast<long long>(args.getInt("ways")),
        static_cast<long long>(args.getInt("candidates")),
        args.getString("threads").c_str(), traces.c_str(),
        targets.c_str(),
        static_cast<unsigned long long>(accesses), warmup,
        static_cast<long long>(args.getInt("seed")),
        untimed ? 1 : 0, nuca ? 1 : 0);

    // Run: one cell per cache size, each with a private cache (all
    // randomness re-seeded from --seed) driving the shared traces.
    // Resilient: a failing size renders as an explicit FAILED entry
    // and the other sizes still report; with FS_CHECKPOINT_DIR set
    // the sweep is resumable and with FS_EXECUTOR=process each cell
    // runs in a crash-contained worker process (docs/ROBUSTNESS.md).
    SweepRunner runner;
    auto report = runner.mapResilientCheckpointed(
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
        },
        "fscache_sim", config_key, encodeSimCell, decodeSimCell);

    // Quarantine manifest to stderr; printed only when cells
    // failed, so fault-free runs stay byte-identical.
    auto failures = report.failures();
    if (!failures.empty())
        std::fprintf(stderr, "%s", renderManifest(failures).c_str());
    const SimCellRecord *first = nullptr;
    for (const CellOutcome<SimCellRecord> &o : report.cells) {
        if (o.ok()) {
            first = &*o.value;
            break;
        }
    }
    if (first == nullptr) {
        std::fprintf(stderr, "fscache_sim: every sweep cell failed; "
                             "no results\n");
        return 1;
    }

    // Report in size order regardless of completion order.
    if (args.getFlag("json")) {
        JsonWriter json(std::cout);
        json.field("scheme", first->scheme);
        json.field("array", first->array);
        json.field("ranking", first->ranking);
        if (report.cells.size() == 1) {
            json.field("lines", std::uint64_t{first->cacheLines});
            reportJson(json, *first, wl, threads);
        } else {
            json.beginArray("cells");
            for (std::size_t i = 0; i < report.cells.size(); ++i) {
                const CellOutcome<SimCellRecord> &o =
                    report.cells[i];
                json.beginObject();
                json.field("lines", std::uint64_t{sizes[i]});
                if (o.ok()) {
                    reportJson(json, *o.value, wl, threads);
                } else {
                    json.field("failed", true);
                    json.field("error_class", failureLabel(o));
                }
                json.endObject();
            }
            json.endArray();
        }
        json.finish();
        std::printf("\n");
        return 0;
    }

    for (std::size_t i = 0; i < report.cells.size(); ++i) {
        const CellOutcome<SimCellRecord> &o = report.cells[i];
        if (!o.ok()) {
            std::printf("FAILED(%s) | %u lines, %u threads\n",
                        failureLabel(o).c_str(), sizes[i],
                        threads);
            continue;
        }
        const SimCellRecord &cell = *o.value;
        std::printf("%s | %s | %s | %u lines, %u threads\n",
                    cell.scheme.c_str(), cell.array.c_str(),
                    cell.ranking.c_str(), cell.cacheLines,
                    threads);
        reportTable(cell, wl, threads);
    }
    return 0;
}
