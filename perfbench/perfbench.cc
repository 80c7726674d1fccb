/**
 * @file
 * Reproduction benchmark: three slices of the paper's figures, timed
 * in host time from outside the simulator.
 *
 *   perfbench --workload rank-timed|qos-32|insert-driven --seed N
 *             --seconds S --trace 0|1 [--scale X] [--reference FILE]
 *             [--setup-only] [--emit-reference]
 *
 * A workload is a fixed list of sweep cells (build a cache, drive a
 * trace through it, digest its simulated statistics) run through
 * SweepRunner. One *round* runs every cell once; rounds repeat until
 * the time budget is spent and per-round figures are reported as
 * medians. With --trace 1, untraced and traced rounds alternate: the
 * traced ones hand the cache wrapper objects (wrappers.hh) that time
 * every ranking, scheme and live-generator call, and the untraced
 * ones give the tracing overhead. Run through run.py, which builds
 * this program and times its set-up.
 *
 * The last stdout line is `RESULT {json}`; human-readable metric
 * lines precede it.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/simd.hh"
#include "core/fscache.hh"
#include "runner/sweep_runner.hh"
#include "tracer.hh"
#include "wrappers.hh"

using namespace fscache;
using namespace perfbench;

namespace
{

// ---------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------

enum class Driver
{
    Timed,        ///< TimingSim over a materialised workload
    Untimed,      ///< runUntimed over a materialised workload
    InsertDriven, ///< driveByInsertionRate over live generators
};

/** One sweep cell. */
struct CellSpec
{
    std::string name;
    std::string rankLabel;
    std::string schemeLabel;
    Driver driver = Driver::Untimed;
    ArrayConfig array;
    RankKind rank = RankKind::CoarseTsLru;
    SchemeConfig scheme;
    std::uint32_t parts = 1;
    std::uint64_t cacheSeed = 1;
    std::uint32_t devSample = 1;

    // Materialised workloads (Timed / Untimed without a shared one).
    std::vector<std::string> mix;
    std::uint64_t accPerThread = 0;
    std::uint64_t traceSeed = 1;
    bool annotate = false;
    double warmup = 0.2;
    std::vector<std::uint32_t> targets; ///< empty: QoS allocation

    // Insert-driven cells.
    double split = 0.5;        ///< partition 1 target share
    std::uint64_t insertions = 0;
    std::uint64_t warmupInsertions = 0;
    std::uint64_t driveSeed = 1;
};

/** A workload: its cells plus what the round shares between them. */
struct WorkloadSpec
{
    std::string name;
    std::vector<CellSpec> cells;
    unsigned jobs = 1;
    /** Non-empty: one materialised workload per round, shared. */
    std::vector<std::string> sharedMix;
    std::uint64_t sharedAccPerThread = 0;
    std::uint64_t sharedSeed = 1;
};

// Sizes are slices of the full-scale benches (bench/*.cc), chosen so
// one round of each workload takes 4-10 s on a 4-core host and two or
// more rounds fit in a 30 s run.
// --scale multiplies them (representativeness checks only: the
// reference digests and the recorded baselines are at scale 1).
constexpr std::uint64_t kFig2AccPerThread = 30000;     // fig2: 150000
constexpr std::uint64_t kAblationAccPerThread = 45000; // ablation: 200000
constexpr std::uint64_t kQosAccPerThread = 30000;      // fig7: 60000
constexpr std::uint32_t kQosSubjects = 13;
constexpr std::uint64_t kInsertions = 40000;           // fig4: 120000
constexpr std::uint64_t kWarmupInsertions = 20000;     // fig4: 60000

constexpr LineId kFig2LinesPerPart = 8192;
constexpr LineId kAblationLines = 65536;
constexpr LineId kQosLines = 131072;
constexpr std::uint32_t kQosThreads = 32;
constexpr std::uint32_t kQosSubjectLines = 4096;
constexpr LineId kInsertLines = 32768;
constexpr std::uint32_t kInsertR = 16;

unsigned
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return 1;
}

std::uint64_t
scaled(std::uint64_t n, double scale)
{
    return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(n * scale));
}

/** Seed stream for one input of one cell, from the workload seed. */
std::uint64_t
derive(std::uint64_t seed, std::uint64_t tag)
{
    return mix64(seed * 0x9e3779b97f4a7c15ull + tag);
}

SchemeConfig
schemeOf(SchemeKind kind)
{
    SchemeConfig cfg;
    cfg.kind = kind;
    return cfg;
}

WorkloadSpec
rankTimed(std::uint64_t seed, double scale)
{
    WorkloadSpec w;
    w.name = "rank-timed";
    // fig2: PF + OPT, 16-way SA, 8192 lines per partition, one
    // benchmark duplicated N times.
    std::uint64_t tag = 0;
    for (const char *bench : {"mcf", "gromacs", "lbm"}) {
        for (std::uint32_t n : {4u, 16u}) {
            CellSpec c;
            c.name = strprintf("fig2/%s/N%u", bench, n);
            c.rankLabel = "opt";
            c.schemeLabel = "pf";
            c.driver = Driver::Timed;
            c.array.kind = ArrayKind::SetAssoc;
            c.array.numLines = kFig2LinesPerPart * n;
            c.array.ways = 16;
            c.array.hash = HashKind::XorFold;
            c.rank = RankKind::Opt;
            c.scheme = schemeOf(SchemeKind::PF);
            c.parts = n;
            c.cacheSeed = derive(seed, ++tag);
            c.devSample = 13;
            c.mix.assign(n, bench);
            c.accPerThread = scaled(kFig2AccPerThread, scale);
            c.traceSeed = derive(seed, ++tag);
            c.annotate = true;
            c.warmup = 0.25;
            c.targets.assign(n, kFig2LinesPerPart);
            w.cells.push_back(std::move(c));
        }
    }
    // ablation_rankings: FS on a heterogeneous 4-thread mix.
    struct RankEntry
    {
        const char *label;
        RankKind kind;
    };
    for (RankEntry e : {RankEntry{"opt", RankKind::Opt},
                        RankEntry{"lfu", RankKind::Lfu},
                        RankEntry{"rrip", RankKind::Rrip},
                        RankEntry{"random", RankKind::Random}}) {
        CellSpec c;
        c.name = strprintf("ablation_rankings/%s", e.label);
        c.rankLabel = e.label;
        c.schemeLabel = "fs";
        c.driver = Driver::Timed;
        c.array.kind = ArrayKind::SetAssoc;
        c.array.numLines = kAblationLines;
        c.array.ways = 16;
        c.rank = e.kind;
        c.scheme = schemeOf(SchemeKind::Fs);
        c.parts = 4;
        c.cacheSeed = derive(seed, 100);
        c.mix = {"mcf", "gromacs", "cactusadm", "lbm"};
        c.accPerThread = scaled(kAblationAccPerThread, scale);
        c.traceSeed = derive(seed, 101);
        c.annotate = e.kind == RankKind::Opt;
        c.warmup = 0.3;
        c.targets = equalShare(kAblationLines, 4);
        w.cells.push_back(std::move(c));
    }
    return w;
}

WorkloadSpec
qos32(std::uint64_t seed, double scale)
{
    WorkloadSpec w;
    w.name = "qos-32";
    w.jobs = std::min(2u, hostCpus());
    for (std::uint32_t t = 0; t < kQosThreads; ++t)
        w.sharedMix.push_back(t < kQosSubjects ? "gromacs" : "lbm");
    w.sharedAccPerThread = scaled(kQosAccPerThread, scale);
    w.sharedSeed = derive(seed, 200);

    struct SchemeEntry
    {
        const char *label;
        SchemeKind kind;
        ArrayKind array;
        bool exactThresholds;
    };
    // bench/qos_common.hh's six QoS schemes.
    for (SchemeEntry e :
         {SchemeEntry{"fullassoc", SchemeKind::PF, ArrayKind::FullyAssoc,
                      true},
          SchemeEntry{"pf", SchemeKind::PF, ArrayKind::SetAssoc, true},
          SchemeEntry{"fs", SchemeKind::Fs, ArrayKind::SetAssoc, true},
          SchemeEntry{"vantage", SchemeKind::Vantage, ArrayKind::SetAssoc,
                      true},
          SchemeEntry{"vantage-rt", SchemeKind::Vantage,
                      ArrayKind::SetAssoc, false},
          SchemeEntry{"prism", SchemeKind::Prism, ArrayKind::SetAssoc,
                      true}}) {
        CellSpec c;
        c.name = strprintf("fig7/Nsub%u/%s", kQosSubjects, e.label);
        c.rankLabel = "coarse";
        c.schemeLabel = e.label;
        c.driver = Driver::Untimed;
        c.array.kind = e.array;
        c.array.numLines = kQosLines;
        c.array.ways = 16;
        c.array.hash = HashKind::XorFold;
        c.rank = RankKind::CoarseTsLru;
        c.scheme = schemeOf(e.kind);
        c.scheme.vantage.exactThresholds = e.exactThresholds;
        c.parts = kQosThreads;
        c.cacheSeed = derive(seed, 201);
        c.devSample = 13;
        c.warmup = 0.3;
        w.cells.push_back(std::move(c));
    }
    return w;
}

WorkloadSpec
insertDriven(std::uint64_t seed, double scale)
{
    WorkloadSpec w;
    w.name = "insert-driven";
    struct SchemeEntry
    {
        const char *label;
        SchemeKind kind;
    };
    std::uint64_t tag = 300;
    for (double split : {0.9, 0.6}) {
        for (SchemeEntry e : {SchemeEntry{"fs-analytic",
                                          SchemeKind::FsAnalytic},
                              SchemeEntry{"fs", SchemeKind::Fs},
                              SchemeEntry{"pf", SchemeKind::PF}}) {
            CellSpec c;
            c.name = strprintf("fig4/%s/%.0f-%.0f", e.label, split * 10,
                               (1.0 - split) * 10);
            c.rankLabel = "lru";
            c.schemeLabel = e.label;
            c.driver = Driver::InsertDriven;
            c.array.kind = ArrayKind::RandomCands;
            c.array.numLines = kInsertLines;
            c.array.randomCands = kInsertR;
            c.rank = RankKind::ExactLru;
            c.scheme = schemeOf(e.kind);
            c.parts = 2;
            c.cacheSeed = derive(seed, ++tag);
            c.split = split;
            auto t1 = static_cast<std::uint32_t>(kInsertLines * split);
            c.targets = {t1, kInsertLines - t1};
            c.insertions = scaled(kInsertions, scale);
            c.warmupInsertions = scaled(kWarmupInsertions, scale);
            c.traceSeed = derive(seed, ++tag);
            c.driveSeed = derive(seed, ++tag);
            w.cells.push_back(std::move(c));
        }
    }
    return w;
}

std::optional<WorkloadSpec>
makeWorkload(const std::string &name, std::uint64_t seed, double scale)
{
    if (name == "rank-timed")
        return rankTimed(seed, scale);
    if (name == "qos-32")
        return qos32(seed, scale);
    if (name == "insert-driven")
        return insertDriven(seed, scale);
    return std::nullopt;
}

// ---------------------------------------------------------------
// Cells
// ---------------------------------------------------------------

/** FNV-1a over 64-bit words. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    void
    addDouble(double d)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        add(bits);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct CellResult
{
    std::uint64_t digest = 0;
    /** Records generated: the materialised trace length, or what
     *  the live generators produced (insert-driven). */
    std::uint64_t records = 0;
    double wallS = 0.0;
    std::uint64_t demotions = 0;
    /** Resident set when the cell's cache and traces were all live. */
    double rssMb = 0.0;
    SpanTotals spans;
};

/**
 * Resident set size in MB, counted exactly from the page tables
 * (smaps_rollup). The kernel's running RSS counters, which
 * getrusage's peak reads, are per-CPU approximations; on a 4-vCPU
 * Linux 6.18 guest they put identical runs 15% apart.
 */
double
residentMb()
{
    std::ifstream in("/proc/self/smaps_rollup");
    std::string key;
    double kb = 0.0;
    while (in >> key) {
        if (key == "Rss:" && in >> kb)
            return kb / 1024.0;
        in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    return 0.0;
}

double
seconds(std::chrono::steady_clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

std::unique_ptr<PartitionedCache>
assemble(const CellSpec &c, bool traced, TracedScheme **traced_scheme)
{
    ArrayConfig acfg = c.array;
    acfg.seed = c.cacheSeed;
    auto array = makeArray(acfg);
    std::unique_ptr<FutilityRanking> ranking = makeRanking(
        c.rank, array->numLines(), &array->tags(), c.cacheSeed);
    std::unique_ptr<PartitionScheme> scheme = makeScheme(c.scheme);
    auto *analytic = dynamic_cast<FutilityScalingAnalytic *>(scheme.get());
    if (traced) {
        ranking = std::make_unique<TracedRanking>(std::move(ranking));
        auto wrapped = std::make_unique<TracedScheme>(std::move(scheme));
        *traced_scheme = wrapped.get();
        scheme = std::move(wrapped);
    }
    auto cache = std::make_unique<PartitionedCache>(
        std::move(array), std::move(ranking), std::move(scheme), c.parts);
    if (analytic != nullptr) {
        // fig4's open-loop factors (bind() reset them to 1).
        analytic->setScalingFactor(0, 1.0);
        analytic->setScalingFactor(
            1, analytic::scalingFactorTwoPart(c.split, 0.5, kInsertR));
    }
    return cache;
}

void
setTargets(PartitionedCache &cache, const CellSpec &c)
{
    if (!c.targets.empty()) {
        cache.setTargets(c.targets);
        return;
    }
    auto manageable = static_cast<LineId>(
        kQosLines * cache.scheme().managedFraction());
    fs_assert(kQosSubjects * kQosSubjectLines <= manageable,
              "QoS guarantees exceed the managed capacity");
    cache.setTargets(qosAllocation(manageable, kQosThreads, kQosSubjects,
                                   kQosSubjectLines));
}

CellResult
runCell(const CellSpec &c, const Workload *shared, bool traced)
{
    Tracer tracer(traced);
    TracerScope scope(tracer);
    const auto t0 = std::chrono::steady_clock::now();
    CellResult r;
    {
        Span root(Op::Cell);
        std::optional<Workload> own;
        std::vector<std::unique_ptr<TraceSource>> src; // live generators
        const Workload *wl = shared;
        if (c.driver != Driver::InsertDriven && shared == nullptr) {
            {
                Span s(Op::TraceGen, c.mix.size() * c.accPerThread);
                own.emplace(
                    Workload::mix(c.mix, c.accPerThread, c.traceSeed));
            }
            if (c.annotate) {
                Span s(Op::TraceAnnotate);
                own->annotateNextUse();
            }
            wl = &*own;
        }

        TracedScheme *traced_scheme = nullptr;
        std::unique_ptr<PartitionedCache> cache;
        {
            Span s(Op::CacheBuild);
            cache = assemble(c, traced, &traced_scheme);
        }
        setTargets(*cache, c);
        cache->setDeviationSampleInterval(c.devSample);

        Digest d;
        if (c.driver == Driver::Timed) {
            TimingConfig cfg;
            cfg.warmupFraction = c.warmup;
            std::optional<TimingSim> sim;
            {
                Span s(Op::SimRun);
                sim.emplace(*cache, *wl, cfg);
                sim->run();
            }
            for (std::uint32_t t = 0; t < wl->threadCount(); ++t) {
                d.add(sim->perf(t).cycles);
                d.add(sim->perf(t).instructions);
            }
        } else if (c.driver == Driver::Untimed) {
            Span s(Op::SimRun);
            runUntimed(*cache, *wl, c.warmup);
        } else {
            {
                Span s(Op::TraceGen);
                for (std::uint32_t p = 0; p < 2; ++p) {
                    src.push_back(std::make_unique<CountedSource>(
                        makeBenchmarkTrace("mcf", threadBaseAddr(p),
                                           Rng(derive(c.traceSeed, p))),
                        &r.records));
                }
            }
            std::vector<double> prefill{c.split, 1.0 - c.split};
            Span s(Op::SimRun);
            driveByInsertionRate(*cache, src, {0.5, 0.5}, c.insertions,
                                 c.warmupInsertions, c.driveSeed,
                                 &prefill);
        }
        if (wl != nullptr)
            for (const ThreadTrace &t : wl->threads())
                r.records += t.trace.size();

        for (std::uint32_t p = 0; p < c.parts; ++p) {
            const CachePartStats &st = cache->stats(p);
            d.add(st.hits);
            d.add(st.misses);
            d.add(st.insertions);
            d.add(st.evictions);
            d.addDouble(cache->assocDist(p).aef());
            d.addDouble(cache->deviation(p).meanOccupancy());
        }
        r.digest = d.value();
        r.rssMb = residentMb();
        if (traced_scheme != nullptr)
            r.demotions = traced_scheme->demotions();

        {
            Span s(Op::CacheFree);
            cache.reset();
        }
        {
            Span s(Op::TraceFree);
            src.clear();
            own.reset();
        }
    }
    r.wallS = seconds(std::chrono::steady_clock::now() - t0);
    r.spans = tracer.totals();
    return r;
}

// ---------------------------------------------------------------
// Rounds
// ---------------------------------------------------------------

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

struct Round
{
    bool traced = false;
    double wallS = 0.0;    ///< round start (shared traces) .. last cell end
    double cpuS = 0.0;
    double mapWallS = 0.0; ///< SweepRunner::mapResilient call
    std::uint64_t records = 0;
    std::vector<CellOutcome<CellResult>> cells;
    SpanTotals spans;     ///< every thread's spans of the round
    std::uint64_t ticks = 0; ///< clock ticks over wallS
};

Round
runRound(const WorkloadSpec &w, bool traced)
{
    Round round;
    round.traced = traced;
    Tracer main_tracer(traced);
    TracerScope scope(main_tracer);
    const double cpu0 = cpuSeconds();
    const std::uint64_t tick0 = ticks();
    const auto t0 = std::chrono::steady_clock::now();

    std::optional<Workload> shared;
    if (!w.sharedMix.empty()) {
        Span s(Op::TraceGen, w.sharedMix.size() * w.sharedAccPerThread);
        shared.emplace(Workload::mix(w.sharedMix, w.sharedAccPerThread,
                                     w.sharedSeed));
    }

    const auto m0 = std::chrono::steady_clock::now();
    SweepRunner runner(w.jobs);
    SweepReport<CellResult> report = runner.mapResilient(
        w.cells.size(),
        [&](std::size_t i) {
            return runCell(w.cells[i], shared ? &*shared : nullptr, traced);
        },
        CellGuardConfig{});
    round.mapWallS = seconds(std::chrono::steady_clock::now() - m0);

    if (shared) {
        Span s(Op::TraceFree);
        shared.reset();
    }
    round.wallS = seconds(std::chrono::steady_clock::now() - t0);
    round.ticks = ticks() - tick0;
    round.cpuS = cpuSeconds() - cpu0;
    round.spans = main_tracer.totals();
    round.cells = std::move(report.cells);
    for (const CellOutcome<CellResult> &o : round.cells) {
        if (!o.ok())
            continue;
        round.records += o.value->records;
        round.spans.add(o.value->spans);
    }
    return round;
}

// ---------------------------------------------------------------
// Reference digests
// ---------------------------------------------------------------

/** "workload seed cell" -> digest. */
using Reference = std::map<std::string, std::uint64_t>;

std::string
refKey(const std::string &workload, std::uint64_t seed,
       const std::string &cell)
{
    return workload + " " + std::to_string(seed) + " " + cell;
}

bool
loadReference(const std::string &path, Reference &ref)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string workload, cell, hex;
        std::uint64_t seed = 0;
        if (!(ls >> workload >> seed >> cell >> hex))
            return false;
        ref[refKey(workload, seed, cell)] =
            std::strtoull(hex.c_str(), nullptr, 16);
    }
    return true;
}

// ---------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note;
};

class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit,
        const std::string &note = "")
    {
        metrics_.push_back({name, value, unit, note});
    }

    void
    print() const
    {
        for (const Metric &m : metrics_) {
            std::printf("%-34s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                        m.unit.c_str(), m.note.c_str());
        }
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const Metric &m = metrics_[i];
            out += strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": "
                             "\"%s\"}",
                             i ? ", " : "", m.name.c_str(), m.value,
                             m.unit.c_str());
        }
        return out + "}";
    }

  private:
    std::vector<Metric> metrics_;
};

const char *const kRefusedEnv[] = {"FS_AUDIT",    "FS_SHADOW",
                                   "FS_FAULTS",   "FS_SIMD",
                                   "FS_JOBS",     "FS_EXECUTOR",
                                   "FS_BENCH_SCALE"};

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

#if defined(__clang__)
constexpr const char *kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char *kCompiler = "gcc " __VERSION__;
#else
constexpr const char *kCompiler = "unknown";
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    double scale = 1.0;
    bool trace = false;
    std::string reference;
    bool setupOnly = false;
    bool emitReference = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "rank-timed|qos-32|insert-driven --seed N --seconds S "
                 "--trace 0|1 [--scale X] [--reference FILE] [--setup-only] "
                 "[--emit-reference]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            std::string v = value();
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                usage("--seed takes an unsigned integer");
        } else if (a == "--seconds") {
            std::string v = value();
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(o.seconds > 0.0))
                usage("--seconds takes a positive number");
        } else if (a == "--scale") {
            std::string v = value();
            o.scale = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(o.scale > 0.0))
                usage("--scale takes a positive number");
        } else if (a == "--trace") {
            std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--reference") {
            o.reference = value();
        } else if (a == "--setup-only") {
            o.setupOnly = true;
        } else if (a == "--emit-reference") {
            o.emitReference = true;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

/** Everything a run needs before its first cell starts. */
struct Setup
{
    WorkloadSpec workload;
    Reference reference;
    std::string stamp;
};

Setup
setUp(const Options &opt)
{
    for (const char *name : kRefusedEnv) {
        if (std::getenv(name) != nullptr) {
            std::fprintf(stderr,
                         "perfbench: %s is set; it changes what is "
                         "measured, so the benchmark refuses to run\n",
                         name);
            std::exit(2);
        }
    }
    std::optional<WorkloadSpec> w = makeWorkload(opt.workload, opt.seed, opt.scale);
    if (!w)
        usage(("unknown workload " + opt.workload).c_str());

    Setup s;
    s.workload = std::move(*w);
    // Resolve the SIMD dispatch and the benchmark profile tables
    // here so the first cell does not pay for them.
    simd::kernels();
    for (const std::string &name : benchmarkNames())
        benchmarkProfile(name);
    // Digests are kept at scale 1 only.
    if (!opt.reference.empty() && opt.scale == 1.0 &&
        !loadReference(opt.reference, s.reference)) {
        std::fprintf(stderr, "perfbench: cannot read reference %s\n",
                     opt.reference.c_str());
        std::exit(2);
    }
    s.stamp = strprintf(
        "{\"cpu\": \"%s\", \"nproc\": %u, \"compiler\": \"%s\", "
        "\"build_type\": \"%s\", \"simd\": \"%s\", \"jobs\": %u}",
        cpuModel().c_str(), hostCpus(), kCompiler, PERFBENCH_BUILD_TYPE,
        simd::backendName(), s.workload.jobs);
    return s;
}

std::string
hex(std::uint64_t v)
{
    return strprintf("%016llx", static_cast<unsigned long long>(v));
}

/** What went wrong in a run; empty problems means correct. */
struct Verdict
{
    std::uint64_t attemptedCells = 0;
    std::uint64_t failedCells = 0;
    std::size_t refChecked = 0;
    std::vector<std::string> problems;
};

/**
 * Every cell ran, matches the reference digest for this seed when one
 * is kept, and repeats the first round's digest in every later round
 * — traced rounds included, which shows the wrappers do not perturb
 * the simulation.
 */
Verdict
checkCells(const WorkloadSpec &w, const std::vector<Round> &rounds,
           const Reference &reference, std::uint64_t seed)
{
    Verdict v;
    for (std::size_t ri = 0; ri < rounds.size(); ++ri) {
        const Round &r = rounds[ri];
        for (std::size_t i = 0; i < w.cells.size(); ++i) {
            ++v.attemptedCells;
            const CellOutcome<CellResult> &o = r.cells[i];
            const CellOutcome<CellResult> &first = rounds[0].cells[i];
            std::string why;
            auto ref = reference.find(refKey(w.name, seed, w.cells[i].name));
            if (!o.ok()) {
                why = "failed: " + o.error;
            } else if (ref != reference.end()) {
                ++v.refChecked;
                if (ref->second != o.value->digest)
                    why = "digest " + hex(o.value->digest) +
                          " != reference " + hex(ref->second);
            }
            if (why.empty() && ri > 0 && o.ok() && first.ok() &&
                first.value->digest != o.value->digest) {
                why = "digest " + hex(o.value->digest) +
                      " != first round's " + hex(first.value->digest);
            }
            if (why.empty())
                continue;
            ++v.failedCells;
            v.problems.push_back(strprintf(
                "round %zu%s cell %s: %s", ri + 1,
                r.traced ? " (traced)" : "", w.cells[i].name.c_str(),
                why.c_str()));
        }
    }
    return v;
}

/** Replay rate of each round of one kind, in accesses per second. */
std::vector<double>
rates(const std::vector<Round> &rounds, bool traced)
{
    std::vector<double> out;
    for (const Round &r : rounds)
        if (r.traced == traced)
            out.push_back(r.records / r.wallS);
    return out;
}

void
endToEndMetrics(const std::vector<Round> &rounds, Report &report)
{
    std::vector<double> cpu;
    double peak_mb = 0.0;
    for (const Round &r : rounds) {
        cpu.push_back(r.cpuS);
        for (const CellOutcome<CellResult> &o : r.cells)
            if (o.ok())
                peak_mb = std::max(peak_mb, o.value->rssMb);
    }
    const std::string note = strprintf("median of %zu rounds", cpu.size());
    report.add("sim_acc_per_s", median(rates(rounds, false)), "acc/s",
               note);
    report.add("cpu_s", median(cpu), "s", note + ", per round");
    report.add("peak_rss_mb", peak_mb, "MB",
               "largest resident set at the end of a cell");
}

void
perLayerMetrics(const WorkloadSpec &w, const std::vector<Round> &rounds,
                Report &report, Verdict &v)
{
    // Sums over the traced rounds, reported per round or per call.
    SpanTotals t;
    double traced_wall = 0.0;
    std::uint64_t traced_ticks = 0, traced_records = 0, demotions = 0;
    std::map<std::string, std::uint64_t> rank_self, part_self;
    std::size_t nt = 0;
    // Runner figures come from the untraced rounds.
    std::vector<double> cell_walls, idle;
    for (const Round &r : rounds) {
        if (!r.traced) {
            double busy = 0.0;
            for (const CellOutcome<CellResult> &o : r.cells) {
                if (o.ok()) {
                    cell_walls.push_back(o.value->wallS);
                    busy += o.value->wallS;
                }
            }
            idle.push_back(1.0 - busy / (w.jobs * r.mapWallS));
            continue;
        }
        ++nt;
        t.add(r.spans);
        traced_wall += r.wallS;
        traced_ticks += r.ticks;
        traced_records += r.records;
        for (std::size_t i = 0; i < w.cells.size(); ++i) {
            if (!r.cells[i].ok())
                continue;
            const CellResult &cr = *r.cells[i].value;
            rank_self[w.cells[i].rankLabel] +=
                cr.spans.layerSelf(Layer::Ranking);
            part_self[w.cells[i].schemeLabel] +=
                cr.spans.layerSelf(Layer::Partition);
            demotions += cr.demotions;
        }
    }

    const double ns_per_tick = traced_wall * 1e9 / traced_ticks;
    auto per_round_s = [&](std::uint64_t ticks) {
        return ticks * ns_per_tick * 1e-9 / nt;
    };
    auto per_round = [&](std::uint64_t n) {
        return static_cast<double>(n) / nt;
    };
    auto ratio = [](std::uint64_t a, std::uint64_t b) {
        return b ? static_cast<double>(a) / b : 0.0;
    };
    auto self = [&](Op o) { return t.self[static_cast<std::size_t>(o)]; };
    auto calls = [&](Op o) { return t.calls[static_cast<std::size_t>(o)]; };
    auto items = [&](Op o) { return t.items[static_cast<std::size_t>(o)]; };
    auto ns_per_call = [&](Op o) {
        return ratio(self(o), calls(o)) * ns_per_tick;
    };
    auto in_driver = [&](Layer l) {
        return per_round_s(t.inDriver[static_cast<std::size_t>(l)]);
    };

    // Span accounting: each tick of every root span lands in exactly
    // one layer's self time, none is negative, and the driver span
    // splits into sim self time plus its children.
    std::uint64_t layer_sum = 0, driver_sum = 0;
    for (std::size_t l = 0; l < kLayers; ++l) {
        layer_sum += t.layerSelf(static_cast<Layer>(l));
        driver_sum += t.inDriver[l];
    }
    if (layer_sum != t.rootSpan || driver_sum != t.driverSpan ||
        t.unbalanced != 0 || t.negative != 0) {
        v.problems.push_back(strprintf(
            "span accounting: layers %llu vs root %llu ticks, driver "
            "children %llu vs driver %llu, unbalanced %llu, negative %llu",
            static_cast<unsigned long long>(layer_sum),
            static_cast<unsigned long long>(t.rootSpan),
            static_cast<unsigned long long>(driver_sum),
            static_cast<unsigned long long>(t.driverSpan),
            static_cast<unsigned long long>(t.unbalanced),
            static_cast<unsigned long long>(t.negative)));
    }
    // Every replayed access is one ranking onHit or onInstall; live
    // generators are pulled ahead, so they may produce more.
    const std::uint64_t replayed = calls(Op::RankHit) + calls(Op::RankInstall);
    const bool live = w.cells.front().driver == Driver::InsertDriven;
    if (live ? replayed > traced_records : replayed != traced_records) {
        v.problems.push_back(strprintf(
            "replayed %llu accesses for %llu records",
            static_cast<unsigned long long>(replayed),
            static_cast<unsigned long long>(traced_records)));
    }

    const std::string pr = strprintf("per round, %zu traced rounds", nt);
    const std::uint64_t generated = items(Op::TraceGen) + items(Op::TraceFill);
    const std::uint64_t gen_ticks = self(Op::TraceGen) + self(Op::TraceFill);
    report.add("trace.gen_s", per_round_s(gen_ticks), "s", pr);
    report.add("trace.records", per_round(generated), "count", pr);
    report.add("trace.ns_per_record", ratio(gen_ticks, generated) * ns_per_tick,
               "ns");
    report.add("trace.annotate_s", per_round_s(self(Op::TraceAnnotate)), "s",
               pr);
    report.add("trace.used_frac", ratio(replayed, traced_records), "ratio",
               "records replayed / offered to the cache");
    report.add("cache.build_s", per_round_s(self(Op::CacheBuild)), "s", pr);
    report.add("cache.free_s", per_round_s(self(Op::CacheFree)), "s", pr);
    report.add("cache.cands_per_evict",
               ratio(items(Op::PartSelect), calls(Op::PartSelect)), "count");
    report.add("ranking.self_s", per_round_s(t.layerSelf(Layer::Ranking)),
               "s", pr);
    report.add("ranking.hit_ns", ns_per_call(Op::RankHit), "ns");
    report.add("ranking.install_ns", ns_per_call(Op::RankInstall), "ns");
    report.add("ranking.evict_ns", ns_per_call(Op::RankEvict), "ns");
    report.add("ranking.query_ns_per_cand",
               ratio(self(Op::RankQuery), items(Op::RankQuery)) * ns_per_tick,
               "ns");
    report.add("ranking.exact_ns", ns_per_call(Op::RankExact), "ns");
    report.add("ranking.worst_ns", ns_per_call(Op::RankWorst), "ns");
    report.add("ranking.worst_calls", per_round(calls(Op::RankWorst)),
               "count", pr);
    for (const char *k : {"opt", "lfu", "rrip", "random", "coarse", "lru"})
        report.add(std::string("ranking.self_s.") + k,
                   per_round_s(rank_self[k]), "s", pr);
    report.add("partition.self_s", per_round_s(t.layerSelf(Layer::Partition)),
               "s", pr);
    report.add("partition.select_ns", ns_per_call(Op::PartSelect), "ns");
    report.add("partition.update_ns", ns_per_call(Op::PartUpdate), "ns");
    report.add("partition.demotions", per_round(demotions), "count", pr);
    for (const char *k : {"fullassoc", "pf", "fs", "fs-analytic", "vantage",
                          "vantage-rt", "prism"})
        report.add(std::string("partition.self_s.") + k,
                   per_round_s(part_self[k]), "s", pr);
    report.add("sim.self_s", per_round_s(t.layerSelf(Layer::Sim)), "s", pr);
    report.add("sim.driver_s", per_round_s(t.driverSpan), "s",
               strprintf("%s; = sim %.4f + ranking %.4f + partition %.4f "
                         "+ trace %.4f",
                         pr.c_str(), in_driver(Layer::Sim),
                         in_driver(Layer::Ranking),
                         in_driver(Layer::Partition), in_driver(Layer::Trace)));
    report.add("sim.hit_ratio", ratio(calls(Op::RankHit), replayed), "ratio",
               "warmup included");
    report.add("sim.evictions", per_round(calls(Op::RankEvict)), "count", pr);
    report.add("bench.self_s", per_round_s(t.layerSelf(Layer::Bench)), "s",
               pr + "; digests, targets");
    report.add("runner.cell_s_p50", median(cell_walls), "s",
               strprintf("%zu untraced cells", cell_walls.size()));
    report.add("runner.cell_s_max",
               *std::max_element(cell_walls.begin(), cell_walls.end()), "s",
               strprintf("%zu untraced cells", cell_walls.size()));
    report.add("runner.cell_samples", static_cast<double>(cell_walls.size()),
               "count");
    report.add("runner.idle_frac", median(idle), "ratio",
               strprintf("jobs=%u, median of %zu untraced rounds", w.jobs,
                         idle.size()));
    std::uint64_t spans = 0;
    for (std::uint64_t c : t.calls)
        spans += c;
    report.add("bench.spans", per_round(spans), "count",
               pr + "; two clock reads each");
    const double untraced = median(rates(rounds, false));
    const double traced = median(rates(rounds, true));
    report.add("bench.tracing_overhead_frac", 1.0 - traced / untraced,
               "ratio",
               strprintf("1 - traced/untraced sim_acc_per_s (%.6g / %.6g)",
                         traced, untraced));
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    Setup setup = setUp(opt);
    if (opt.setupOnly)
        return 0;
    const WorkloadSpec &w = setup.workload;

    if (opt.emitReference) {
        Round r = runRound(w, false);
        for (std::size_t i = 0; i < w.cells.size(); ++i) {
            if (!r.cells[i].ok()) {
                std::fprintf(stderr, "perfbench: cell %s failed: %s\n",
                             w.cells[i].name.c_str(),
                             r.cells[i].error.c_str());
                return 1;
            }
            std::printf("%s %llu %s %s\n", w.name.c_str(),
                        static_cast<unsigned long long>(opt.seed),
                        w.cells[i].name.c_str(),
                        hex(r.cells[i].value->digest).c_str());
        }
        return 0;
    }

    std::printf("STAMP %s\n", setup.stamp.c_str());
    std::fflush(stdout);

    // Rounds repeat until the next one would overrun the budget. A
    // traced run alternates untraced and traced rounds.
    std::vector<Round> rounds;
    const auto start = std::chrono::steady_clock::now();
    double longest = 0.0;
    while (true) {
        double elapsed =
            seconds(std::chrono::steady_clock::now() - start);
        bool need_traced = opt.trace && rounds.size() < 2;
        if (!rounds.empty() && !need_traced &&
            elapsed + longest > opt.seconds)
            break;
        bool traced = opt.trace && rounds.size() % 2 == 1;
        rounds.push_back(runRound(w, traced));
        longest = std::max(longest, rounds.back().wallS);
        std::fprintf(stderr, "[perfbench] %s round %zu%s: %.3f s\n",
                     w.name.c_str(), rounds.size(),
                     traced ? " (traced)" : "", rounds.back().wallS);
    }

    Verdict v = checkCells(w, rounds, setup.reference, opt.seed);
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        const CellOutcome<CellResult> &o = rounds[0].cells[i];
        std::printf("digest %s %llu %s %s\n", w.name.c_str(),
                    static_cast<unsigned long long>(opt.seed),
                    w.cells[i].name.c_str(),
                    o.ok() ? hex(o.value->digest).c_str() : "FAILED");
    }
    if (v.refChecked > 0)
        std::printf("reference: %zu cell digests checked\n", v.refChecked);
    else
        std::printf("reference: none kept for this seed; digests printed "
                    "above for diffing\n");

    Report report;
    if (opt.trace)
        perLayerMetrics(w, rounds, report, v);
    else
        endToEndMetrics(rounds, report);

    std::printf("%-34s %16.6g %-6s %llu of %llu cells failed\n",
                "cell_fail_ratio",
                static_cast<double>(v.failedCells) / v.attemptedCells,
                "ratio", static_cast<unsigned long long>(v.failedCells),
                static_cast<unsigned long long>(v.attemptedCells));
    for (const std::string &p : v.problems)
        std::printf("FAIL %s\n", p.c_str());
    report.print();
    const bool correct = v.problems.empty();
    std::printf("RESULT {\"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(v.attemptedCells),
                static_cast<unsigned long long>(v.failedCells),
                report.json().c_str());
    return correct ? 0 : 1;
}
