/**
 * @file
 * Span tracer for the reproduction benchmark: per-thread span stack,
 * per-operation call/item/self-time counters, and the layer each
 * operation belongs to.
 *
 * A span's self time is its duration minus the durations of the
 * spans opened while it was on top of the stack, so a callback into
 * another layer (Vantage's selectVictim asking the ranking for exact
 * futility through PartitionOps) is charged to that layer once.
 * Spans are recorded only from this directory — around the library's
 * public entry points and inside the wrapper objects in wrappers.hh —
 * never from inside the simulator.
 *
 * Time is read from the TSC on x86-64 (converted with a factor
 * measured against steady_clock over the traced rounds) and from
 * steady_clock elsewhere. When tracing is off a Span costs a
 * thread-local load and a predictable branch.
 */

#ifndef FSCACHE_PERFBENCH_TRACER_HH
#define FSCACHE_PERFBENCH_TRACER_HH

#include <array>
#include <chrono>
#include <cstdint>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench
{

/** The simulator modules (src/) the benchmark attributes time to. */
enum class Layer : std::uint8_t
{
    Bench, ///< the benchmark's own cell code (digest, targets)
    Trace,
    Cache,
    Ranking,
    Partition,
    Sim,
    Count
};

constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::Count);

/** Timed operations; each belongs to exactly one layer. */
enum class Op : std::uint8_t
{
    Cell,          ///< root span of one sweep cell
    TraceGen,      ///< Workload::mix / Workload::duplicate
    TraceAnnotate, ///< Workload::annotateNextUse
    TraceFill,     ///< TraceSource::fillBatch / next (live sources)
    TraceFree,     ///< Workload teardown
    CacheBuild,    ///< makeArray/makeRanking/makeScheme + cache ctor
    CacheFree,     ///< PartitionedCache teardown
    RankHit,
    RankInstall,
    RankEvict,
    RankQuery,     ///< schemeFutility / schemeFutilityMany
    RankExact,
    RankWorst,
    RankOther,     ///< partOf, partLines, relocate, retag
    PartSelect,
    PartUpdate,    ///< onInsertion + onEviction
    PartOther,     ///< bind, setTarget, pickFreeSlot
    SimRun,        ///< runUntimed / driveByInsertionRate / TimingSim
    Count
};

constexpr std::size_t kOps = static_cast<std::size_t>(Op::Count);

inline Layer
opLayer(Op op)
{
    switch (op) {
      case Op::Cell:
        return Layer::Bench;
      case Op::TraceGen:
      case Op::TraceAnnotate:
      case Op::TraceFill:
      case Op::TraceFree:
        return Layer::Trace;
      case Op::CacheBuild:
      case Op::CacheFree:
        return Layer::Cache;
      case Op::RankHit:
      case Op::RankInstall:
      case Op::RankEvict:
      case Op::RankQuery:
      case Op::RankExact:
      case Op::RankWorst:
      case Op::RankOther:
        return Layer::Ranking;
      case Op::PartSelect:
      case Op::PartUpdate:
      case Op::PartOther:
        return Layer::Partition;
      case Op::SimRun:
      case Op::Count:
        break;
    }
    return Layer::Sim;
}

/** Monotonic tick counter (TSC or steady_clock ns). */
inline std::uint64_t
ticks()
{
#if defined(__x86_64__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/** Counters of one thread's spans; summed across cells and rounds. */
struct SpanTotals
{
    std::array<std::uint64_t, kOps> calls{};
    std::array<std::uint64_t, kOps> items{};
    std::array<std::uint64_t, kOps> self{}; ///< ticks
    /** Self ticks per layer of spans nested inside a SimRun span
     *  (SimRun's own self included): must sum to SimRun's span. */
    std::array<std::uint64_t, kLayers> inDriver{};
    std::uint64_t driverSpan = 0; ///< total SimRun duration, ticks
    std::uint64_t rootSpan = 0;   ///< total duration of outermost spans
    std::uint64_t unbalanced = 0; ///< spans left open / stack overflow
    /** Spans whose children outlasted them (clock went backwards,
     *  e.g. unsynchronised TSCs across a migration); self clamped
     *  to 0. Any makes the layer accounting invalid. */
    std::uint64_t negative = 0;

    std::uint64_t
    layerSelf(Layer l) const
    {
        std::uint64_t s = 0;
        for (std::size_t o = 0; o < kOps; ++o)
            if (opLayer(static_cast<Op>(o)) == l)
                s += self[o];
        return s;
    }

    void
    add(const SpanTotals &o)
    {
        for (std::size_t i = 0; i < kOps; ++i) {
            calls[i] += o.calls[i];
            items[i] += o.items[i];
            self[i] += o.self[i];
        }
        for (std::size_t i = 0; i < kLayers; ++i)
            inDriver[i] += o.inDriver[i];
        driverSpan += o.driverSpan;
        rootSpan += o.rootSpan;
        unbalanced += o.unbalanced;
        negative += o.negative;
    }
};

/**
 * One measurement's span stack. Spans go to the tracer installed on
 * the calling thread by the innermost TracerScope, so a cell that
 * SweepRunner runs inline on the round's own thread still gets its
 * own counters.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** The calling thread's installed tracer, or null. */
    static Tracer *&
    current()
    {
        thread_local Tracer *t = nullptr;
        return t;
    }

    bool enabled() const { return enabled_; }

    /** Counters so far; reports unclosed spans as unbalanced. */
    SpanTotals
    totals() const
    {
        SpanTotals t = totals_;
        t.unbalanced += depth_;
        return t;
    }

    void
    push(Op op, std::uint64_t items)
    {
        if (depth_ == kMaxDepth) {
            ++overflow_;
            ++totals_.unbalanced;
            return;
        }
        if (op == Op::SimRun)
            ++driverDepth_;
        stack_[depth_++] = Frame{op, ticks(), 0};
        totals_.items[static_cast<std::size_t>(op)] += items;
    }

    void
    pop()
    {
        const std::uint64_t now = ticks();
        if (overflow_ > 0) {
            --overflow_;
            return;
        }
        if (depth_ == 0) {
            ++totals_.unbalanced;
            return;
        }
        const Frame f = stack_[--depth_];
        std::uint64_t dur = now - f.start;
        if (now < f.start || f.child > dur) {
            ++totals_.negative;
            dur = f.child;
        }
        const std::uint64_t self = dur - f.child;
        const auto o = static_cast<std::size_t>(f.op);
        ++totals_.calls[o];
        totals_.self[o] += self;
        if (driverDepth_ > 0)
            totals_.inDriver[static_cast<std::size_t>(opLayer(f.op))] +=
                self;
        if (f.op == Op::SimRun) {
            --driverDepth_;
            if (driverDepth_ == 0)
                totals_.driverSpan += dur;
        }
        if (depth_ > 0)
            stack_[depth_ - 1].child += dur;
        else
            totals_.rootSpan += dur;
    }

  private:
    struct Frame
    {
        Op op;
        std::uint64_t start;
        std::uint64_t child; ///< ticks covered by child spans
    };

    static constexpr std::size_t kMaxDepth = 64;

    std::array<Frame, kMaxDepth> stack_{};
    std::size_t depth_ = 0;
    std::size_t overflow_ = 0; ///< pushes refused for lack of room
    std::size_t driverDepth_ = 0;
    bool enabled_;
    SpanTotals totals_;
};

/** Installs a tracer on the calling thread for one scope. */
class TracerScope
{
  public:
    explicit TracerScope(Tracer &t) : prev_(Tracer::current())
    {
        Tracer::current() = &t;
    }

    ~TracerScope() { Tracer::current() = prev_; }

    TracerScope(const TracerScope &) = delete;
    TracerScope &operator=(const TracerScope &) = delete;

  private:
    Tracer *prev_;
};

/** RAII span; free apart from one branch when tracing is off. */
class Span
{
  public:
    explicit Span(Op op, std::uint64_t items = 0)
        : tracer_(Tracer::current())
    {
        if (tracer_ != nullptr && !tracer_->enabled())
            tracer_ = nullptr;
        if (tracer_ != nullptr)
            tracer_->push(op, items);
    }

    ~Span()
    {
        if (tracer_ != nullptr)
            tracer_->pop();
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer_;
};

} // namespace perfbench

#endif // FSCACHE_PERFBENCH_TRACER_HH
