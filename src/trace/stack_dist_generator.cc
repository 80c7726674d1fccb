#include "trace/stack_dist_generator.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace fscache
{

DepthDist
DepthDist::uniform(std::uint64_t lo, std::uint64_t hi)
{
    return {Kind::Uniform, lo, hi};
}

DepthDist
DepthDist::logUniform(std::uint64_t lo, std::uint64_t hi)
{
    return {Kind::LogUniform, lo, hi};
}

DepthDist
DepthDist::fixed(std::uint64_t d)
{
    return {Kind::Fixed, d, d};
}

std::uint64_t
DepthDist::sample(Rng &rng, std::uint64_t cap) const
{
    fs_assert(cap >= 1, "depth cap must be >= 1");
    std::uint64_t d;
    switch (kind) {
      case Kind::Uniform:
        d = rng.range(minDepth, maxDepth);
        break;
      case Kind::LogUniform: {
        // Draw uniformly in log space: d = min * (max/min)^U.
        if (logForMin_ != minDepth || logForMax_ != maxDepth) {
            logMin_ = std::log(static_cast<double>(minDepth));
            logMax_ = std::log(static_cast<double>(maxDepth));
            logForMin_ = minDepth;
            logForMax_ = maxDepth;
        }
        d = static_cast<std::uint64_t>(std::exp(
            logMin_ + (logMax_ - logMin_) * rng.uniform()));
        break;
      }
      case Kind::Fixed:
      default:
        d = minDepth;
        break;
    }
    if (d < 1)
        d = 1;
    if (d > cap)
        d = cap;
    return d;
}

namespace
{

/** Recency-axis length for `live` entries: the next power of two
 *  above them plus a quarter of headroom, so a renumber frees at
 *  least a fifth of the axis, and at least 64 (the smallest
 *  BitFenwick). */
std::uint32_t
stampCapacity(std::uint64_t live)
{
    fs_assert(live < (1u << 30), "stack too large for the stamp axis");
    std::uint64_t want = live + live / 4 + 16;
    std::uint32_t cap = 64;
    while (cap <= want)
        cap <<= 1;
    return cap;
}

} // namespace

StackDistGenerator::StackDistGenerator(const StackDistConfig &cfg,
                                       Addr base_addr, Rng rng)
    : cfg_(cfg), baseAddr_(base_addr), rng_(rng),
      gap_(cfg.meanInstrGap)
{
    fs_assert(cfg_.pNew >= 0.0 && cfg_.pNew <= 1.0, "bad pNew");
    fs_assert(cfg_.depth.minDepth >= 1 &&
                  cfg_.depth.minDepth <= cfg_.depth.maxDepth,
              "bad depth range");
    fs_assert(cfg_.maxResident >= 2, "need at least two residents");

    // Earlier versions seeded a treap from this stream here. The
    // draw stays so every generated trace is unchanged.
    static_cast<void>(rng_());

    // Prewarm: the oldest entries first, so depth d reaches address
    // warm - d initially. warm <= maxResident, so nothing is evicted
    // and the stack is a plain linear fill.
    std::uint64_t warm =
        cfg_.prewarm ? std::min(cfg_.depth.maxDepth, cfg_.maxResident)
                     : 0;
    std::uint32_t cap = stampCapacity(warm);
    live_.reset(cap);
    live_.fillPrefix(static_cast<std::uint32_t>(warm));
    lineAt_.assign(cap, kEmpty);
    for (std::uint32_t s = 0; s < warm; ++s)
        lineAt_[s] = s;
    stampNext_ = static_cast<std::uint32_t>(warm);
    nextNewAddr_ = warm;
}

void
StackDistGenerator::renumber()
{
    std::uint32_t live = live_.total();
    std::uint32_t next = 0;
    for (std::uint32_t s = 0; s < stampNext_; ++s) {
        if (lineAt_[s] != kEmpty)
            lineAt_[next++] = lineAt_[s];
    }
    std::uint32_t cap = stampCapacity(live);
    if (cap > live_.capacity()) {
        // The axis only grows with the live stack, which maxResident
        // bounds: at most log2(maxResident) doublings per generator.
        lineAt_.resize(cap);
        live_.reset(cap);
    }
    std::fill(lineAt_.begin() + next, lineAt_.end(), kEmpty);
    live_.fillPrefix(live);
    stampNext_ = live;
}

void
StackDistGenerator::push(std::uint32_t local)
{
    if (stampNext_ == live_.capacity())
        renumber();
    lineAt_[stampNext_] = local;
    live_.mark(stampNext_++);
    if (live_.total() > cfg_.maxResident) {
        std::uint32_t oldest = live_.select(0);
        live_.unmark(oldest);
        lineAt_[oldest] = kEmpty;
    }
}

Access
StackDistGenerator::next()
{
    std::uint32_t local;
    if (live_.total() == 0 || rng_.chance(cfg_.pNew)) {
        fs_assert(nextNewAddr_ < kEmpty,
                  "generator ran out of local addresses");
        local = static_cast<std::uint32_t>(nextNewAddr_++);
    } else {
        // Depth d = 1 is the most recently used entry, the live
        // stamp with total() - 1 older ones. Re-pushing it leaves
        // the size unchanged, so maxResident evicts nothing.
        std::uint32_t size = live_.total();
        auto d = static_cast<std::uint32_t>(
            cfg_.depth.sample(rng_, size));
        std::uint32_t stamp = live_.select(size - d);
        local = lineAt_[stamp];
        live_.unmark(stamp);
        lineAt_[stamp] = kEmpty;
    }
    push(local);

    Access acc;
    acc.addr = baseAddr_ + local;
    acc.instrGap = gap_.sample(rng_);
    return acc;
}

} // namespace fscache
