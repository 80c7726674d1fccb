#include "trace/stack_dist_generator.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

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

    // Prewarm: stamp s holds address s (implicitly, see lineAt()),
    // oldest first, so depth d reaches address warm - d initially.
    // warm <= maxResident, so nothing is evicted.
    std::uint64_t warm =
        cfg_.prewarm ? std::min(cfg_.depth.maxDepth, cfg_.maxResident)
                     : 0;
    live_.reset(stampCapacity(warm));
    live_.fillPrefix(static_cast<std::uint32_t>(warm));
    warm_ = static_cast<std::uint32_t>(warm);
    stampNext_ = warm_;
    nextNewAddr_ = warm;
}

void
StackDistGenerator::renumber()
{
    std::uint32_t live = live_.total();
    // The axis only grows with the live stack, which maxResident
    // bounds: at most log2(maxResident) doublings per generator.
    // lineAt_ is reserved to each axis length once, so push() and
    // later renumbers within it do not reallocate.
    std::uint32_t cap = std::max(live_.capacity(), stampCapacity(live));
    lineAt_.reserve(cap);
    if (warm_ > 0) {
        // Store the implicit stamps ahead of the pushed ones, so
        // every stamp indexes lineAt_ from here on.
        lineAt_.insert(lineAt_.begin(), warm_, 0);
        std::iota(lineAt_.begin(), lineAt_.begin() + warm_, 0u);
        warm_ = 0;
    }
    std::uint32_t next = 0;
    for (std::uint32_t s = 0; s < stampNext_; ++s) {
        if (live_.test(s))
            lineAt_[next++] = lineAt_[s];
    }
    lineAt_.resize(live);
    if (cap > live_.capacity())
        live_.reset(cap);
    live_.fillPrefix(live);
    stampNext_ = live;
}

void
StackDistGenerator::push(std::uint32_t local)
{
    if (stampNext_ == live_.capacity())
        renumber();
    lineAt_.push_back(local);
    live_.mark(stampNext_++);
    if (live_.total() > cfg_.maxResident)
        live_.unmark(live_.select(0));
}

Access
StackDistGenerator::next()
{
    std::uint32_t local;
    if (live_.total() == 0 || rng_.chance(cfg_.pNew)) {
        fs_assert(nextNewAddr_ <= UINT32_MAX,
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
        local = lineAt(stamp);
        live_.unmark(stamp);
    }
    push(local);

    Access acc;
    acc.addr = baseAddr_ + local;
    acc.instrGap = gap_.sample(rng_);
    return acc;
}

} // namespace fscache
