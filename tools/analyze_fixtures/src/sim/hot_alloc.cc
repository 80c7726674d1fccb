/**
 * @file
 * no-alloc-on-hot-path fixture (tools/fscache_analyze.py
 * --self-test). Mirrors the real hot-path shape: a PartitionedCache
 * with an access() root, a virtual ranking hierarchy,
 * an FS_COLD diagnostic helper, and one allow()-annotated amortized
 * growth site.
 *
 * Expected findings:
 *   - accessMiss: operator new on the miss path
 *   - HelperRanking::onHit: container growth reached through
 *     virtual dispatch on the Ranking base
 *   - LfuishRanking::onHit: operator new through the same dispatch
 *   - refill: vector growth behind an `if (...)` one-liner — the
 *     receiver must resolve through the control condition
 *
 * Must stay quiet:
 *   - reportMiss (FS_COLD: diagnostics may allocate)
 *   - hits_.push_back (allow() directive with justification)
 *   - ColdBatch::reserve (never hot-reachable; a mis-parsed
 *     receiver in refill() would fan out here by method name)
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.hh"

namespace fscache
{

class Ranking
{
  public:
    virtual ~Ranking() = default;
    virtual void onHit(std::uint64_t addr) = 0;
};

class HelperRanking : public Ranking
{
  public:
    void
    onHit(std::uint64_t addr) override
    {
        history_.push_back(addr); // BAD: unbounded growth per hit
    }

  private:
    std::vector<std::uint64_t> history_;
};

class LfuishRanking : public Ranking
{
  public:
    void
    onHit(std::uint64_t addr) override
    {
        counts_ = new std::uint64_t[8]; // BAD: heap alloc per hit
        counts_[0] = addr;
    }

  private:
    std::uint64_t *counts_ = nullptr;
};

class PartitionedCache
{
  public:
    bool
    access(std::uint64_t addr)
    {
        ranking_->onHit(addr); // walks every override of the base
        if (addr == 0)
            return accessMiss(addr);
        // fs-analyze: allow(hot-path-alloc) reused buffer, capacity
        // saturates at its high-water mark (negative fixture).
        hits_.push_back(addr);
        refill(addr);
        return true;
    }

  private:
    bool accessMiss(std::uint64_t addr);
    FS_COLD void reportMiss(std::uint64_t addr);

    void
    refill(std::uint64_t n)
    {
        // The `if (...)` is a control condition, not part of the
        // receiver: the analyzer must still resolve `spare_` to the
        // vector member (and must NOT name-match this reserve()
        // onto ColdBatch::reserve below).
        if (spare_.capacity() < n)
            spare_.reserve(n); // BAD: growth behind an if-guard
    }

    std::unique_ptr<Ranking> ranking_;
    std::vector<std::uint64_t> hits_;
    std::vector<std::uint64_t> spare_;
    std::string log_;
};

/** Never reachable from the hot roots. Exists so a mis-parsed
 *  receiver in PartitionedCache::refill would fan out here by
 *  method name and trip the self-test with an unexpected finding. */
class ColdBatch
{
  public:
    void
    reserve(std::uint64_t n)
    {
        items_.reserve(n); // must never be reported
    }

  private:
    std::vector<std::uint64_t> items_;
};

bool
PartitionedCache::accessMiss(std::uint64_t addr)
{
    double *scratch = new double[4]; // BAD: per-miss allocation
    scratch[0] = static_cast<double>(addr);
    delete[] scratch;
    reportMiss(addr); // FS_COLD callee: the walk must stop here
    return false;
}

FS_COLD void
PartitionedCache::reportMiss(std::uint64_t addr)
{
    // Allocates freely: diagnostics are off the hot path by
    // contract, so this must NOT be reported.
    log_.append("miss at ");
    log_.append(std::to_string(addr));
}

} // namespace fscache
