#include "cache/zcache_array.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/random.hh"

namespace fscache
{

ZCacheArray::ZCacheArray(LineId num_lines, std::uint32_t banks,
                         std::uint32_t levels, std::uint64_t seed)
    : CacheArray(num_lines, /*unrestricted=*/false), banks_(banks),
      levels_(levels), bankLines_(num_lines / banks)
{
    fs_assert(banks >= 2, "zcache needs >= 2 banks");
    fs_assert(levels >= 1, "zcache needs >= 1 walk level");
    fs_assert(num_lines % banks == 0,
              "lines (%u) not divisible by banks (%u)", num_lines,
              banks);
    for (std::uint32_t b = 0; b < banks_; ++b) {
        hashes_.push_back(makeIndexHash(HashKind::H3, bankLines_,
                                        mix64(seed ^ 0x5a5aull) + b));
    }
    // H + H*(H-1) + H*(H-1)^2 + ... candidates across the levels
    // (before dedup); report the series sum as the nominal R.
    std::uint64_t r = 0;
    std::uint64_t level_count = banks_;
    for (std::uint32_t l = 0; l < levels_; ++l) {
        r += level_count;
        level_count *= banks_ - 1;
    }
    nominalCandidates_ = static_cast<std::uint32_t>(r);

    probedSlots_.resize(banks_);
    parent_.resize(num_lines, kInvalidLine);
    walkGen_.resize(num_lines, 0);
}

bool
ZCacheArray::visit(LineId slot, LineId parent)
{
    if (walkGen_[slot] == curGen_)
        return false;
    walkGen_[slot] = curGen_;
    parent_[slot] = parent;
    return true;
}

void
ZCacheArray::collectCandidates(Addr addr, std::vector<LineId> &out)
{
    out.clear();
    // New walk generation; on wrap, invalidate every stale stamp so
    // a slot last visited 2^32 walks ago cannot alias the new one.
    if (++curGen_ == 0) {
        std::fill(walkGen_.begin(), walkGen_.end(), 0u);
        curGen_ = 1;
    }

    // Breadth-first walk. parent_[slot] records how the walk reached
    // the slot so makeRoom can relocate the chain. Level 1 reuses the
    // slots the last lookup hashed, if it looked up this address.
    const std::uint32_t probed = addr == probedAddr_ ? probedCount_ : 0;
    frontier_.clear();
    for (std::uint32_t b = 0; b < banks_; ++b) {
        LineId slot = b < probed ? probedSlots_[b] : slotFor(addr, b);
        if (visit(slot, kInvalidLine)) {
            // `out` and the frontier are reused buffers whose capacity
            // saturates at the walk size (witness:
            // tests/test_hot_alloc.cc).
            out.push_back(slot);
            frontier_.push_back(slot);
        }
    }

    for (std::uint32_t level = 1; level < levels_; ++level) {
        nextFrontier_.clear();
        for (LineId parent_slot : frontier_) {
            const Line &l = tags_.line(parent_slot);
            if (!l.valid)
                continue;
            std::uint32_t home_bank = parent_slot / bankLines_;
            for (std::uint32_t b = 0; b < banks_; ++b) {
                if (b == home_bank)
                    continue;
                LineId slot = slotFor(l.addr, b);
                if (visit(slot, parent_slot)) {
                    // Reused walk buffers, capacity-bounded (see
                    // above).
                    out.push_back(slot);
                    nextFrontier_.push_back(slot);
                }
            }
        }
        std::swap(frontier_, nextFrontier_);
    }
}

LineId
ZCacheArray::makeRoom(Addr incoming, LineId freed,
                      const MoveFn &on_move)
{
    (void)incoming;
    fs_assert(walkGen_[freed] == curGen_,
              "makeRoom slot %u not in last candidate walk", freed);

    // Shift each ancestor one step toward the freed slot. Every
    // move lands the ancestor's address in a slot it hashes to, and
    // the hole ends in one of the incoming address's level-1 slots.
    LineId hole = freed;
    while (parent_[hole] != kInvalidLine) {
        LineId parent_slot = parent_[hole];
        tags_.move(parent_slot, hole);
        if (on_move)
            on_move(parent_slot, hole);
        hole = parent_slot;
        fs_assert(walkGen_[hole] == curGen_, "broken walk chain");
    }
    return hole;
}

std::string
ZCacheArray::name() const
{
    return strprintf("zcache-%ub-%ul", banks_, levels_);
}

} // namespace fscache
