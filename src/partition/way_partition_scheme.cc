#include "partition/way_partition_scheme.hh"

#include <algorithm>
#include <numeric>

#include "cache/tag_store.hh"
#include "common/log.hh"
#include "common/simd.hh"

namespace fscache
{

WayPartitionScheme::WayPartitionScheme(std::uint32_t ways)
    : ways_(ways)
{
    fs_assert(ways >= 1, "need at least one way");
}

void
WayPartitionScheme::bind(PartitionOps *ops, std::uint32_t num_parts)
{
    PartitionScheme::bind(ops, num_parts);
    fs_assert(num_parts <= ways_,
              "way partitioning cannot support %u partitions on %u "
              "ways", num_parts, ways_);
    owner_.assign(ways_, 0);
    assignWays();
}

void
WayPartitionScheme::setTarget(PartId part, std::uint32_t lines)
{
    PartitionScheme::setTarget(part, lines);
    assignWays();
}

void
WayPartitionScheme::assignWays()
{
    // Largest-remainder apportionment of ways to targets, with
    // every partition guaranteed at least one way.
    std::uint64_t total = std::accumulate(targets_.begin(),
                                          targets_.end(), 0ull);
    std::vector<std::uint32_t> count(numParts_, 1);
    std::uint32_t assigned = numParts_;

    if (total > 0) {
        std::vector<double> exact(numParts_);
        for (std::uint32_t p = 0; p < numParts_; ++p)
            exact[p] = static_cast<double>(targets_[p]) / total * ways_;
        // Integer floors first (respecting the 1-way floor).
        for (std::uint32_t p = 0; p < numParts_; ++p) {
            auto fl = static_cast<std::uint32_t>(exact[p]);
            if (fl > count[p]) {
                assigned += fl - count[p];
                count[p] = fl;
            }
        }
        // Distribute leftovers by largest fractional remainder.
        while (assigned < ways_) {
            std::uint32_t best = 0;
            double best_rem = -1.0;
            for (std::uint32_t p = 0; p < numParts_; ++p) {
                double rem = exact[p] - count[p];
                if (rem > best_rem) {
                    best_rem = rem;
                    best = p;
                }
            }
            ++count[best];
            ++assigned;
        }
        // Over-assignment can only come from the 1-way floors; take
        // ways back from the most over-provisioned partitions.
        while (assigned > ways_) {
            std::uint32_t best = 0;
            double best_excess = -1e300;
            for (std::uint32_t p = 0; p < numParts_; ++p) {
                if (count[p] <= 1)
                    continue;
                double excess = count[p] - exact[p];
                if (excess > best_excess) {
                    best_excess = excess;
                    best = p;
                }
            }
            --count[best];
            --assigned;
        }
    }

    std::uint32_t w = 0;
    for (std::uint32_t p = 0; p < numParts_; ++p)
        for (std::uint32_t k = 0; k < count[p]; ++k)
            owner_[w++] = static_cast<PartId>(p);
    // Any remaining ways (total == 0 corner) go to partition 0.
    for (; w < ways_; ++w)
        owner_[w] = 0;
}

std::uint32_t
WayPartitionScheme::selectVictim(CandidateSoA &cands, PartId incoming)
{
    fs_assert(cands.size() == ways_,
              "way partitioning needs a set-associative array with "
              "%u candidate ways, got %zu", ways_, cands.size());

    // Masked argmax over the incoming partition's own ways
    // (candidate order is way order, so owner_ doubles as the
    // per-candidate mask).
    std::int64_t best = simd::argmaxMasked(
        cands.futility.data(), owner_.data(), incoming,
        cands.size());
    fs_assert(best >= 0, "partition %u owns no way", incoming);
    return static_cast<std::uint32_t>(best);
}

LineId
WayPartitionScheme::pickFreeSlot(const std::vector<LineId> &cand_slots,
                                 const TagStore &tags,
                                 PartId incoming) const
{
    for (std::uint32_t i = 0; i < cand_slots.size(); ++i) {
        if (i < owner_.size() && owner_[i] != incoming)
            continue;
        if (!tags.line(cand_slots[i]).valid)
            return cand_slots[i];
    }
    return kInvalidLine;
}

} // namespace fscache
