#include "ranking/coarse_ts_lru_ranking.hh"

#include <algorithm>

#include "cache/tag_store.hh"
#include "common/log.hh"
#include "common/prefetch.hh"

namespace fscache
{

CoarseTsLruRanking::CoarseTsLruRanking(LineId num_lines,
                                       const TagStore *tags)
    : ClassRankingBase(num_lines, 1), tags_(tags), ts_(num_lines, 0)
{
    fs_assert(tags != nullptr, "coarse LRU needs a tag store");
}

CoarseTsLruRanking::PartState &
CoarseTsLruRanking::partState(PartId part)
{
    if (part >= parts_.size())
        // Grows once per newly-seen partition id, bounded by the
        // partition count; zero growth in steady state.
        parts_.resize(part + 1);
    return parts_[part];
}

void
CoarseTsLruRanking::tagTimestamp(LineId id, PartId part)
{
    PartState &st = partState(part);
    ts_[id] = static_cast<std::uint8_t>(st.currentTs);

    // Advance the partition clock every K accesses, K tracking the
    // partition's *current* size so the 8-bit range always spans
    // roughly 16 "generations" of the partition.
    ++st.accessesSinceBump;
    std::uint32_t k = std::max<std::uint32_t>(
        1, tags_->partSize(part) >> kGranShift);
    if (st.accessesSinceBump >= k) {
        st.currentTs = (st.currentTs + 1) & kTsMask;
        st.accessesSinceBump = 0;
    }
}

void
CoarseTsLruRanking::onInstall(LineId id, PartId part, AccessTime)
{
    place(id, part, 0);
    tagTimestamp(id, part);
}

void
CoarseTsLruRanking::onHit(LineId id, AccessTime)
{
    touch(id, 0);
    tagTimestamp(id, partOf(id));
}

void
CoarseTsLruRanking::onRetag(LineId id, PartId new_part)
{
    ClassRankingBase::onRetag(id, new_part);
    // The raw timestamp is kept; distances are now measured against
    // the new partition's clock, as they would be in hardware.
}

void
CoarseTsLruRanking::onRelocate(LineId from, LineId to)
{
    ClassRankingBase::onRelocate(from, to);
    // The timestamp is line metadata and must follow the line, or a
    // zcache relocation leaves the moved line aged by whatever stale
    // stamp the destination slot last held.
    ts_[to] = ts_[from];
    ts_[from] = 0;
}

void
CoarseTsLruRanking::prefetch(LineId first, std::uint32_t count) const
{
    ClassRankingBase::prefetch(first, count);
    prefetchBytes(&ts_[first], count * sizeof(ts_[0]));
}

double
CoarseTsLruRanking::schemeFutility(LineId id) const
{
    return static_cast<double>(tsDistance(id)) /
           static_cast<double>(kTsMask);
}

void
CoarseTsLruRanking::schemeFutilityMany(std::span<const LineId> ids,
                                       double *out) const
{
    for (std::size_t i = 0; i < ids.size(); ++i) {
        // Same expression as schemeFutility(): a plain array read
        // per id, devirtualized and flush-free.
        out[i] = static_cast<double>(tsDistance(ids[i])) /
                 static_cast<double>(kTsMask);
    }
}

std::uint32_t
CoarseTsLruRanking::tsDistance(LineId id) const
{
    fs_assert(present(id), "ts distance of an absent line");
    PartId part = partOf(id);
    std::uint32_t cur =
        part < parts_.size() ? parts_[part].currentTs : 0;
    return (cur - ts_[id]) & kTsMask;
}

} // namespace fscache
