#include "ranking/recency_ranking_base.hh"

#include "common/log.hh"

namespace fscache
{

RecencyRankingBase::RecencyRankingBase(LineId num_lines)
    : axis_(num_lines), partOf_(num_lines, kInvalidPart),
      present_(num_lines, 0)
{
}

void
RecencyRankingBase::ensurePart(PartId part)
{
    if (part < fens_.size())
        return;
    // fs-analyze: allow(hot-path-alloc) one-time growth per
    // newly-seen partition id, bounded by the partition count
    // (witness: tests/test_hot_alloc.cc).
    fens_.resize(part + 1);
    // fs-analyze: allow(hot-path-alloc) see above.
    size_.resize(part + 1, 0);
    for (BitFenwick &fen : fens_) {
        if (fen.capacity() == 0)
            // fs-analyze: allow(hot-path-alloc) see above.
            fen.reset(axis_.capacity());
    }
}

std::uint32_t
RecencyRankingBase::newStamp(LineId id)
{
    if (axis_.full()) [[unlikely]] {
        axis_.compact();
        for (BitFenwick &fen : fens_)
            fen.clear();
        for (std::uint32_t pos = 0; pos < axis_.next(); ++pos)
            fens_[partOf_[axis_.lineAt(pos)]].mark(pos);
    }
    return axis_.assign(id);
}

void
RecencyRankingBase::placeNewest(LineId id, PartId part)
{
    fs_assert(!present_[id], "placing an already-present line");
    ensurePart(part);
    partOf_[id] = part;
    present_[id] = 1;
    fens_[part].mark(newStamp(id));
    ++size_[part];
}

void
RecencyRankingBase::touchNewest(LineId id)
{
    fs_assert(present_[id], "touching an absent line");
    PartId part = partOf_[id];
    fens_[part].unmark(axis_.stampOf(id));
    axis_.release(id);
    fens_[part].mark(newStamp(id));
}

void
RecencyRankingBase::remove(LineId id)
{
    fs_assert(present_[id], "removing an absent line");
    PartId part = partOf_[id];
    fens_[part].unmark(axis_.stampOf(id));
    axis_.release(id);
    --size_[part];
    present_[id] = 0;
    partOf_[id] = kInvalidPart;
}

void
RecencyRankingBase::onEvict(LineId id)
{
    remove(id);
}

void
RecencyRankingBase::onRelocate(LineId from, LineId to)
{
    fs_assert(present_[from] && !present_[to],
              "bad relocation in ranking");
    // The stamp is positional metadata that follows the line: the
    // order (and so every rank) is untouched, no Fenwick changes.
    axis_.move(from, to);
    partOf_[to] = partOf_[from];
    present_[to] = 1;
    present_[from] = 0;
    partOf_[from] = kInvalidPart;
}

void
RecencyRankingBase::onRetag(LineId id, PartId new_part)
{
    fs_assert(present_[id], "retag of an absent line");
    // The line keeps its stamp — its recency relative to every other
    // line is unchanged — but its mark moves between the partition
    // Fenwicks.
    PartId old_part = partOf_[id];
    std::uint32_t pos = axis_.stampOf(id);
    ensurePart(new_part);
    fens_[old_part].unmark(pos);
    --size_[old_part];
    fens_[new_part].mark(pos);
    ++size_[new_part];
    partOf_[id] = new_part;
}

double
RecencyRankingBase::exactFutility(LineId id) const
{
    fs_assert(present_[id], "futility of an absent line");
    PartId part = partOf_[id];
    std::uint32_t size = size_[part];
    std::uint32_t rank =
        size - fens_[part].countBelow(axis_.stampOf(id));
    return static_cast<double>(rank) / static_cast<double>(size);
}

void
RecencyRankingBase::exactFutilityManyImpl(
    std::span<const LineId> ids, double *out) const
{
    for (std::size_t i = 0; i < ids.size(); ++i) {
        LineId id = ids[i];
        fs_assert(present_[id], "futility of an absent line");
        PartId part = partOf_[id];
        std::uint32_t size = size_[part];
        std::uint32_t rank =
            size - fens_[part].countBelow(axis_.stampOf(id));
        out[i] = static_cast<double>(rank) /
                 static_cast<double>(size);
    }
}

LineId
RecencyRankingBase::worstIn(PartId part) const
{
    // Navigate off the Fenwick's own total, not size_: the fault
    // hook may have drifted the counter, and navigation must stay
    // safe under that damage (audits, not crashes, report it).
    if (part >= fens_.size() || fens_[part].total() == 0)
        return kInvalidLine;
    return axis_.lineAt(fens_[part].select(0));
}

std::uint32_t
RecencyRankingBase::partLines(PartId part) const
{
    return part < size_.size() ? size_[part] : 0;
}

bool
RecencyRankingBase::corruptRankNodeForFaultInjection()
{
    // Silently inflate the first non-empty partition's resident-line
    // counter. Navigation never reads it
    // (see worstIn), so the damage is crash-safe and visible only to
    // the occupancy-sum audit and the deep self-audit below.
    for (std::uint32_t &size : size_) {
        if (size > 0) {
            ++size;
            return true;
        }
    }
    return false;
}

std::string
RecencyRankingBase::auditInvariants() const
{
    std::string err = axis_.audit(present_);
    if (!err.empty())
        return err;
    for (LineId id = 0; id < present_.size(); ++id) {
        if (present_[id] == 0) {
            if (partOf_[id] != kInvalidPart) {
                return strprintf("absent line %u still mapped to "
                                 "partition %u", id,
                                 static_cast<unsigned>(partOf_[id]));
            }
            continue;
        }
        if (partOf_[id] >= fens_.size()) {
            return strprintf("present line %u in untracked "
                             "partition %u", id,
                             static_cast<unsigned>(partOf_[id]));
        }
    }

    // Per-partition Fenwick marks vs. the axis, position by
    // position, plus the size counters (the corruption arm's
    // target) against the Fenwick ground truth.
    for (std::size_t p = 0; p < fens_.size(); ++p) {
        const BitFenwick &fen = fens_[p];
        std::uint32_t prev = 0;
        for (std::uint32_t pos = 0; pos < axis_.next(); ++pos) {
            std::uint32_t cur = fen.countBelow(pos + 1);
            std::uint32_t markHere = cur - prev;
            prev = cur;
            LineId id = axis_.lineAt(pos);
            std::uint32_t want =
                (id != kInvalidLine && partOf_[id] == p) ? 1 : 0;
            if (markHere != want) {
                return strprintf("partition %zu fenwick holds %u "
                                 "marks at stamp %u (want %u)", p,
                                 markHere, pos, want);
            }
        }
        if (fen.countBelow(fen.capacity()) != fen.total()) {
            return strprintf("partition %zu fenwick total %u but "
                             "prefix sum %u", p, fen.total(),
                             fen.countBelow(fen.capacity()));
        }
        if (size_[p] != fen.total()) {
            return strprintf("partition %zu counts %u lines but "
                             "its fenwick holds %u", p, size_[p],
                             fen.total());
        }
    }
    return std::string();
}

} // namespace fscache
