#include "ranking/recency_ranking_base.hh"

#include "common/log.hh"

namespace fscache
{

namespace
{

/** Smallest power of two >= 2 * num_lines (and >= 64, the smallest
 *  BitFenwick, which also gives tiny test caches a useful renumber
 *  interval). */
std::uint32_t
stampCapacity(LineId num_lines)
{
    fs_assert(num_lines < (1u << 30), "line count overflows stamps");
    std::uint32_t cap = 64;
    while (cap < 2 * std::max<std::uint32_t>(num_lines, 1))
        cap <<= 1;
    return cap;
}

} // namespace

RecencyRankingBase::RecencyRankingBase(LineId num_lines)
    : capacity_(stampCapacity(num_lines)),
      lineAt_(capacity_, kInvalidLine), stampOf_(num_lines, 0),
      partOf_(num_lines, kInvalidPart), present_(num_lines, 0)
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
            fen.reset(capacity_);
    }
}

std::uint32_t
RecencyRankingBase::allocStamp()
{
    if (stampNext_ == capacity_)
        renumber();
    return stampNext_++;
}

void
RecencyRankingBase::renumber()
{
    // Compact in stamp order: relative recency — the only thing the
    // ranks depend on — is preserved exactly.
    std::uint32_t next = 0;
    for (std::uint32_t pos = 0; pos < capacity_; ++pos) {
        LineId id = lineAt_[pos];
        if (id == kInvalidLine)
            continue;
        lineAt_[next] = id;
        stampOf_[id] = next;
        ++next;
    }
    std::fill(lineAt_.begin() + next, lineAt_.end(), kInvalidLine);
    stampNext_ = next;
    fs_assert(next < capacity_, "stamp axis cannot hold its lines");

    for (BitFenwick &fen : fens_)
        fen.clear();
    for (std::uint32_t pos = 0; pos < next; ++pos)
        fens_[partOf_[lineAt_[pos]]].mark(pos);
}

void
RecencyRankingBase::placeNewest(LineId id, PartId part)
{
    fs_assert(!present_[id], "placing an already-present line");
    ensurePart(part);
    partOf_[id] = part;
    present_[id] = 1;
    std::uint32_t pos = allocStamp();
    stampOf_[id] = pos;
    lineAt_[pos] = id;
    fens_[part].mark(pos);
    ++size_[part];
}

void
RecencyRankingBase::touchNewest(LineId id)
{
    fs_assert(present_[id], "touching an absent line");
    PartId part = partOf_[id];
    std::uint32_t old_pos = stampOf_[id];
    fens_[part].unmark(old_pos);
    lineAt_[old_pos] = kInvalidLine;
    std::uint32_t pos = allocStamp();
    stampOf_[id] = pos;
    lineAt_[pos] = id;
    fens_[part].mark(pos);
}

void
RecencyRankingBase::remove(LineId id)
{
    fs_assert(present_[id], "removing an absent line");
    PartId part = partOf_[id];
    fens_[part].unmark(stampOf_[id]);
    lineAt_[stampOf_[id]] = kInvalidLine;
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
    std::uint32_t pos = stampOf_[from];
    lineAt_[pos] = to;
    stampOf_[to] = pos;
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
    // Fenwicks, exactly like the treap key moving between treaps
    // with its old primary.
    PartId old_part = partOf_[id];
    std::uint32_t pos = stampOf_[id];
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
        size - fens_[part].countBelow(stampOf_[id]);
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
            size - fens_[part].countBelow(stampOf_[id]);
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
    return lineAt_[fens_[part].select(0)];
}

std::uint32_t
RecencyRankingBase::partLines(PartId part) const
{
    return part < size_.size() ? size_[part] : 0;
}

bool
RecencyRankingBase::corruptRankNodeForFaultInjection()
{
    // The recency analog of the treap's root-size bump (the treap's
    // size() IS its root size): silently inflate the first non-empty
    // partition's resident-line counter. Navigation never reads it
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
    // Stamp axis <-> line metadata: lineAt_/stampOf_ must be inverse
    // over present lines, and nothing may sit past stampNext_.
    std::uint32_t live = 0;
    for (std::uint32_t pos = 0; pos < capacity_; ++pos) {
        LineId id = lineAt_[pos];
        if (id == kInvalidLine)
            continue;
        if (pos >= stampNext_) {
            return strprintf("line %u at unallocated stamp %u", id,
                             pos);
        }
        if (id >= present_.size() || present_[id] == 0) {
            return strprintf("absent line %u on the stamp axis",
                             id);
        }
        if (stampOf_[id] != pos) {
            return strprintf("line %u at stamp %u but mapped to %u",
                             id, pos, stampOf_[id]);
        }
        ++live;
    }
    std::uint32_t presentLines = 0;
    for (LineId id = 0; id < present_.size(); ++id) {
        if (present_[id] == 0) {
            if (partOf_[id] != kInvalidPart) {
                return strprintf("absent line %u still mapped to "
                                 "partition %u", id,
                                 static_cast<unsigned>(partOf_[id]));
            }
            continue;
        }
        ++presentLines;
        if (partOf_[id] >= fens_.size()) {
            return strprintf("present line %u in untracked "
                             "partition %u", id,
                             static_cast<unsigned>(partOf_[id]));
        }
        if (lineAt_[stampOf_[id]] != id) {
            return strprintf("present line %u missing from the "
                             "stamp axis", id);
        }
    }
    if (presentLines != live) {
        return strprintf("%u present lines but %u stamps live",
                         presentLines, live);
    }

    // Per-partition Fenwick marks vs. the axis, position by
    // position, plus the size counters (the corruption arm's
    // target) against the Fenwick ground truth.
    for (std::size_t p = 0; p < fens_.size(); ++p) {
        const BitFenwick &fen = fens_[p];
        std::uint32_t prev = 0;
        for (std::uint32_t pos = 0; pos < stampNext_; ++pos) {
            std::uint32_t cur = fen.countBelow(pos + 1);
            std::uint32_t markHere = cur - prev;
            prev = cur;
            LineId id = lineAt_[pos];
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
