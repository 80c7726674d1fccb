#include "ranking/opt_ranking.hh"

#include <algorithm>

#include "common/log.hh"

namespace fscache
{

namespace
{

/** Initial next-use axis length; growAxis() doubles it on demand. */
constexpr std::uint32_t kInitialAxis = 1024;

/** Largest axis: positions must fit a u32 Fenwick index. */
constexpr std::uint32_t kMaxAxis = 1u << 31;

/** Never-used set length: a power of two covering every line id,
 *  and at least 64 (the smallest BitFenwick). */
std::uint32_t
neverCapacity(LineId num_lines)
{
    std::uint32_t cap = 64;
    while (cap < num_lines)
        cap <<= 1;
    return cap;
}

} // namespace

OptRanking::OptRanking(LineId num_lines)
    : numLines_(num_lines), axisCap_(kInitialAxis),
      headAt_(kInitialAxis, kInvalidLine),
      nextAt_(num_lines, kInvalidLine), posOf_(num_lines, kNeverPos),
      partOf_(num_lines, kInvalidPart), present_(num_lines, 0)
{
}

std::uint32_t
OptRanking::axisPos(AccessTime next_use)
{
    if (next_use == kNeverUsed)
        return kNeverPos;
    fs_assert(next_use < kMaxAxis, "next use beyond the OPT axis");
    auto pos = static_cast<std::uint32_t>(next_use);
    if (pos >= axisCap_) [[unlikely]]
        growAxis(pos);
    return pos;
}

void
OptRanking::growAxis(std::uint32_t pos)
{
    std::uint32_t cap = axisCap_;
    while (cap <= pos)
        cap <<= 1;
    // Growth is by doubling to cover the largest next use, a trace
    // index: at most log2(trace length / kInitialAxis) growths per
    // run, each O(axis) plus O(axis / 64) per partition.
    headAt_.resize(cap, kInvalidLine);
    for (Part &p : parts_) {
        p.occupied.grow(cap);
        if (p.dups.capacity() != 0)
            p.dups.grow(cap);
    }
    axisCap_ = cap;
}

void
OptRanking::ensurePart(PartId part)
{
    if (part < parts_.size())
        return;
    // One-time growth per newly-seen partition id, bounded by the
    // partition count (witness: tests/test_hot_alloc.cc).
    parts_.resize(part + 1);
    for (Part &p : parts_) {
        if (p.occupied.capacity() != 0)
            continue;
        p.occupied.reset(axisCap_);
        p.never.reset(neverCapacity(numLines_));
    }
}

bool
OptRanking::holdsPart(std::uint32_t pos, PartId part) const
{
    for (LineId l = headAt_[pos]; l != kInvalidLine; l = nextAt_[l]) {
        if (partOf_[l] == part)
            return true;
    }
    return false;
}

void
OptRanking::link(LineId id, PartId part, std::uint32_t pos)
{
    Part &p = parts_[part];
    posOf_[id] = pos;
    if (pos == kNeverPos) {
        p.never.mark(id);
        return;
    }
    if (p.occupied.test(pos)) [[unlikely]] {
        // One-time growth per partition, at its first shared next use
        // (witness: tests/test_hot_alloc.cc).
        if (p.dups.capacity() == 0)
            p.dups.reset(axisCap_);
        p.dups.mark(pos);
    } else {
        p.occupied.mark(pos);
    }
    nextAt_[id] = headAt_[pos];
    headAt_[pos] = id;
}

void
OptRanking::unlink(LineId id, PartId part, std::uint32_t pos)
{
    Part &p = parts_[part];
    if (pos == kNeverPos) {
        p.never.unmark(id);
        return;
    }
    // A chain holds the lines of every partition at this next use:
    // about one per partition, so the walk is short.
    LineId *link = &headAt_[pos];
    while (*link != id) {
        fs_assert(*link != kInvalidLine, "line missing from its "
                  "next-use position");
        link = &nextAt_[*link];
    }
    *link = nextAt_[id];
    nextAt_[id] = kInvalidLine;
    // The position stays occupied while another of the partition's
    // lines is there, and only a duplicate tree admits another.
    if (p.dups.capacity() != 0 && holdsPart(pos, part))
        p.dups.unmark(pos);
    else
        p.occupied.unmark(pos);
}

void
OptRanking::place(LineId id, PartId part, std::uint32_t pos)
{
    fs_assert(!present_[id], "placing an already-present line");
    ensurePart(part);
    partOf_[id] = part;
    present_[id] = 1;
    ++parts_[part].size;
    link(id, part, pos);
}

void
OptRanking::remove(LineId id)
{
    fs_assert(present_[id], "removing an absent line");
    PartId part = partOf_[id];
    unlink(id, part, posOf_[id]);
    --parts_[part].size;
    present_[id] = 0;
    partOf_[id] = kInvalidPart;
    posOf_[id] = kNeverPos;
}

void
OptRanking::onInstall(LineId id, PartId part, AccessTime next_use)
{
    place(id, part, axisPos(next_use));
}

void
OptRanking::onHit(LineId id, AccessTime next_use)
{
    fs_assert(present_[id], "rekeying an absent line");
    std::uint32_t pos = axisPos(next_use);
    PartId part = partOf_[id];
    unlink(id, part, posOf_[id]);
    link(id, part, pos);
}

void
OptRanking::onEvict(LineId id)
{
    remove(id);
}

void
OptRanking::onRelocate(LineId from, LineId to)
{
    fs_assert(present_[from] && !present_[to],
              "bad relocation in ranking");
    // Ties are ordered by line id, so the moved line's rank can
    // change: it leaves under its old id and enters under the new.
    PartId part = partOf_[from];
    std::uint32_t pos = posOf_[from];
    remove(from);
    place(to, part, pos);
}

void
OptRanking::onRetag(LineId id, PartId new_part)
{
    fs_assert(present_[id], "retag of an absent line");
    std::uint32_t pos = posOf_[id];
    remove(id);
    place(id, new_part, pos);
}

std::uint32_t
OptRanking::rankOf(LineId id) const
{
    PartId part = partOf_[id];
    const Part &p = parts_[part];
    std::uint32_t pos = posOf_[id];
    if (pos == kNeverPos) {
        // Below every finite line; among the never-used, more
        // useful than every smaller id.
        return 1 + p.occupied.total() + p.dups.total() +
               p.never.total() - p.never.countBelow(id + 1);
    }
    std::uint32_t below = p.occupied.countBelow(pos);
    if (p.dups.capacity() == 0)
        return 1 + below;
    std::uint32_t ties = 0;
    for (LineId l = headAt_[pos]; l != kInvalidLine; l = nextAt_[l])
        ties += l > id && partOf_[l] == part;
    return 1 + below + p.dups.countBelow(pos) + ties;
}

double
OptRanking::exactFutility(LineId id) const
{
    fs_assert(present_[id], "futility of an absent line");
    return static_cast<double>(rankOf(id)) /
           static_cast<double>(parts_[partOf_[id]].size);
}

void
OptRanking::schemeFutilityMany(std::span<const LineId> ids,
                               double *out) const
{
    for (std::size_t i = 0; i < ids.size(); ++i)
        out[i] = exactFutility(ids[i]);
}

LineId
OptRanking::worstIn(PartId part) const
{
    // Navigate off the Fenwick totals, not Part::size: the fault
    // hook may have drifted the counter, and navigation must stay
    // safe under that damage (audits, not crashes, report it).
    if (part >= parts_.size())
        return kInvalidLine;
    const Part &p = parts_[part];
    if (p.never.total() > 0)
        return p.never.select(0);
    if (p.occupied.total() == 0)
        return kInvalidLine;
    std::uint32_t pos = p.occupied.select(p.occupied.total() - 1);
    LineId worst = kInvalidLine;
    for (LineId l = headAt_[pos]; l != kInvalidLine; l = nextAt_[l]) {
        if (partOf_[l] == part)
            worst = std::min(worst, l);
    }
    return worst;
}

std::uint32_t
OptRanking::partLines(PartId part) const
{
    return part < parts_.size() ? parts_[part].size : 0;
}

std::uint64_t
OptRanking::bytes() const
{
    std::uint64_t n = headAt_.capacity() * sizeof(LineId) +
                      nextAt_.capacity() * sizeof(LineId) +
                      posOf_.capacity() * sizeof(std::uint32_t) +
                      partOf_.capacity() * sizeof(PartId) +
                      present_.capacity() +
                      parts_.capacity() * sizeof(Part);
    for (const Part &p : parts_)
        n += p.occupied.bytes() + p.dups.bytes() + p.never.bytes();
    return n;
}

bool
OptRanking::corruptRankNodeForFaultInjection()
{
    // Same arm as ClassRankingBase: silently inflate the first
    // non-empty partition's resident-line counter. Navigation never
    // reads it (see worstIn), so only the occupancy-sum audit and
    // the deep self-audit below can see the damage.
    for (Part &p : parts_) {
        if (p.size > 0) {
            ++p.size;
            return true;
        }
    }
    return false;
}

std::string
OptRanking::auditInvariants() const
{
    // Line metadata: every present line sits in a tracked partition,
    // in its never-used bitset or inside the next-use axis.
    std::vector<std::uint32_t> finite(parts_.size(), 0);
    std::vector<std::uint32_t> never(parts_.size(), 0);
    for (LineId id = 0; id < numLines_; ++id) {
        if (present_[id] == 0) {
            if (partOf_[id] != kInvalidPart) {
                return strprintf("absent line %u still mapped to "
                                 "partition %u", id,
                                 static_cast<unsigned>(partOf_[id]));
            }
            continue;
        }
        PartId part = partOf_[id];
        if (part >= parts_.size()) {
            return strprintf("present line %u in untracked "
                             "partition %u", id,
                             static_cast<unsigned>(part));
        }
        std::uint32_t pos = posOf_[id];
        if (pos == kNeverPos) {
            ++never[part];
            continue;
        }
        ++finite[part];
        if (pos >= axisCap_)
            return strprintf("line %u at next use %u beyond the "
                             "axis (%u)", id, pos, axisCap_);
    }

    // The chains hold exactly the finite lines, each at its own
    // position (acyclic: the chains can never hold more than the
    // count, and a line listed twice would close a cycle).
    if (headAt_.size() != axisCap_) {
        return strprintf("next-use chains have %zu heads on a %u-"
                         "position axis", headAt_.size(), axisCap_);
    }
    std::uint32_t allFinite = 0;
    for (std::uint32_t n : finite)
        allFinite += n;
    std::uint32_t listed = 0;
    for (std::uint32_t pos = 0; pos < axisCap_; ++pos) {
        for (LineId l = headAt_[pos]; l != kInvalidLine;
             l = nextAt_[l]) {
            if (++listed > allFinite) {
                return strprintf("next-use chains list more than the "
                                 "%u finite lines", allFinite);
            }
            if (present_[l] == 0 || posOf_[l] != pos) {
                return strprintf("line %u listed at next use %u but "
                                 "not there", l, pos);
            }
        }
    }
    if (listed != allFinite) {
        return strprintf("next-use chains list %u of the %u finite "
                         "lines", listed, allFinite);
    }

    // Per partition: position by position, the occupied set marks
    // the positions its chain lines are at and the duplicate tree
    // (which must exist once two share one) counts the rest; the
    // never-used marks match the never-used lines id by id; then the
    // size counter (the corruption arm's target) against that ground
    // truth.
    for (std::size_t part = 0; part < parts_.size(); ++part) {
        const Part &p = parts_[part];
        bool haveDups = p.dups.capacity() != 0;
        if (p.occupied.capacity() != axisCap_ ||
            (haveDups && p.dups.capacity() != axisCap_)) {
            return strprintf("partition %zu next-use indexes do not "
                             "span the %u-position axis", part,
                             axisCap_);
        }
        std::uint32_t prev = 0;
        std::uint32_t prevDups = 0;
        for (std::uint32_t pos = 0; pos < axisCap_; ++pos) {
            std::uint32_t here = 0;
            for (LineId l = headAt_[pos]; l != kInvalidLine;
                 l = nextAt_[l])
                here += partOf_[l] == part;
            std::uint32_t cur = p.occupied.countBelow(pos + 1);
            if (cur - prev != (here > 0 ? 1u : 0u)) {
                return strprintf("partition %zu occupancy marks %u "
                                 "at next use %u holding %u lines",
                                 part, cur - prev, pos, here);
            }
            prev = cur;
            std::uint32_t extra = here > 0 ? here - 1 : 0;
            if (!haveDups) {
                if (extra != 0) {
                    return strprintf("partition %zu shares next use "
                                     "%u with no duplicate tree",
                                     part, pos);
                }
                continue;
            }
            std::uint32_t curDups = p.dups.countBelow(pos + 1);
            if (curDups - prevDups != extra) {
                return strprintf("partition %zu duplicate tree holds "
                                 "%u at next use %u (want %u)", part,
                                 curDups - prevDups, pos, extra);
            }
            prevDups = curDups;
        }
        if (p.occupied.total() != prev || p.dups.total() != prevDups ||
            prev + prevDups != finite[part]) {
            return strprintf("partition %zu has %u finite lines, "
                             "occupancy total %u, duplicate total %u",
                             part, finite[part], p.occupied.total(),
                             p.dups.total());
        }
        prev = 0;
        for (LineId id = 0; id < p.never.capacity(); ++id) {
            std::uint32_t want = id < numLines_ && present_[id] != 0 &&
                                 partOf_[id] == part &&
                                 posOf_[id] == kNeverPos;
            std::uint32_t cur = p.never.countBelow(id + 1);
            if (cur - prev != want) {
                return strprintf("partition %zu never-used set "
                                 "holds %u marks for line %u (want "
                                 "%u)", part, cur - prev, id, want);
            }
            prev = cur;
        }
        if (prev != never[part] || p.never.total() != prev) {
            return strprintf("partition %zu has %u never-used lines "
                             "but its set counts %u", part,
                             never[part], p.never.total());
        }
        if (p.size != finite[part] + never[part]) {
            return strprintf("partition %zu counts %u lines but "
                             "holds %u", part, p.size,
                             finite[part] + never[part]);
        }
    }
    return std::string();
}

} // namespace fscache
