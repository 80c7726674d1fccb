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
    // run, each O(partitions x axis).
    for (Part &p : parts_) {
        p.byNextUse.grow(cap);
        // Doubling growth bounded by the largest next use (see above).
        p.headAt.resize(cap, kInvalidLine);
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
        if (p.byNextUse.capacity() != 0)
            continue;
        p.byNextUse.reset(axisCap_);
        p.headAt.assign(axisCap_, kInvalidLine);
        p.never.reset(neverCapacity(numLines_));
    }
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
    p.byNextUse.mark(pos);
    nextAt_[id] = p.headAt[pos];
    p.headAt[pos] = id;
}

void
OptRanking::unlink(LineId id, PartId part, std::uint32_t pos)
{
    Part &p = parts_[part];
    if (pos == kNeverPos) {
        p.never.unmark(id);
        return;
    }
    p.byNextUse.unmark(pos);
    // Lists hold the partition's equal next uses: almost always one
    // line, so this walk is one step.
    LineId *link = &p.headAt[pos];
    while (*link != id) {
        fs_assert(*link != kInvalidLine, "line missing from its "
                  "next-use position");
        link = &nextAt_[*link];
    }
    *link = nextAt_[id];
    nextAt_[id] = kInvalidLine;
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
        return 1 + p.byNextUse.total() + p.never.total() -
               p.never.countBelow(id + 1);
    }
    std::uint32_t ties = 0;
    for (LineId l = p.headAt[pos]; l != kInvalidLine; l = nextAt_[l])
        ties += l > id;
    return 1 + p.byNextUse.countBelow(pos) + ties;
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
    if (p.byNextUse.total() == 0)
        return kInvalidLine;
    std::uint32_t pos =
        p.byNextUse.select(p.byNextUse.total() - 1).pos;
    LineId worst = kInvalidLine;
    for (LineId l = p.headAt[pos]; l != kInvalidLine; l = nextAt_[l])
        worst = std::min(worst, l);
    return worst;
}

std::uint32_t
OptRanking::partLines(PartId part) const
{
    return part < parts_.size() ? parts_[part].size : 0;
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

    // Per partition: the next-use lists hold exactly its finite
    // lines, each at its own position (acyclic: a list can never
    // hold more than the count); the Fenwick marks match the lists
    // position by position, and the never-used marks the never-used
    // lines id by id; then the size counter (the corruption arm's
    // target) against that ground truth.
    for (std::size_t part = 0; part < parts_.size(); ++part) {
        const Part &p = parts_[part];
        std::uint32_t listed = 0;
        std::uint32_t prev = 0;
        for (std::uint32_t pos = 0; pos < axisCap_; ++pos) {
            std::uint32_t want = 0;
            for (LineId l = p.headAt[pos]; l != kInvalidLine;
                 l = nextAt_[l]) {
                if (++listed > finite[part]) {
                    return strprintf("partition %zu lists more than "
                                     "its %u finite lines", part,
                                     finite[part]);
                }
                if (present_[l] == 0 || partOf_[l] != part ||
                    posOf_[l] != pos) {
                    return strprintf("line %u listed at partition "
                                     "%zu next use %u but not there",
                                     l, part, pos);
                }
                ++want;
            }
            std::uint32_t cur = p.byNextUse.countBelow(pos + 1);
            if (cur - prev != want) {
                return strprintf("partition %zu fenwick holds %u "
                                 "lines at next use %u (want %u)",
                                 part, cur - prev, pos, want);
            }
            prev = cur;
        }
        if (listed != finite[part] || prev != listed ||
            p.byNextUse.total() != prev) {
            return strprintf("partition %zu has %u finite lines, "
                             "lists %u, fenwick total %u", part,
                             finite[part], listed,
                             p.byNextUse.total());
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
