#include "ranking/opt_ranking.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace fscache
{

namespace
{

/** Initial next-use axis length; growAxis() doubles it on demand. */
constexpr std::uint32_t kInitialAxis = 1024;

/** Largest axis: positions must fit a u32 Fenwick index. */
constexpr std::uint32_t kMaxAxis = 1u << 31;

std::uint32_t
pow2AtLeast(std::uint32_t n)
{
    std::uint32_t cap = 1;
    while (cap < n)
        cap <<= 1;
    return cap;
}

/** Bits 0..b of a word. */
std::uint64_t
bitsThrough(std::uint32_t b)
{
    // 2 << 63 wraps to 0 in unsigned arithmetic, giving all ones.
    return (2ull << b) - 1;
}

} // namespace

OptRanking::OptRanking(LineId num_lines)
    : numLines_(num_lines), words_((num_lines + 63) / 64),
      wordCap_(pow2AtLeast(std::max<std::uint32_t>(words_, 1))),
      axisCap_(kInitialAxis), nextAt_(num_lines, kInvalidLine), posOf_(num_lines, kNeverPos),
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
        // fs-analyze: allow(hot-path-alloc) doubling growth bounded
        // by the largest next use (see above).
        p.headAt.resize(cap, kInvalidLine);
    }
    axisCap_ = cap;
}

void
OptRanking::ensurePart(PartId part)
{
    if (part < parts_.size())
        return;
    // fs-analyze: allow(hot-path-alloc) one-time growth per
    // newly-seen partition id, bounded by the partition count
    // (witness: tests/test_hot_alloc.cc).
    parts_.resize(part + 1);
    for (Part &p : parts_) {
        if (p.byNextUse.capacity() != 0)
            continue;
        // fs-analyze: allow(hot-path-alloc) see above.
        p.byNextUse.reset(axisCap_);
        // fs-analyze: allow(hot-path-alloc) see above.
        p.headAt.assign(axisCap_, kInvalidLine);
        // fs-analyze: allow(hot-path-alloc) see above.
        p.neverBits.assign(words_, 0);
        // fs-analyze: allow(hot-path-alloc) see above.
        p.neverWords.reset(wordCap_);
    }
}

void
OptRanking::link(LineId id, PartId part, std::uint32_t pos)
{
    Part &p = parts_[part];
    posOf_[id] = pos;
    if (pos == kNeverPos) {
        p.neverBits[id >> 6] |= 1ull << (id & 63);
        p.neverWords.mark(id >> 6);
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
        p.neverBits[id >> 6] &= ~(1ull << (id & 63));
        p.neverWords.unmark(id >> 6);
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
OptRanking::neverUpTo(const Part &p, LineId id) const
{
    std::uint32_t w = id >> 6;
    return p.neverWords.countBelow(w) +
           static_cast<std::uint32_t>(
               std::popcount(p.neverBits[w] & bitsThrough(id & 63)));
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
        return 1 + p.byNextUse.total() + p.neverWords.total() -
               neverUpTo(p, id);
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
    if (p.neverWords.total() > 0) {
        std::uint32_t w = p.neverWords.select(0);
        return (w << 6) |
               static_cast<LineId>(std::countr_zero(p.neverBits[w]));
    }
    if (p.byNextUse.total() == 0)
        return kInvalidLine;
    std::uint32_t pos = p.byNextUse.select(p.byNextUse.total() - 1);
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
    // Same arm as RecencyRankingBase: silently inflate the first
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
            if ((parts_[part].neverBits[id >> 6] >> (id & 63) & 1) ==
                0) {
                return strprintf("never-used line %u missing from "
                                 "partition %u's bitset", id,
                                 static_cast<unsigned>(part));
            }
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
    // position by position, and the bitset word by word; then the
    // size counter (the corruption arm's target) against that
    // ground truth.
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
        for (std::uint32_t w = 0; w < wordCap_; ++w) {
            std::uint32_t want =
                w < words_ ? static_cast<std::uint32_t>(
                                 std::popcount(p.neverBits[w]))
                           : 0;
            std::uint32_t cur = p.neverWords.countBelow(w + 1);
            if (cur - prev != want) {
                return strprintf("partition %zu never-used word %u "
                                 "counts %u lines (want %u)", part,
                                 w, cur - prev, want);
            }
            prev = cur;
        }
        if (prev != never[part] || p.neverWords.total() != prev) {
            return strprintf("partition %zu has %u never-used lines "
                             "but its bitset counts %u", part,
                             never[part], p.neverWords.total());
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
