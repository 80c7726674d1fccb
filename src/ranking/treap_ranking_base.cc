#include "ranking/treap_ranking_base.hh"

#include "common/log.hh"

namespace fscache
{

TreapRankingBase::TreapRankingBase(LineId num_lines)
    : keyOf_(num_lines), partOf_(num_lines, kInvalidPart),
      present_(num_lines, 0)
{
}

OrderStatTreap<TreapRankingBase::Key> &
TreapRankingBase::treapFor(PartId part)
{
    if (part >= treaps_.size()) {
        // fs-analyze: allow(hot-path-alloc) one-time growth per
        // newly-seen partition id, bounded by the partition count
        // (witness: tests/test_hot_alloc.cc).
        treaps_.reserve(part + 1);
        while (treaps_.size() <= part)
            // fs-analyze: allow(hot-path-alloc) see above.
            treaps_.emplace_back(0x74726561ull + treaps_.size());
    }
    return treaps_[part];
}

const OrderStatTreap<TreapRankingBase::Key> *
TreapRankingBase::treapFor(PartId part) const
{
    return part < treaps_.size() ? &treaps_[part] : nullptr;
}

void
TreapRankingBase::place(LineId id, PartId part, std::uint64_t primary)
{
    fs_assert(!present_[id], "placing an already-present line");
    Key key{primary, id};
    keyOf_[id] = key;
    partOf_[id] = part;
    present_[id] = 1;
    treapFor(part).insert(key);
}

void
TreapRankingBase::reKey(LineId id, std::uint64_t primary)
{
    fs_assert(present_[id], "rekeying an absent line");
    // Single treap reKey: the node is relinked in place instead of
    // freed and reinserted (this is the per-hit path).
    Key key{primary, id};
    treapFor(partOf_[id]).reKey(keyOf_[id], key);
    keyOf_[id] = key;
}

void
TreapRankingBase::remove(LineId id)
{
    fs_assert(present_[id], "removing an absent line");
    treapFor(partOf_[id]).erase(keyOf_[id]);
    present_[id] = 0;
    partOf_[id] = kInvalidPart;
}

void
TreapRankingBase::onEvict(LineId id)
{
    remove(id);
}

void
TreapRankingBase::onRelocate(LineId from, LineId to)
{
    fs_assert(present_[from] && !present_[to],
              "bad relocation in ranking");
    // Keys embed the line id for uniqueness, so the key changes.
    PartId part = partOf_[from];
    std::uint64_t primary = keyOf_[from].primary;
    remove(from);
    place(to, part, primary);
}

void
TreapRankingBase::onRetag(LineId id, PartId new_part)
{
    fs_assert(present_[id], "retag of an absent line");
    std::uint64_t primary = keyOf_[id].primary;
    remove(id);
    place(id, new_part, primary);
}

double
TreapRankingBase::exactFutility(LineId id) const
{
    fs_assert(present_[id], "futility of an absent line");
    const auto *treap = treapFor(partOf_[id]);
    std::uint32_t size = treap->size();
    std::uint32_t rank = size - treap->countLess(keyOf_[id]);
    return static_cast<double>(rank) / static_cast<double>(size);
}

void
TreapRankingBase::exactFutilityManyImpl(std::span<const LineId> ids,
                                        double *out) const
{
    for (std::size_t i = 0; i < ids.size(); ++i) {
        LineId id = ids[i];
        fs_assert(present_[id], "futility of an absent line");
        const auto *treap = treapFor(partOf_[id]);
        std::uint32_t size = treap->size();
        std::uint32_t rank = size - treap->countLess(keyOf_[id]);
        out[i] = static_cast<double>(rank) /
                 static_cast<double>(size);
    }
}

LineId
TreapRankingBase::worstIn(PartId part) const
{
    const auto *treap = treapFor(part);
    if (treap == nullptr || treap->empty())
        return kInvalidLine;
    return treap->minKey().line;
}

std::uint32_t
TreapRankingBase::partLines(PartId part) const
{
    const auto *treap = treapFor(part);
    return treap == nullptr ? 0 : treap->size();
}

bool
TreapRankingBase::corruptRankNodeForFaultInjection()
{
    for (auto &treap : treaps_) {
        if (treap.corruptSubtreeSizeForFaultInjection())
            return true;
    }
    return false;
}

std::string
TreapRankingBase::auditInvariants() const
{
    // Per-partition treap structure first (heap/order/size/min).
    std::uint32_t inTreaps = 0;
    for (std::size_t p = 0; p < treaps_.size(); ++p) {
        std::string err = treaps_[p].auditInvariants();
        if (!err.empty())
            return strprintf("partition %zu treap: %s", p,
                             err.c_str());
        inTreaps += treaps_[p].size();
    }

    // Line metadata <-> treap cross-consistency: every present line
    // is stored once, under its recorded partition and key.
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
        if (keyOf_[id].line != id) {
            return strprintf("line %u keyed as line %u", id,
                             keyOf_[id].line);
        }
        const auto *treap = treapFor(partOf_[id]);
        if (treap == nullptr || !treap->contains(keyOf_[id])) {
            return strprintf(
                "present line %u missing from partition %u's "
                "treap", id, static_cast<unsigned>(partOf_[id]));
        }
    }
    if (presentLines != inTreaps) {
        return strprintf("%u present lines but treaps hold %u keys",
                         presentLines, inTreaps);
    }
    return std::string();
}

} // namespace fscache
