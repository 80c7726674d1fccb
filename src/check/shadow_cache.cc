#include "check/shadow_cache.hh"

#include <algorithm>

#include "cache/tag_store.hh"
#include "common/errors.hh"
#include "common/log.hh"

namespace fscache
{
namespace check
{

namespace
{

/**
 * Reference copies of the rankings' key-packing constants. They are
 * duplicated here *on purpose*: the shadow must derive the order
 * independently, so a silent change to a ranking's packing shows up
 * as a divergence instead of being mirrored invisibly.
 */
constexpr std::uint32_t kLfuFreqCap = (1u << 19) - 1; // LfuRanking
constexpr std::uint64_t kLfuClockMask = (1ull << 44) - 1;
constexpr std::uint32_t kRripMax = 3; // SRRIP, 2-bit RRPV
constexpr std::uint64_t kRripClockMask = (1ull << 56) - 1;

} // namespace

ShadowCache::ShadowCache(const std::string &ranking_name,
                         LineId num_lines, std::uint32_t num_parts)
    : rankingName_(ranking_name), numParts_(num_parts),
      lines_(num_lines), partCount_(num_parts + 1, 0)
{
    if (ranking_name == "lru" || ranking_name == "coarse-ts-lru" ||
        ranking_name == "random") {
        policy_ = Policy::Recency;
    } else if (ranking_name == "lfu") {
        policy_ = Policy::Lfu;
    } else if (ranking_name == "rrip") {
        policy_ = Policy::Rrip;
    } else if (ranking_name == "opt") {
        policy_ = Policy::Opt;
    } else {
        policy_ = Policy::ResidencyOnly;
    }
}

bool
ShadowCache::keyLess(LineId a, LineId b) const
{
    const ShadowLine &la = lines_[a];
    const ShadowLine &lb = lines_[b];
    if (la.primary != lb.primary)
        return la.primary < lb.primary;
    return a < b;
}

void
ShadowCache::setPrimaryOnInstall(ShadowLine &l, AccessTime next_use)
{
    switch (policy_) {
      case Policy::Recency:
        l.primary = ++clock_;
        break;
      case Policy::Lfu:
        l.freq = 1;
        ++clock_;
        l.primary = (static_cast<std::uint64_t>(l.freq) << 44) |
                    (clock_ & kLfuClockMask);
        break;
      case Policy::Rrip:
        l.rrpv = static_cast<std::uint8_t>(kRripMax - 1);
        ++clock_;
        l.primary =
            (static_cast<std::uint64_t>(kRripMax - l.rrpv) << 56) |
            (clock_ & kRripClockMask);
        break;
      case Policy::Opt:
        l.primary = kNeverUsed - next_use;
        break;
      case Policy::ResidencyOnly:
        break;
    }
}

void
ShadowCache::setPrimaryOnHit(ShadowLine &l, AccessTime next_use)
{
    switch (policy_) {
      case Policy::Recency:
        l.primary = ++clock_;
        break;
      case Policy::Lfu:
        if (l.freq < kLfuFreqCap)
            ++l.freq;
        ++clock_;
        l.primary = (static_cast<std::uint64_t>(l.freq) << 44) |
                    (clock_ & kLfuClockMask);
        break;
      case Policy::Rrip:
        l.rrpv = 0; // hit promotion (SRRIP-HP)
        ++clock_;
        l.primary =
            (static_cast<std::uint64_t>(kRripMax - l.rrpv) << 56) |
            (clock_ & kRripClockMask);
        break;
      case Policy::Opt:
        l.primary = kNeverUsed - next_use;
        break;
      case Policy::ResidencyOnly:
        break;
    }
}

void
ShadowCache::bumpPart(PartId part, int delta)
{
    if (part >= partCount_.size())
        partCount_.resize(part + 1, 0);
    partCount_[part] =
        static_cast<std::uint32_t>(
            static_cast<std::int64_t>(partCount_[part]) + delta);
}

void
ShadowCache::onInstall(LineId slot, Addr addr, PartId part,
                       AccessTime next_use)
{
    ShadowLine &l = lines_[slot];
    if (l.valid) {
        throw StateCorruptionError(
            "shadow model desync: install into an occupied shadow "
            "slot",
            strprintf("shadow install: slot %u already holds addr "
                      "%llu", slot,
                      static_cast<unsigned long long>(l.addr)));
    }
    l.valid = true;
    l.addr = addr;
    l.tagPart = part;
    l.ownerPart = part;
    setPrimaryOnInstall(l, next_use);
    byAddr_[addr] = slot;
    bumpPart(part, +1);
}

void
ShadowCache::onHit(LineId slot, AccessTime next_use)
{
    setPrimaryOnHit(lines_[slot], next_use);
}

void
ShadowCache::onEvict(LineId slot)
{
    ShadowLine &l = lines_[slot];
    byAddr_.erase(l.addr);
    bumpPart(l.tagPart, -1);
    l = ShadowLine{};
}

void
ShadowCache::onRelocate(LineId from, LineId to)
{
    // The line keeps its key primary; only the slot id (and thus
    // the tie-break) changes — mirroring the ranking contract.
    lines_[to] = lines_[from];
    lines_[from] = ShadowLine{};
    byAddr_[lines_[to].addr] = to;
}

void
ShadowCache::onRetag(LineId slot, PartId to_part)
{
    ShadowLine &l = lines_[slot];
    bumpPart(l.tagPart, -1);
    bumpPart(to_part, +1);
    l.tagPart = to_part;
    // ownerPart deliberately unchanged: demotions move the tag, not
    // the ranking owner (PartitionedCache::demote).
}

LineId
ShadowCache::worstInOwner(PartId owner) const
{
    LineId best = kInvalidLine;
    for (LineId id = 0; id < lines_.size(); ++id) {
        if (!lines_[id].valid || lines_[id].ownerPart != owner)
            continue;
        if (best == kInvalidLine || keyLess(id, best))
            best = id;
    }
    return best;
}

double
ShadowCache::futilityOf(LineId slot) const
{
    PartId owner = lines_[slot].ownerPart;
    std::uint32_t size = 0;
    std::uint32_t less = 0;
    for (LineId id = 0; id < lines_.size(); ++id) {
        if (!lines_[id].valid || lines_[id].ownerPart != owner)
            continue;
        ++size;
        if (id != slot && keyLess(id, slot))
            ++less;
    }
    // Same integers, same division as the ranking's path — equality is
    // exact, not approximate.
    std::uint32_t rank = size - less;
    return static_cast<double>(rank) / static_cast<double>(size);
}

void
ShadowCache::diverge(const char *headline,
                     std::uint64_t access_index, Addr addr,
                     PartId part, const std::string &detail) const
{
    std::string report = strprintf(
        "lockstep shadow divergence: %s\n"
        "  access index : %llu\n"
        "  address      : 0x%llx\n"
        "  partition    : %u\n"
        "%s"
        "  ranking      : %s\n"
        "  shadow clock : %llu  (event cursor; replay the cell to "
        "this access for a minimal repro)",
        headline, static_cast<unsigned long long>(access_index),
        static_cast<unsigned long long>(addr),
        static_cast<unsigned>(part), detail.c_str(),
        rankingName_.c_str(),
        static_cast<unsigned long long>(clock_));
    throw StateCorruptionError(
        strprintf("shadow model divergence: %s", headline),
        report);
}

void
ShadowCache::checkLookup(std::uint64_t access_index, Addr addr,
                         PartId part, LineId fast_result) const
{
    auto it = byAddr_.find(addr);
    LineId shadow =
        it == byAddr_.end() ? kInvalidLine : it->second;
    if (shadow == fast_result)
        return;
    if (fast_result == kInvalidLine) {
        diverge("optimized path missed, shadow hit", access_index,
                addr, part,
                strprintf("  shadow slot  : %u\n", shadow));
    } else if (shadow == kInvalidLine) {
        diverge("optimized path hit, shadow missed", access_index,
                addr, part,
                strprintf("  fast slot    : %u\n", fast_result));
    } else {
        diverge("hit resolved to different slots", access_index,
                addr, part,
                strprintf("  fast slot    : %u\n"
                          "  shadow slot  : %u\n",
                          fast_result, shadow));
    }
}

void
ShadowCache::checkEviction(std::uint64_t access_index, Addr addr,
                           PartId part, LineId victim,
                           PartId victim_owner, LineId fast_worst,
                           double victim_futility) const
{
    const ShadowLine &v = lines_[victim];
    if (!v.valid) {
        diverge("victim not resident in the shadow", access_index,
                addr, part,
                strprintf("  fast victim  : %u\n", victim));
    }
    if (v.ownerPart != victim_owner) {
        diverge("victim owner mismatch", access_index, addr, part,
                strprintf("  fast victim  : %u\n"
                          "  fast owner   : %u\n"
                          "  shadow owner : %u\n",
                          victim, static_cast<unsigned>(victim_owner),
                          static_cast<unsigned>(v.ownerPart)));
    }
    if (!verifiesFutility())
        return;
    LineId shadow_worst = worstInOwner(victim_owner);
    if (shadow_worst != fast_worst) {
        diverge("worst-line (victim candidate) mismatch",
                access_index, addr, part,
                strprintf("  fast victim  : %u (worst per ranking: "
                          "%u)\n"
                          "  shadow victim: %u (linear rescan of "
                          "owner %u)\n",
                          victim, fast_worst, shadow_worst,
                          static_cast<unsigned>(victim_owner)));
    }
    double shadow_fut = futilityOf(victim);
    if (shadow_fut != victim_futility) {
        diverge("victim futility mismatch", access_index, addr,
                part,
                strprintf("  fast victim  : %u\n"
                          "  fast f=r/M   : %.17g\n"
                          "  shadow f=r/M : %.17g\n",
                          victim, victim_futility, shadow_fut));
    }
}

void
ShadowCache::checkSizes(std::uint64_t access_index,
                        const TagStore &tags) const
{
    std::size_t parts =
        std::max(partCount_.size(), tags.partCount());
    for (std::size_t p = 0; p < parts; ++p) {
        std::uint32_t shadow =
            p < partCount_.size() ? partCount_[p] : 0;
        std::uint32_t fast = tags.partSize(static_cast<PartId>(p));
        if (shadow != fast) {
            diverge("per-partition occupancy mismatch",
                    access_index, kInvalidAddr,
                    static_cast<PartId>(p),
                    strprintf("  fast size    : %u\n"
                              "  shadow size  : %u\n",
                              fast, shadow));
        }
    }
}

} // namespace check
} // namespace fscache
