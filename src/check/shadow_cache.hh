/**
 * @file
 * Lockstep shadow reference model (FS_SHADOW=1; check/audit.hh).
 *
 * A deliberately naive re-implementation of the state the optimized
 * access engine keeps: a std::map address index instead of the
 * open-addressing FlatMap, flat per-line records with linear-scan
 * worst-line / rank queries instead of the rankings' Fenwick indexes.
 * PartitionedCache::access mirrors every mutation (install / hit /
 * evict / relocate / retag) into the shadow and asks it to confirm,
 * each access:
 *
 *  - the hit/miss verdict and the slot a hit resolved to;
 *  - at each eviction: the victim's residency and owner, the ranking's
 *    claimed worst line of the owner partition, and the victim's
 *    exact futility (bit-identical f = r / M);
 *  - per-partition occupancy after each install.
 *
 * The shadow replays each ranking's usefulness-key construction
 * (recency clock, LFU frequency packing, RRIP RRPV packing, OPT
 * next-use) from the event stream alone, so agreement is exact, not
 * approximate. Rankings it does not model fall back to
 * residency-only checking (verdicts + sizes).
 *
 * On first divergence it throws StateCorruptionError with a
 * structured report — access index, address, partition, both
 * victims, and the shadow's event-clock cursor — which is a minimal
 * deterministic repro: rerunning the same cell diverges at the same
 * access.
 *
 * This is a verification oracle, not a simulator: expect an order-
 * of-magnitude slowdown, and never enable it for result runs.
 */

#ifndef FSCACHE_CHECK_SHADOW_CACHE_HH
#define FSCACHE_CHECK_SHADOW_CACHE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/annotations.hh"
#include "common/types.hh"

namespace fscache
{

class TagStore;

namespace check
{

/** See file comment. */
class ShadowCache
{
  public:
    /**
     * @param ranking_name FutilityRanking::name() of the ranking to
     *        mirror (selects the usefulness-key model)
     * @param num_lines line slots in the real cache
     * @param num_parts owner partitions
     */
    ShadowCache(const std::string &ranking_name, LineId num_lines,
                std::uint32_t num_parts);

    // --- mutation mirrors (call after the real mutation) ---------
    // FS_COLD: the shadow model only runs under FS_SHADOW=1; a
    // diagnostic mode may allocate (no-alloc-on-hot-path contract).
    FS_COLD void onInstall(LineId slot, Addr addr, PartId part,
                           AccessTime next_use);
    FS_COLD void onHit(LineId slot, AccessTime next_use);
    FS_COLD void onEvict(LineId slot);
    FS_COLD void onRelocate(LineId from, LineId to);
    FS_COLD void onRetag(LineId slot, PartId to_part);

    // --- lockstep checks (throw StateCorruptionError) ------------

    /** Compare the fast path's lookup result for addr against the
     *  shadow index (call before mirroring the access). */
    void checkLookup(std::uint64_t access_index, Addr addr,
                     PartId part, LineId fast_result) const;

    /**
     * Validate an eviction before it is applied: the victim's
     * shadow residency/owner, the ranking's worst line of the owner
     * partition vs. a linear rescan, and the exact futility.
     */
    void checkEviction(std::uint64_t access_index, Addr addr,
                       PartId part, LineId victim,
                       PartId victim_owner, LineId fast_worst,
                       double victim_futility) const;

    /** Compare per-partition occupancy against the tag store. */
    void checkSizes(std::uint64_t access_index,
                    const TagStore &tags) const;

    /** True when the mirrored ranking's order is modeled exactly
     *  (futility / worst-line checks active). */
    bool
    verifiesFutility() const
    {
        return policy_ != Policy::ResidencyOnly;
    }

  private:
    /** Usefulness-key model mirrored from the ranking's name. */
    enum class Policy
    {
        Recency,       ///< lru, coarse-ts-lru, random: global clock
        Lfu,           ///< frequency-dominant packing
        Rrip,          ///< RRPV-dominant packing
        Opt,           ///< next-use distance
        ResidencyOnly, ///< unknown ranking: verdicts + sizes only
    };

    struct ShadowLine
    {
        bool valid = false;
        Addr addr = kInvalidAddr;
        PartId tagPart = kInvalidPart;   ///< scheme-visible
        PartId ownerPart = kInvalidPart; ///< ranked under
        std::uint64_t primary = 0;       ///< usefulness key
        std::uint32_t freq = 0;          ///< Policy::Lfu
        std::uint8_t rrpv = 0;           ///< Policy::Rrip
    };

    /** (primary, line) lexicographic order, smaller = less useful —
     *  the exact rankings' tie-break. */
    bool keyLess(LineId a, LineId b) const;

    void setPrimaryOnInstall(ShadowLine &l, AccessTime next_use);
    void setPrimaryOnHit(ShadowLine &l, AccessTime next_use);

    /** Linear-scan least-useful line of an owner partition. */
    LineId worstInOwner(PartId owner) const;

    /** Linear-scan exact futility f = r / M of a resident line. */
    double futilityOf(LineId slot) const;

    void bumpPart(PartId part, int delta);

    [[noreturn]] void diverge(const char *headline,
                              std::uint64_t access_index, Addr addr,
                              PartId part,
                              const std::string &detail) const;

    std::string rankingName_;
    Policy policy_;
    std::uint32_t numParts_;
    std::map<Addr, LineId> byAddr_;
    std::vector<ShadowLine> lines_;
    /** Occupancy by tag partition (grown on demand — schemes may
     *  retag into a pseudo-partition). */
    std::vector<std::uint32_t> partCount_;
    /** Mirrored install/hit event clock; doubles as the divergence
     *  report's repro cursor. */
    std::uint64_t clock_ = 0;
};

} // namespace check
} // namespace fscache

#endif // FSCACHE_CHECK_SHADOW_CACHE_HH
