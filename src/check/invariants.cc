#include "check/invariants.hh"

#include "cache/cache_array.hh"
#include "common/log.hh"
#include "ranking/futility_ranking.hh"

namespace fscache
{
namespace check
{

std::string
auditOccupancySums(const TagStore &tags,
                   const FutilityRanking &ranking,
                   std::uint32_t num_parts)
{
    std::uint64_t tagSum = 0;
    for (std::size_t p = 0; p < tags.partCount(); ++p)
        tagSum += tags.partSize(static_cast<PartId>(p));
    if (tagSum != tags.validCount()) {
        return strprintf(
            "per-partition occupancy sums to %llu but the tag "
            "store holds %u valid lines",
            static_cast<unsigned long long>(tagSum),
            tags.validCount());
    }

    std::uint64_t rankSum = 0;
    // Owner partitions are < num_parts; include one extra slot so a
    // ranking that (incorrectly) tracked a line under the pseudo-
    // partition fails the sum instead of hiding from it.
    for (std::uint32_t p = 0; p <= num_parts; ++p)
        rankSum += ranking.partLines(static_cast<PartId>(p));
    if (rankSum != tags.validCount()) {
        return strprintf(
            "ranking tracks %llu lines but the tag store holds %u",
            static_cast<unsigned long long>(rankSum),
            tags.validCount());
    }
    return std::string();
}

std::string
auditDeepConsistency(const CacheArray &array,
                     const FutilityRanking &ranking,
                     std::uint32_t num_parts)
{
    const TagStore &tags = array.tags();
    std::string err = array.auditInvariants();
    if (!err.empty())
        return err;
    err = ranking.auditInvariants();
    if (!err.empty())
        return "ranking: " + err;
    err = auditOccupancySums(tags, ranking, num_parts);
    if (!err.empty())
        return err;

    // Residency: valid <=> ranked, one partition each, futility in
    // (0, 1]. With the sums equal (above) and every valid line
    // ranked, no invalid line can be ranked either.
    for (LineId id = 0; id < tags.numLines(); ++id) {
        bool valid = tags.line(id).valid;
        bool ranked = ranking.partOf(id) != kInvalidPart;
        if (valid != ranked) {
            return strprintf(
                "line %u is %s in the tag store but %s by the "
                "ranking", id, valid ? "valid" : "invalid",
                ranked ? "ranked" : "not ranked");
        }
        if (!valid)
            continue;
        if (ranking.partOf(id) >= num_parts) {
            return strprintf(
                "line %u ranked under partition %u, outside the %u "
                "owner partitions", id,
                static_cast<unsigned>(ranking.partOf(id)),
                num_parts);
        }
        double f = ranking.exactFutility(id);
        if (!(f > 0.0) || !(f <= 1.0)) {
            return strprintf("line %u has exact futility %g, "
                             "outside (0, 1]", id, f);
        }
    }
    return std::string();
}

} // namespace check
} // namespace fscache
