#include "partition/futility_scaling_analytic.hh"

#include "common/log.hh"
#include "common/simd.hh"

namespace fscache
{

void
FutilityScalingAnalytic::bind(PartitionOps *ops, std::uint32_t num_parts)
{
    PartitionScheme::bind(ops, num_parts);
    alphas_.assign(num_parts, 1.0);
}

void
FutilityScalingAnalytic::setScalingFactor(PartId part, double alpha)
{
    fs_assert(part < alphas_.size(), "factor for unknown partition");
    fs_assert(alpha > 0.0, "scaling factor must be positive");
    alphas_[part] = alpha;
}

std::uint32_t
FutilityScalingAnalytic::selectVictim(CandidateSoA &cands,
                                      PartId incoming)
{
    (void)incoming;
    // Scaled argmax over f * alpha; invalid slots (part ==
    // kInvalidPart >= alphas_.size()) are skipped by the scan.
    return simd::argmaxScaled(
        cands.futility.data(), cands.part.data(), alphas_.data(),
        alphas_.size(), cands.size());
}

} // namespace fscache
