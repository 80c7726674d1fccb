#include "partition/vantage_scheme.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/simd.hh"

namespace fscache
{

VantageScheme::VantageScheme(VantageConfig cfg)
    : cfg_(cfg)
{
    fs_assert(cfg_.unmanagedFraction > 0.0 &&
                  cfg_.unmanagedFraction < 1.0,
              "unmanaged fraction must be in (0,1)");
    fs_assert(cfg_.maxAperture > 0.0 && cfg_.maxAperture <= 1.0,
              "max aperture must be in (0,1]");
    fs_assert(cfg_.slack > 0.0, "slack must be positive");
}

void
VantageScheme::bind(PartitionOps *ops, std::uint32_t num_parts)
{
    PartitionScheme::bind(ops, num_parts);
    thresh_.assign(num_parts, Threshold{});
    demotions_ = 0;
    forced_ = 0;
    replacements_ = 0;
}

void
VantageScheme::hwDemotePass(CandidateSoA &cands)
{
    // The mid-scan threshold feedback makes each candidate's test
    // depend on the previous candidates' outcomes.
    const std::size_t n = cands.size();
    for (std::size_t i = 0; i < n; ++i) {
        PartId p = cands.part[i];
        if (p >= numParts_)
            continue;
        double ap = aperture(p);
        Threshold &th = thresh_[p];
        ++th.seen;
        if (ap > 0.0 && cands.futility[i] >= th.value) {
            ops_->demote(cands.line[i], unmanagedPart());
            cands.part[i] = unmanagedPart();
            ++demotions_;
            ++th.demoted;
        }
        if (th.seen >= cfg_.thresholdInterval) {
            // Drive the observed demotion fraction toward the
            // aperture: demoting too little lowers the threshold.
            double observed =
                static_cast<double>(th.demoted) / th.seen;
            th.value = std::clamp(
                th.value + cfg_.thresholdGain * (observed - ap),
                0.02, 1.0);
            th.seen = 0;
            th.demoted = 0;
        }
    }
}

void
VantageScheme::exactDemotePass(CandidateSoA &cands)
{
    // A demotion shrinks its partition's occupancy, and with it the
    // aperture, so each candidate is tested against the aperture as
    // it stands after the demotions before it.
    const std::size_t n = cands.size();
    for (std::size_t i = 0; i < n; ++i) {
        PartId p = cands.part[i];
        if (p >= numParts_)
            continue; // already unmanaged, or an invalid slot
        double ap = aperture(p);
        if (ap > 0.0 && cands.futility[i] >= 1.0 - ap) {
            ops_->demote(cands.line[i], unmanagedPart());
            cands.part[i] = unmanagedPart();
            ++demotions_;
        }
    }
}

double
VantageScheme::aperture(PartId part) const
{
    double tgt = target(part);
    double actual = ops_->actualSize(part);
    if (tgt <= 0.0) {
        // Unsized partitions are fully demotable.
        return actual > 0.0 ? cfg_.maxAperture : 0.0;
    }
    double excess = (actual - tgt) / (cfg_.slack * tgt);
    return cfg_.maxAperture * std::clamp(excess, 0.0, 1.0);
}

std::uint32_t
VantageScheme::selectVictim(CandidateSoA &cands, PartId incoming)
{
    (void)incoming;
    ++replacements_;

    if (cfg_.exactThresholds) {
        // Idealized mode: thresholds are defined on rank fractions,
        // so work on exact normalized futility. Scalar: each query
        // is a virtual per-line rank lookup.
        const std::size_t n = cands.size();
        for (std::size_t i = 0; i < n; ++i) {
            if (cands.part[i] == kInvalidPart)
                continue;
            cands.futility[i] = ops_->exactFutility(cands.line[i]);
        }
        // Demotion pass: push over-target partitions' least useful
        // candidate lines into the unmanaged region.
        exactDemotePass(cands);
    } else {
        // Hardware mode: thresholds in scheme-futility space with
        // demotion-rate feedback.
        hwDemotePass(cands);
    }

    // Evict the most futile unmanaged candidate.
    std::int64_t best = simd::argmaxMasked(
        cands.futility.data(), cands.part.data(), unmanagedPart(),
        cands.size());
    if (best >= 0)
        return static_cast<std::uint32_t>(best);

    // Forced eviction from the managed region (weak isolation).
    ++forced_;
    return simd::argmaxPlain(cands.futility.data(),
                             cands.size());
}

} // namespace fscache
