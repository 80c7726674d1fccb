#include "partition/vantage_scheme.hh"

#include <algorithm>
#include <limits>

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
    staleGen_.assign(num_parts, 0);
    curGen_ = 0;
}

void
VantageScheme::hwDemotePass(CandidateSoA &cands)
{
    // Stays a single serial pass: the mid-scan threshold feedback
    // makes each candidate's test depend on the previous
    // candidates' outcomes, so there is no snapshot to test against.
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
    // Snapshot form of the serial pass
    //   for c: ap = aperture(c.part);
    //          if (ap > 0 && c.futility >= 1 - ap) demote(c);
    // Snapshot each candidate's threshold, test all of them with
    // one thresholdGe sweep, then demote serially. A demotion only
    // changes the occupancy of the demoted partition (and the
    // unmanaged region, which is never tested), so a snapshot
    // decision is stale only for candidates whose partition lost a
    // line earlier in this pass — those re-test against the
    // current aperture, exactly what the serial loop would have
    // seen at that point.
    const double kPosInf = std::numeric_limits<double>::infinity();
    const std::size_t n = cands.size();
    // fs-analyze: allow(hot-path-alloc) reused scratch, capacity
    // settles at the array's associativity after one replacement
    threshBuf_.resize(n);
    // fs-analyze: allow(hot-path-alloc) reused scratch, capacity
    // settles at the array's associativity after one replacement
    flagBuf_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        PartId p = cands.part[i];
        if (p >= numParts_) {
            // Already unmanaged, or an invalid slot: never demoted.
            threshBuf_[i] = kPosInf;
            continue;
        }
        double ap = aperture(p);
        threshBuf_[i] = ap > 0.0 ? 1.0 - ap : kPosInf;
    }
    std::uint32_t flagged = simd::thresholdGe(
        cands.futility.data(), threshBuf_.data(), n,
        flagBuf_.data());
    if (flagged == 0)
        return; // no demotions, so no snapshot ever goes stale

    ++curGen_;
    for (std::size_t i = 0; i < n; ++i) {
        PartId p = cands.part[i];
        if (p >= numParts_)
            continue;
        bool demote_it;
        if (staleGen_[p] == curGen_) {
            // This partition lost a line since the snapshot; its
            // aperture can only have shrunk, so re-test live.
            double ap = aperture(p);
            demote_it = ap > 0.0 && cands.futility[i] >= 1.0 - ap;
        } else {
            demote_it = flagBuf_[i] != 0;
        }
        if (demote_it) {
            ops_->demote(cands.line[i], unmanagedPart());
            cands.part[i] = unmanagedPart();
            ++demotions_;
            staleGen_[p] = curGen_;
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
