#include "partition/futility_scaling_feedback.hh"

#include <algorithm>
#include <cmath>

#include "check/audit.hh"
#include "common/log.hh"
#include "common/simd.hh"

namespace fscache
{

FutilityScalingFeedback::FutilityScalingFeedback(FsFeedbackConfig cfg)
    : cfg_(cfg)
{
    fs_assert(cfg_.intervalLength >= 1, "interval length must be >= 1");
    fs_assert(cfg_.changingRatio > 1.0, "changing ratio must be > 1");
    fs_assert(cfg_.maxShiftWidth >= 1, "need at least one shift step");
}

void
FutilityScalingFeedback::bind(PartitionOps *ops, std::uint32_t num_parts)
{
    PartitionScheme::bind(ops, num_parts);
    regs_.assign(num_parts, PartRegs{});
    factors_.assign(num_parts, 1.0);
}

std::uint32_t
FutilityScalingFeedback::selectVictim(CandidateSoA &cands,
                                      PartId incoming)
{
    (void)incoming;
    // Scaled argmax over f * ratio^width; invalid slots (part ==
    // kInvalidPart >= factors_.size()) are skipped by the scan.
    return simd::argmaxScaled(
        cands.futility.data(), cands.part.data(), factors_.data(),
        factors_.size(), cands.size());
}

void
FutilityScalingFeedback::onInsertion(PartId part)
{
    if (part >= regs_.size())
        return;
    ++regs_[part].insertions;
    maybeAdjust(part);
}

void
FutilityScalingFeedback::onEviction(PartId part)
{
    if (part >= regs_.size())
        return;
    ++regs_[part].evictions;
    maybeAdjust(part);
}

void
FutilityScalingFeedback::seedFactors(const std::vector<double> &alphas)
{
    fs_assert(alphas.size() == regs_.size(),
              "seedFactors: %zu alphas for %zu partitions",
              alphas.size(), regs_.size());
    const double log_ratio = std::log(cfg_.changingRatio);
    for (std::size_t p = 0; p < alphas.size(); ++p) {
        fs_assert(alphas[p] > 0.0, "scaling factor must be positive");
        double w = std::round(std::log(alphas[p]) / log_ratio);
        w = std::clamp(w, 0.0,
                       static_cast<double>(cfg_.maxShiftWidth));
        PartRegs &r = regs_[p];
        r.shiftWidth = static_cast<std::uint32_t>(w);
        factors_[p] = std::pow(cfg_.changingRatio, w);
        r.insertions = 0;
        r.evictions = 0;
    }
}

void
FutilityScalingFeedback::maybeAdjust(PartId part)
{
    PartRegs &r = regs_[part];
    if (r.insertions < cfg_.intervalLength &&
        r.evictions < cfg_.intervalLength) {
        return;
    }

    // Algorithm 2: scale only when the size error and the trend
    // agree, to avoid over-scaling during resizing transients.
    std::uint32_t actual = ops_->actualSize(part);
    std::uint32_t tgt = target(part);
    if (r.insertions >= r.evictions && actual > tgt) {
        if (r.shiftWidth < cfg_.maxShiftWidth) {
            ++r.shiftWidth;
            factors_[part] *= cfg_.changingRatio;
        }
    } else if (r.insertions <= r.evictions && actual < tgt) {
        if (r.shiftWidth > 0) {
            --r.shiftWidth;
            factors_[part] /= cfg_.changingRatio;
        }
    }
    r.insertions = 0;
    r.evictions = 0;

    // FS_AUDIT: the shift-width register and the cached factor are
    // redundant encodings of the same state (factor ==
    // ratio^shiftWidth); a drift between them is exactly the kind
    // of silent bug incremental *=/'/=' updates can introduce.
    FSCACHE_AUDIT(Cheap, {
        if (r.shiftWidth > cfg_.maxShiftWidth)
            check::auditFail(
                "feedback registers",
                strprintf("partition %u shift width %u exceeds max "
                          "%u", part, r.shiftWidth,
                          cfg_.maxShiftWidth));
        double want = std::pow(cfg_.changingRatio,
                               static_cast<double>(r.shiftWidth));
        if (std::fabs(factors_[part] - want) > 1e-6 * want)
            check::auditFail(
                "feedback registers",
                strprintf("partition %u factor %.17g drifted from "
                          "ratio^width %.17g (width %u)", part,
                          factors_[part], want, r.shiftWidth));
    });
}

} // namespace fscache
