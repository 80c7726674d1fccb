#include "partition/prism_scheme.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/simd.hh"

namespace fscache
{

PrismScheme::PrismScheme(PrismConfig cfg)
    : cfg_(cfg), rng_(mix64(cfg.seed))
{
    fs_assert(cfg_.window >= 1, "window must be >= 1");
}

void
PrismScheme::bind(PartitionOps *ops, std::uint32_t num_parts)
{
    PartitionScheme::bind(ops, num_parts);
    insertions_.assign(num_parts, 0);
    intervalInsertions_ = 0;
    evictProb_.assign(num_parts, 1.0 / num_parts);
    cumProb_.assign(num_parts, 0.0);
    replacements_ = 0;
    abnormalities_ = 0;
    double acc = 0.0;
    for (std::uint32_t p = 0; p < num_parts; ++p) {
        acc += evictProb_[p];
        cumProb_[p] = acc;
    }
}

void
PrismScheme::onInsertion(PartId part)
{
    if (part >= insertions_.size())
        return;
    ++insertions_[part];
    if (++intervalInsertions_ >= cfg_.window)
        recompute();
}

void
PrismScheme::recompute()
{
    double total = 0.0;
    for (std::uint32_t p = 0; p < numParts_; ++p) {
        double ins_frac = static_cast<double>(insertions_[p]) /
                          static_cast<double>(intervalInsertions_);
        double dev = (static_cast<double>(ops_->actualSize(p)) -
                      static_cast<double>(target(p))) /
                     static_cast<double>(cfg_.window);
        evictProb_[p] = std::max(0.0, ins_frac + dev);
        total += evictProb_[p];
    }
    if (total <= 0.0) {
        std::fill(evictProb_.begin(), evictProb_.end(),
                  1.0 / numParts_);
        total = 1.0;
    }
    double acc = 0.0;
    for (std::uint32_t p = 0; p < numParts_; ++p) {
        evictProb_[p] /= total;
        acc += evictProb_[p];
        cumProb_[p] = acc;
    }
    cumProb_[numParts_ - 1] = 1.0;
    std::fill(insertions_.begin(), insertions_.end(), 0);
    intervalInsertions_ = 0;
}

std::uint32_t
PrismScheme::selectVictim(CandidateSoA &cands, PartId incoming)
{
    (void)incoming;
    ++replacements_;

    // Partition-Selection: sample from the eviction distribution
    // (scalar; the RNG draw order is part of the replay spec).
    double u = rng_.uniform();
    PartId chosen = 0;
    while (chosen + 1u < numParts_ && u >= cumProb_[chosen])
        ++chosen;

    // Victim-Identification within the chosen partition.
    std::int64_t best = simd::argmaxMasked(
        cands.futility.data(), cands.part.data(), chosen,
        cands.size());
    if (best >= 0)
        return static_cast<std::uint32_t>(best);

    // Abnormality: no candidate from the chosen partition.
    ++abnormalities_;
    return simd::argmaxPlain(cands.futility.data(),
                             cands.size());
}

double
PrismScheme::abnormalityRate() const
{
    return replacements_ == 0
               ? 0.0
               : static_cast<double>(abnormalities_) /
                     static_cast<double>(replacements_);
}

} // namespace fscache
