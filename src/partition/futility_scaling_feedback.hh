/**
 * @file
 * Feedback-based Futility Scaling — the paper's practical design
 * (Section V, Algorithm 2).
 *
 * Hardware state per partition is five registers: ActualSize and
 * TargetSize (16-bit), 4-bit insertion/eviction counters (interval
 * length l = 16), and a 3-bit saturating ScalingShiftWidth. The
 * scaled futility of a candidate is its coarse-timestamp futility
 * left-shifted by the partition's shift width; the largest scaled
 * futility is evicted.
 *
 * Every l insertions OR l evictions of a partition (whichever comes
 * first):
 *   - oversized and growing  (N_I >= N_E, A > T): shift width += 1;
 *   - undersized and shrinking (N_I <= N_E, A < T): shift width -= 1.
 *
 * The changing ratio is 2 by default (a pure bit shift); the
 * sensitivity study (Section VIII) also runs sqrt(2) and 4, so the
 * factor is stored as ratio^width with a configurable ratio — for
 * ratio = 2 the victim choice is bit-for-bit the hardware's.
 */

#ifndef FSCACHE_PARTITION_FUTILITY_SCALING_FEEDBACK_HH
#define FSCACHE_PARTITION_FUTILITY_SCALING_FEEDBACK_HH

#include <vector>

#include "partition/partition_scheme.hh"

namespace fscache
{

/** Tunables for the feedback controller. */
struct FsFeedbackConfig
{
    /** Interval length l (insertions or evictions). */
    std::uint32_t intervalLength = 16;

    /** Changing ratio (paper default 2 => bit shifts). */
    double changingRatio = 2.0;

    /** Max shift width (3-bit saturating counter => 7). */
    std::uint32_t maxShiftWidth = 7;
};

/** See file comment. */
class FutilityScalingFeedback : public PartitionScheme
{
  public:
    explicit FutilityScalingFeedback(
        FsFeedbackConfig cfg = FsFeedbackConfig{});

    void bind(PartitionOps *ops, std::uint32_t num_parts) override;

    std::uint32_t selectVictim(CandidateSoA &cands,
                               PartId incoming) override;

    void onInsertion(PartId part) override;
    void onEviction(PartId part) override;

    /**
     * Seed the per-partition shift widths from analytic scaling
     * factors (e.g. SolverDivergenceError::bestAlphas or a
     * solveScalingFactorsClamped() result): each width is
     * round(log_ratio(alpha)) clamped to [0, maxShiftWidth], so the
     * controller starts near the analytic fixed point instead of at
     * width 0. Must be called after bind().
     */
    void seedFactors(const std::vector<double> &alphas);

    /** Current shift width of a partition (for tests/reports). */
    std::uint32_t shiftWidth(PartId part) const
    { return regs_[part].shiftWidth; }

    /** Current multiplicative scaling factor ratio^width. */
    double scalingFactor(PartId part) const
    { return factors_[part]; }

    std::string name() const override { return "fs"; }

  private:
    struct PartRegs
    {
        std::uint32_t insertions = 0;
        std::uint32_t evictions = 0;
        std::uint32_t shiftWidth = 0;
    };

    void maybeAdjust(PartId part);

    FsFeedbackConfig cfg_;
    std::vector<PartRegs> regs_;
    /** factors_[p] == ratio^regs_[p].shiftWidth, kept as a flat
     *  array so selectVictim can feed it straight to the scaled
     *  argmax (common/simd.hh) without a gather through PartRegs. */
    std::vector<double> factors_;
};

} // namespace fscache

#endif // FSCACHE_PARTITION_FUTILITY_SCALING_FEEDBACK_HH
