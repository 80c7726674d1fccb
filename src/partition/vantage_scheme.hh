/**
 * @file
 * Vantage cache partitioning (Sanchez & Kozyrakis, ISCA 2011), as
 * configured in the paper's evaluation: unmanaged region u = 10%,
 * maximum aperture 0.5, slack 0.1, on a 16-way set-associative
 * array.
 *
 * The cache is split into a managed region (partitions with
 * targets) and an unmanaged region that absorbs demotions and
 * supplies evictions. On each replacement, managed candidates whose
 * futility falls inside their partition's aperture (the least
 * useful A_i fraction) are demoted to the unmanaged region; the
 * least useful unmanaged candidate is then evicted. If no candidate
 * is unmanaged — probability (1-u)^R, about 18.5% at u=0.1, R=16 —
 * a forced eviction takes the most futile candidate overall, which
 * is why Vantage's isolation weakens on low-R arrays (paper Section
 * VIII.A).
 *
 * Apertures follow the feedback ("setpoint") design: A_i rises
 * linearly from 0 at the target size to A_max at target*(1+slack).
 */

#ifndef FSCACHE_PARTITION_VANTAGE_SCHEME_HH
#define FSCACHE_PARTITION_VANTAGE_SCHEME_HH

#include "partition/partition_scheme.hh"

namespace fscache
{

/** Vantage tunables (paper Section VII defaults). */
struct VantageConfig
{
    double unmanagedFraction = 0.1; ///< u
    double maxAperture = 0.5;       ///< A_max
    double slack = 0.1;

    /**
     * true: demotion tests use exact rank futility (idealized
     * thresholds). false: hardware mode — per-partition thresholds
     * live in scheme-futility (coarse-timestamp) space and a
     * feedback loop drives each partition's observed demotion
     * fraction toward its aperture, as the original design's
     * demotion-threshold estimation does.
     */
    bool exactThresholds = true;

    /** Hardware mode: candidates per threshold adjustment. */
    std::uint32_t thresholdInterval = 128;

    /** Hardware mode: proportional feedback gain. */
    double thresholdGain = 0.5;
};

/** See file comment. */
class VantageScheme : public PartitionScheme
{
  public:
    explicit VantageScheme(VantageConfig cfg = VantageConfig{});

    void bind(PartitionOps *ops, std::uint32_t num_parts) override;

    std::uint32_t selectVictim(CandidateSoA &cands,
                               PartId incoming) override;

    double managedFraction() const override
    { return 1.0 - cfg_.unmanagedFraction; }

    /** The pseudo-partition holding demoted lines. */
    PartId unmanagedPart() const
    { return static_cast<PartId>(numParts_); }

    /** Current aperture of a managed partition. */
    double aperture(PartId part) const;

    std::uint64_t demotions() const { return demotions_; }
    std::uint64_t forcedEvictions() const { return forced_; }
    std::uint64_t replacements() const { return replacements_; }

    /** Hardware mode: current demotion threshold of a partition
     *  (scheme-futility space). */
    double
    demotionThreshold(PartId part) const
    {
        return part < thresh_.size() ? thresh_[part].value : 1.0;
    }

    std::string name() const override
    { return cfg_.exactThresholds ? "vantage" : "vantage-rt"; }

  private:
    /** Hardware-mode per-partition threshold state. */
    struct Threshold
    {
        double value = 0.9;
        std::uint32_t seen = 0;
        std::uint32_t demoted = 0;
    };

    void hwDemotePass(CandidateSoA &cands);
    void exactDemotePass(CandidateSoA &cands);

    VantageConfig cfg_;
    std::vector<Threshold> thresh_;
    std::uint64_t demotions_ = 0;
    std::uint64_t forced_ = 0;
    std::uint64_t replacements_ = 0;
};

} // namespace fscache

#endif // FSCACHE_PARTITION_VANTAGE_SCHEME_HH
