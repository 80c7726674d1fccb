/**
 * @file
 * The victim-selection scans.
 *
 * Every partitioning scheme reduces eviction to a scan over the
 * candidates' futilities (cache/candidate.hh keeps them in a
 * contiguous double array): a plain argmax (unpartitioned, the
 * Vantage/PriSM fallbacks), a partition-masked argmax (PriSM's
 * drawn partition, Vantage's unmanaged region, way partitioning's
 * owned ways), and a scale-by-partition-factor argmax (FS analytic/
 * feedback). They are plain inline loops over ~R = 16-52 doubles;
 * the schemes call them directly.
 *
 * Ties resolve to the lowest index (strict-greater updates in a
 * left-to-right scan), and the scaled scan performs exactly one
 * multiply per candidate, so results are reproducible bit for bit
 * on every compiler and ISA (docs/PERF.md §7).
 */

#ifndef FSCACHE_COMMON_SIMD_HH
#define FSCACHE_COMMON_SIMD_HH

#include <cstddef>
#include <cstdint>

#include "common/types.hh"

namespace fscache
{
namespace simd
{

/**
 * Index of the largest value, first index on ties. Returns 0 for
 * n == 0.
 */
inline std::uint32_t
argmaxPlain(const double *v, std::size_t n)
{
    std::uint32_t best = 0;
    for (std::size_t i = 1; i < n; ++i)
        if (v[i] > v[best])
            best = static_cast<std::uint32_t>(i);
    return best;
}

/**
 * Masked argmax: only candidates with mask[i] == want compete;
 * entries with v[i] <= -1.0 can never win (the invalid-slot
 * sentinel). Returns -1 when no masked-in candidate beats the -1.0
 * floor (including n == 0).
 */
inline std::int64_t
argmaxMasked(const double *v, const PartId *mask, PartId want,
             std::size_t n)
{
    std::int64_t best = -1;
    double best_v = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (mask[i] != want)
            continue;
        if (v[i] > best_v) {
            best_v = v[i];
            best = static_cast<std::int64_t>(i);
        }
    }
    return best;
}

/**
 * Scaled argmax: candidates whose partition has a scaling factor
 * compete on v[i] * factors[part[i]]; partitions >= num_factors
 * (including kInvalidPart) are skipped. Returns 0 when everything
 * is skipped (including n == 0).
 */
inline std::uint32_t
argmaxScaled(const double *v, const PartId *part,
             const double *factors, std::size_t num_factors,
             std::size_t n)
{
    std::uint32_t best = 0;
    double best_s = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (part[i] >= num_factors)
            continue;
        double scaled = v[i] * factors[part[i]];
        if (scaled > best_s) {
            best_s = scaled;
            best = static_cast<std::uint32_t>(i);
        }
    }
    return best;
}

/** The three scans as a table of pointers (for kernels()). */
struct Kernels
{
    std::uint32_t (*argmaxPlain)(const double *, std::size_t);
    std::int64_t (*argmaxMasked)(const double *, const PartId *,
                                 PartId, std::size_t);
    std::uint32_t (*argmaxScaled)(const double *, const PartId *,
                                  const double *, std::size_t,
                                  std::size_t);
};

/** Constant table of the scans above, for callers that want them
 *  by pointer. The simulator itself calls the scans directly. */
const Kernels &kernels();

/** Name of the scan implementation: always "scalar". */
const char *backendName();

} // namespace simd
} // namespace fscache

#endif // FSCACHE_COMMON_SIMD_HH
