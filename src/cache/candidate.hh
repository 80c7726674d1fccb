/**
 * @file
 * Replacement candidates handed to partitioning schemes, kept in
 * struct-of-arrays layout so the selectVictim scans (plain, masked
 * and scaled argmax, threshold tests — common/simd.hh) walk
 * contiguous double/PartId arrays.
 */

#ifndef FSCACHE_CACHE_CANDIDATE_HH
#define FSCACHE_CACHE_CANDIDATE_HH

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/types.hh"

namespace fscache
{

/**
 * One replacement candidate, as a convenience record (used for
 * CandidateSoA literals in tests and for single-candidate reads).
 *
 * futility is the *scheme-visible* futility estimate from the
 * configured ranking, normalized to [0, 1] (e.g. coarse timestamp
 * distance / 255, or the exact rank fraction). Schemes may scale it
 * (FS) or threshold it (Vantage); stats always use the exact value
 * queried separately. Invalid slots carry futility -1.0 so they can
 * never win a strict-greater argmax against a live candidate.
 */
struct Candidate
{
    LineId line = kInvalidLine;
    PartId part = kInvalidPart;
    double futility = 0.0;
};

/**
 * Struct-of-arrays candidate set: line[i]/part[i]/futility[i]
 * describe candidate i. The three vectors are always the same
 * length and are reused across misses (clear() keeps capacity), so
 * the steady-state miss path performs no allocation.
 */
class CandidateSoA
{
  public:
    std::vector<LineId> line;
    std::vector<PartId> part;
    std::vector<double> futility;

    CandidateSoA() = default;

    /** Literal construction, mostly for tests: {{line,part,fut},...} */
    CandidateSoA(std::initializer_list<Candidate> cands)
    {
        reserve(cands.size());
        for (const Candidate &c : cands)
            push(c.line, c.part, c.futility);
    }

    std::size_t size() const { return line.size(); }
    bool empty() const { return line.empty(); }

    void
    clear()
    {
        line.clear();
        part.clear();
        futility.clear();
    }

    void
    reserve(std::size_t n)
    {
        line.reserve(n);
        part.reserve(n);
        futility.reserve(n);
    }

    void
    push(LineId l, PartId p, double f)
    {
        // Capacity saturates at the array's max candidate count after
        // the first few misses (owner reuses one buffer; clear() keeps
        // capacity).
        line.push_back(l);
        part.push_back(p);
        futility.push_back(f);
    }

    /** Candidate i as a record (slow path: stats, checks, tests). */
    Candidate
    at(std::size_t i) const
    {
        return Candidate{line[i], part[i], futility[i]};
    }
};

using CandidateVec = CandidateSoA;

} // namespace fscache

#endif // FSCACHE_CACHE_CANDIDATE_HH
