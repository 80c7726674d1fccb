/**
 * @file
 * LRU-stack-distance trace generator.
 *
 * The generator maintains an exact LRU stack of previously touched
 * line addresses. Every touch takes the next stamp on a recency
 * axis and a BitFenwick (common/fenwick.hh) marks the live stamps,
 * so the entry at depth d is one select() and re-referencing it
 * costs O(log capacity) array arithmetic. A stamp holds at most one
 * entry, so the index is a bit per stamp plus a count per 64
 * stamps: 384 KB for a 2^20-entry stack (a 2^21-stamp axis). When
 * the axis fills, live entries are renumbered in place onto its low
 * end. Each access either touches a brand-new address (probability
 * pNew, modeling compulsory misses / footprint growth) or
 * re-references the address at a stack depth drawn from a
 * configurable distribution.
 *
 * The prewarmed stack is implicit: its `warm` entries hold stamps
 * 0..warm-1, and stamp s holds local address s, so no address is
 * stored for them. lineAt_ holds only the addresses of stamps pushed
 * since (4 B each, grown as they are pushed). A trace much shorter
 * than the stack touches a few percent of it, so a 2^20-entry mcf
 * stack costs its 384 KB index plus 4 B per touch rather than 8 MB
 * of identity addresses. The first renumber() lays the stack out
 * once in a capacity-sized column; from then on every stamp is
 * stored and later renumbers compact that column in place.
 *
 * Stack-distance structure is exactly what determines an
 * application's miss curve and associativity sensitivity, which is
 * why these generators can stand in for the paper's SPEC traces
 * (see DESIGN.md Section 1).
 */

#ifndef FSCACHE_TRACE_STACK_DIST_GENERATOR_HH
#define FSCACHE_TRACE_STACK_DIST_GENERATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/fenwick.hh"
#include "common/random.hh"
#include "trace/instr_gap.hh"
#include "trace/trace_source.hh"

namespace fscache
{

/** How re-reference stack depths are drawn. */
struct DepthDist
{
    enum class Kind
    {
        Uniform,    ///< uniform over [minDepth, maxDepth]
        LogUniform, ///< log2-uniform over [minDepth, maxDepth]
        Fixed,      ///< always minDepth
    };

    Kind kind = Kind::LogUniform;
    std::uint64_t minDepth = 1;
    std::uint64_t maxDepth = 1;

    static DepthDist uniform(std::uint64_t lo, std::uint64_t hi);
    static DepthDist logUniform(std::uint64_t lo, std::uint64_t hi);
    static DepthDist fixed(std::uint64_t d);

    /** Draw a depth, clamped to [1, cap]. */
    std::uint64_t sample(Rng &rng, std::uint64_t cap) const;

    /**
     * Internal: log(minDepth)/log(maxDepth), computed on first
     * LogUniform draw and keyed on the depths they were taken from
     * (the bounds are settable directly, so a plain "computed"
     * flag could go stale; public only to keep the struct an
     * aggregate). Two integer compares per draw replace two
     * std::log calls; the cached values are bit-identical to
     * recomputing them.
     */
    mutable std::uint64_t logForMin_ = 0;
    mutable std::uint64_t logForMax_ = 0;
    mutable double logMin_ = 0.0;
    mutable double logMax_ = 0.0;
};

/** Configuration for StackDistGenerator. */
struct StackDistConfig
{
    /** Probability an access touches a new (never-seen) address. */
    double pNew = 0.05;

    /** Re-reference depth distribution. */
    DepthDist depth = DepthDist::logUniform(1, 1 << 14);

    /**
     * Maximum number of resident addresses; the least recent beyond
     * this are forgotten (bounds generator memory).
     */
    std::uint64_t maxResident = 1ull << 21;

    /** Mean instructions between accesses. */
    std::uint32_t meanInstrGap = 50;

    /**
     * Pre-populate the stack with maxDepth addresses so the full
     * working set exists from the first access (the application has
     * been running before the trace window starts). Without it,
     * short traces under-represent deep reuse.
     */
    bool prewarm = true;
};

/** See file comment. */
class StackDistGenerator : public TraceSource
{
  public:
    /**
     * @param cfg generator knobs
     * @param base_addr all emitted addresses are offset by this
     * @param rng seeded stream owned by the caller's fork
     */
    StackDistGenerator(const StackDistConfig &cfg, Addr base_addr,
                       Rng rng);

    Access next() override;

    /** Bulk pull with the virtual dispatch hoisted out of the loop
     *  (this generator dominates trace-generation time). */
    void
    fillBatch(Access *dst, std::uint64_t n) override
    {
        for (std::uint64_t i = 0; i < n; ++i)
            dst[i] = StackDistGenerator::next();
    }

    std::string name() const override { return "stackdist"; }

    /** Number of currently resident addresses (for tests). */
    std::uint64_t resident() const { return live_.total(); }

    /** Recency-axis length (for tests). */
    std::uint32_t capacity() const { return live_.capacity(); }

    /** Bytes the stack's index and stored addresses hold. */
    std::uint64_t
    bytes() const
    {
        return live_.bytes() + lineAt_.capacity() * sizeof(std::uint32_t);
    }

  private:
    /** Push `local` as the most recent entry. */
    void push(std::uint32_t local);

    /** Local address at live stamp `s`. */
    std::uint32_t
    lineAt(std::uint32_t s) const
    {
        return s < warm_ ? s : lineAt_[s - warm_];
    }

    /**
     * Compact the axis: live entries keep their order but move to
     * stamps 0..live-1, and the axis doubles first if live entries
     * would leave it too little headroom. Runs once per
     * capacity - live touches, so its O(capacity) cost amortizes to
     * O(1) per touch. The first one also stores the implicit stamps.
     */
    void renumber();

    StackDistConfig cfg_;
    Addr baseAddr_;
    Rng rng_;
    InstrGapSampler gap_;

    /** One mark per live stamp; total() is the stack size. */
    BitFenwick live_;
    /** Stamps below warm_ are implicit (stamp s holds address s);
     *  0 once renumber() has stored them. */
    std::uint32_t warm_ = 0;
    /** Local address of stamp warm_ + i at index i, for every stamp
     *  handed out since; a dead stamp's entry is stale. */
    std::vector<std::uint32_t> lineAt_;
    /** Next free stamp; every stamp below it has been handed out. */
    std::uint32_t stampNext_ = 0;
    Addr nextNewAddr_ = 0;
};

} // namespace fscache

#endif // FSCACHE_TRACE_STACK_DIST_GENERATOR_HH
