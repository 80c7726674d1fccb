/**
 * @file
 * Timing wrappers handed to the simulator through its public
 * virtual interfaces: a FutilityRanking, a PartitionScheme (with a
 * PartitionOps interposed at bind(), so scheme callbacks into the
 * cache are seen too) and a TraceSource. Each forwards every call to
 * the wrapped object unchanged and opens a span around it; none
 * alters an argument or a result, so a traced run's simulated
 * statistics equal an untraced run's (perfbench.cc checks the
 * digests).
 */

#ifndef FSCACHE_PERFBENCH_WRAPPERS_HH
#define FSCACHE_PERFBENCH_WRAPPERS_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "partition/partition_scheme.hh"
#include "ranking/futility_ranking.hh"
#include "trace/trace_source.hh"
#include "tracer.hh"

namespace perfbench
{

using namespace fscache;

/** Times every ranking call. */
class TracedRanking final : public FutilityRanking
{
  public:
    explicit TracedRanking(std::unique_ptr<FutilityRanking> inner)
        : inner_(std::move(inner))
    {}

    void
    onInstall(LineId id, PartId part, AccessTime next_use) override
    {
        Span s(Op::RankInstall);
        inner_->onInstall(id, part, next_use);
    }

    void
    onHit(LineId id, AccessTime next_use) override
    {
        Span s(Op::RankHit);
        inner_->onHit(id, next_use);
    }

    void
    onEvict(LineId id) override
    {
        Span s(Op::RankEvict);
        inner_->onEvict(id);
    }

    void
    onRelocate(LineId from, LineId to) override
    {
        Span s(Op::RankOther);
        inner_->onRelocate(from, to);
    }

    void
    onRetag(LineId id, PartId new_part) override
    {
        Span s(Op::RankOther);
        inner_->onRetag(id, new_part);
    }

    double
    schemeFutility(LineId id) const override
    {
        Span s(Op::RankQuery, 1);
        return inner_->schemeFutility(id);
    }

    void
    schemeFutilityMany(std::span<const LineId> ids,
                       double *out) const override
    {
        Span s(Op::RankQuery, ids.size());
        inner_->schemeFutilityMany(ids, out);
    }

    double
    exactFutility(LineId id) const override
    {
        Span s(Op::RankExact);
        return inner_->exactFutility(id);
    }

    bool
    schemeFutilityIsExact() const override
    {
        return inner_->schemeFutilityIsExact();
    }

    LineId
    worstIn(PartId part) const override
    {
        Span s(Op::RankWorst);
        return inner_->worstIn(part);
    }

    PartId
    partOf(LineId id) const override
    {
        Span s(Op::RankOther);
        return inner_->partOf(id);
    }

    std::uint32_t
    partLines(PartId part) const override
    {
        Span s(Op::RankOther);
        return inner_->partLines(part);
    }

    std::string name() const override { return inner_->name(); }

    std::string
    auditInvariants() const override
    {
        return inner_->auditInvariants();
    }

    bool
    corruptRankNodeForFaultInjection() override
    {
        return inner_->corruptRankNodeForFaultInjection();
    }

  private:
    std::unique_ptr<FutilityRanking> inner_;
};

/**
 * Times every scheme call. The wrapped scheme is bound to an
 * interposed PartitionOps that forwards to the cache and counts
 * demotions; its exactFutility() callback reaches the ranking
 * wrapper, whose span nests inside the selectVictim span.
 */
class TracedScheme final : public PartitionScheme
{
  public:
    explicit TracedScheme(std::unique_ptr<PartitionScheme> inner)
        : inner_(std::move(inner))
    {}

    void
    bind(PartitionOps *ops, std::uint32_t num_parts) override
    {
        Span s(Op::PartOther);
        PartitionScheme::bind(ops, num_parts);
        interposed_.outer = ops;
        inner_->bind(&interposed_, num_parts);
    }

    void
    setTarget(PartId part, std::uint32_t lines) override
    {
        Span s(Op::PartOther);
        PartitionScheme::setTarget(part, lines);
        inner_->setTarget(part, lines);
    }

    std::uint32_t
    selectVictim(CandidateSoA &cands, PartId incoming) override
    {
        Span s(Op::PartSelect, cands.size());
        return inner_->selectVictim(cands, incoming);
    }

    void
    onInsertion(PartId part) override
    {
        Span s(Op::PartUpdate);
        inner_->onInsertion(part);
    }

    void
    onEviction(PartId part) override
    {
        Span s(Op::PartUpdate);
        inner_->onEviction(part);
    }

    LineId
    pickFreeSlot(const std::vector<LineId> &cand_slots,
                 const TagStore &tags, PartId incoming) const override
    {
        Span s(Op::PartOther);
        return inner_->pickFreeSlot(cand_slots, tags, incoming);
    }

    double
    managedFraction() const override
    {
        return inner_->managedFraction();
    }

    std::string name() const override { return inner_->name(); }

    std::uint64_t demotions() const { return interposed_.demotions; }

  private:
    /** What the wrapped scheme sees as its owner. */
    struct InterposedOps final : PartitionOps
    {
        PartitionOps *outer = nullptr;
        std::uint64_t demotions = 0;

        std::uint32_t
        actualSize(PartId part) const override
        {
            return outer->actualSize(part);
        }

        LineId cacheLines() const override { return outer->cacheLines(); }

        void
        demote(LineId line, PartId to_part) override
        {
            ++demotions;
            outer->demote(line, to_part);
        }

        double
        exactFutility(LineId line) const override
        {
            return outer->exactFutility(line);
        }
    };

    std::unique_ptr<PartitionScheme> inner_;
    InterposedOps interposed_;
};

/**
 * Counts (and, when tracing, times) the records a live generator
 * produces. Used in untraced runs too: it costs one virtual call per
 * fillBatch() and gives the insert-driven workload its record count.
 */
class CountedSource final : public TraceSource
{
  public:
    CountedSource(std::unique_ptr<TraceSource> inner,
                  std::uint64_t *records)
        : inner_(std::move(inner)), records_(records)
    {}

    Access
    next() override
    {
        Span s(Op::TraceFill, 1);
        ++*records_;
        return inner_->next();
    }

    void
    fillBatch(Access *dst, std::uint64_t n) override
    {
        Span s(Op::TraceFill, n);
        *records_ += n;
        inner_->fillBatch(dst, n);
    }

    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<TraceSource> inner_;
    std::uint64_t *records_;
};

} // namespace perfbench

#endif // FSCACHE_PERFBENCH_WRAPPERS_HH
