#include "sim/partitioned_cache.hh"

#include <span>

#include "check/audit.hh"
#include "check/invariants.hh"
#include "check/shadow_cache.hh"
#include "common/errors.hh"
#include "common/log.hh"
#include "sim/victim_check.hh"

namespace fscache
{

namespace
{

/** Deviation histogram support: +/- span lines around the target. */
constexpr double kDevSpan = 8192.0;
constexpr std::uint32_t kDevBins = 2048;

/** Stride (as a mask) between structural audits under FS_AUDIT:
 *  occupancy sums at cheap, plus full deep audits at paranoid.
 *  Paranoid additionally runs the cheap sums every access. */
constexpr std::uint64_t kAuditStrideMask = 0x3ff; // every 1024

} // namespace

PartitionedCache::PartitionedCache(
    std::unique_ptr<CacheArray> array,
    std::unique_ptr<FutilityRanking> ranking,
    std::unique_ptr<PartitionScheme> scheme, std::uint32_t num_parts)
    : array_(std::move(array)), ranking_(std::move(ranking)),
      scheme_(std::move(scheme)), numParts_(num_parts)
{
    fs_assert(array_ && ranking_ && scheme_,
              "cache needs array, ranking and scheme");
    fs_assert(num_parts >= 1, "need at least one partition");
    stats_.resize(numParts_);
    assocDist_.resize(numParts_);
    for (std::uint32_t p = 0; p < numParts_; ++p)
        deviation_.emplace_back(0.0, kDevSpan, kDevBins);
    scheme_->bind(this, numParts_);
    // Counters for every owner and for the pseudo-partition schemes
    // retag into (Vantage's unmanaged region, id numParts_), so the
    // first demotion does not allocate.
    array_->tags().growPart(static_cast<PartId>(numParts_));
    schemeFutilityExact_ = ranking_->schemeFutilityIsExact();

    auditLevel_ = static_cast<std::uint8_t>(check::auditLevel());
    if (check::shadowEnabled()) {
        shadow_ = std::make_unique<check::ShadowCache>(
            ranking_->name(), array_->numLines(), numParts_);
    }
    selfCheck_ = auditLevel_ != 0 || shadow_ != nullptr;
}

PartitionedCache::~PartitionedCache() = default;

void
PartitionedCache::setTarget(PartId part, std::uint32_t lines)
{
    fs_assert(part < numParts_, "target for unknown partition");
    scheme_->setTarget(part, lines);
    deviation_[part].setTarget(lines);
}

void
PartitionedCache::setTargets(const std::vector<std::uint32_t> &targets)
{
    fs_assert(targets.size() == numParts_,
              "target vector size %zu != partitions %u",
              targets.size(), numParts_);
    for (std::uint32_t p = 0; p < numParts_; ++p)
        setTarget(static_cast<PartId>(p), targets[p]);
}

void
PartitionedCache::demote(LineId line, PartId to_part)
{
    // Only the tag (the partition the scheme sees) changes; the
    // ranking keeps the line ordered under its owner so eviction
    // futility is still measured against the owning thread.
    array_->tags().retag(line, to_part);
    if (shadow_ != nullptr) [[unlikely]]
        shadow_->onRetag(line, to_part);
}

void
PartitionedCache::buildCandidates()
{
    TagStore &tags = array_->tags();
    candBuf_.clear();

    if (array_->fullyAssociative()) {
        // Worst line per partition (incl. a possible pseudo-
        // partition used by schemes, e.g. Vantage's unmanaged).
        // worstIn() draws no RNG and is const, so collecting the
        // lines first and batching the futility queries yields the
        // same values the old interleaved loop produced.
        for (std::uint32_t p = 0; p <= numParts_; ++p) {
            LineId worst = ranking_->worstIn(static_cast<PartId>(p));
            if (worst == kInvalidLine)
                continue;
            // candBuf_ is the reused candidate buffer; capacity
            // saturates at the associativity (witness:
            // tests/test_hot_alloc.cc).
            candBuf_.push(worst, tags.line(worst).part, 0.0);
        }
        ranking_->schemeFutilityMany(
            std::span<const LineId>(candBuf_.line),
            candBuf_.futility.data());
        return;
    }

    // slotBuf_ already holds this address's candidates from the
    // free-slot probe in access(); re-collecting would repeat the
    // array walk (zcache) for nothing. Futilities are filled by
    // one batched ranking query over the valid slots — in slot
    // order, i.e. exactly the per-slot query order (and RNG draw
    // order) of a serial walk; invalid slots keep the -1.0
    // sentinel and are never queried.
    bool all_valid = true;
    for (LineId slot : slotBuf_) {
        const Line &l = tags.line(slot);
        if (l.valid) {
            // Reused candidate buffer, capacity-bounded (see above).
            candBuf_.push(slot, l.part, 0.0);
        } else {
            candBuf_.push(slot, kInvalidPart, -1.0);
            all_valid = false;
        }
    }
    if (all_valid) [[likely]] {
        // Common steady-state case: query in place.
        ranking_->schemeFutilityMany(
            std::span<const LineId>(candBuf_.line),
            candBuf_.futility.data());
        return;
    }
    validIdx_.clear();
    lineScratch_.clear();
    const std::size_t n = candBuf_.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (candBuf_.part[i] == kInvalidPart)
            continue;
        // Reused gather scratch, capacity-bounded by the
        // associativity.
        validIdx_.push_back(static_cast<std::uint32_t>(i));
        lineScratch_.push_back(candBuf_.line[i]);
    }
    futScratch_.resize(lineScratch_.size());
    ranking_->schemeFutilityMany(
        std::span<const LineId>(lineScratch_), futScratch_.data());
    for (std::size_t j = 0; j < validIdx_.size(); ++j)
        candBuf_.futility[validIdx_[j]] = futScratch_[j];
}

AccessOutcome
PartitionedCache::access(PartId part, Addr addr, AccessTime next_use)
{
    fs_assert(part < numParts_, "access for unknown partition");
    LineId id = array_->lookup(addr);
    if (id != kInvalidLine) [[likely]] {
        // Hits dominate every workload worth simulating; keep this
        // the fall-through arm.
        ranking_->onHit(id, next_use);
        ++stats_[part].hits;
        AccessOutcome out;
        out.hit = true;
        if (selfCheck_) [[unlikely]]
            selfCheckHit(id, part, addr, next_use);
        return out;
    }
    return accessMiss(part, addr, next_use);
}

AccessOutcome
PartitionedCache::accessMiss(PartId part, Addr addr,
                             AccessTime next_use)
{
    AccessOutcome out;
    TagStore &tags = array_->tags();
    ++stats_[part].misses;
    if (selfCheck_) [[unlikely]]
        selfCheckMiss(part, addr);

    // Placement without eviction while there is room. An
    // unrestricted array fills its slots highest first (see
    // CacheArray::unrestrictedPlacement).
    LineId slot = kInvalidLine;
    if (array_->unrestrictedPlacement()) {
        if (!tags.full()) {
            slot = tags.numLines() - 1 - tags.validCount();
            fs_assert(!tags.line(slot).valid,
                      "fill slot %u is valid", slot);
        } else if (!array_->fullyAssociative()) {
            array_->collectCandidates(addr, slotBuf_);
        }
    } else {
        array_->collectCandidates(addr, slotBuf_);
        slot = scheme_->pickFreeSlot(slotBuf_, tags, part);
    }

    if (slot == kInvalidLine) {
        // Eviction path.
        buildCandidates();
        fs_assert(!candBuf_.empty(), "no replacement candidates");
        std::uint32_t idx = scheme_->selectVictim(candBuf_, part);
        fs_assert(idx < candBuf_.size(), "victim index out of range");
        LineId victim = candBuf_.line[idx];
        fs_assert(tags.line(victim).valid, "scheme chose an invalid "
                  "slot as victim");
        if (shadow_ != nullptr) [[unlikely]]
            selfCheckVictimChoice(idx, part);

        PartId owner = ranking_->partOf(victim);
        PartId tag_part = tags.line(victim).part;
        // With an exact ranking the candidate futility was already
        // the exact rank (buildCandidates computed it, and the only
        // scheme that rewrites it — Vantage's idealized mode —
        // rewrites it *to* exactFutility), so the second rank query
        // per eviction is skipped.
        double fut = schemeFutilityExact_
                         ? candBuf_.futility[idx]
                         : ranking_->exactFutility(victim);
        if (owner < numParts_) {
            assocDist_[owner].recordEviction(fut);
            ++stats_[owner].evictions;
        }
        out.evicted = true;
        out.victimOwner = owner;
        out.victimFutility = fut;

        if (selfCheck_) [[unlikely]]
            selfCheckEviction(addr, part, victim, owner, fut);

        ranking_->onEvict(victim);
        tags.evict(victim);
        scheme_->onEviction(tag_part);
        slot = victim;
    }

    // A free candidate deep in a zcache walk is relocated toward the
    // address's home slots just as an evicted victim is.
    slot = array_->makeRoom(addr, slot, [this](LineId from, LineId to) {
        ranking_->onRelocate(from, to);
        if (shadow_ != nullptr) [[unlikely]]
            shadow_->onRelocate(from, to);
    });

    tags.install(slot, addr, part);
    ranking_->onInstall(slot, part, next_use);
    ++stats_[part].insertions;
    scheme_->onInsertion(part);
    if (selfCheck_) [[unlikely]]
        selfCheckInstall(slot, part, addr, next_use);

    if (out.evicted && ++evictionsSinceSample_ >=
                           devSampleInterval_) {
        // Sample every partition's size (the paper's Figure 5
        // discipline samples at every eviction; see
        // setDeviationSampleInterval for sparse sampling).
        evictionsSinceSample_ = 0;
        for (std::uint32_t p = 0; p < numParts_; ++p)
            deviation_[p].sample(tags.partSize(static_cast<PartId>(p)));
    }
    return out;
}

void
PartitionedCache::runAudits()
{
    if (auditLevel_ == 0)
        return;
    bool onStride = (accessTick_ & kAuditStrideMask) == 0;
    if (auditLevel_ >= 2 || onStride) {
        std::string err = check::auditOccupancySums(
            array_->tags(), *ranking_, numParts_);
        if (!err.empty()) [[unlikely]]
            check::auditFail("occupancy sums", err);
    }
    if (auditLevel_ >= 2 && onStride) {
        std::string err = check::auditDeepConsistency(
            *array_, *ranking_, numParts_);
        if (!err.empty()) [[unlikely]]
            check::auditFail("deep consistency", err);
    }
}

void
PartitionedCache::selfCheckHit(LineId id, PartId part, Addr addr,
                               AccessTime next_use)
{
    ++accessTick_;
    if (shadow_ != nullptr) {
        shadow_->checkLookup(accessTick_, addr, part, id);
        shadow_->onHit(id, next_use);
    }
    runAudits();
}

void
PartitionedCache::selfCheckMiss(PartId part, Addr addr)
{
    ++accessTick_;
    if (shadow_ != nullptr)
        shadow_->checkLookup(accessTick_, addr, part, kInvalidLine);
}

void
PartitionedCache::selfCheckEviction(Addr addr, PartId part,
                                    LineId victim, PartId owner,
                                    double fut)
{
    if (shadow_ != nullptr) {
        shadow_->checkEviction(accessTick_, addr, part, victim,
                               owner, ranking_->worstIn(owner), fut);
        shadow_->onEvict(victim);
    }
}

void
PartitionedCache::selfCheckVictimChoice(std::uint32_t chosen,
                                        PartId incoming)
{
    std::string err = check::verifyVictimChoice(
        *scheme_, *this, candBuf_, chosen, numParts_, incoming);
    if (err.empty()) [[likely]]
        return;
    // A wrong-but-valid victim means the scheme's decision inputs
    // (scaling registers, occupancy counters, candidate futilities)
    // no longer agree with observable state — the same corruption
    // class the shadow model exists to catch, so it gets the same
    // terminal treatment.
    std::string report = strprintf(
        "victim-choice divergence\n"
        "  tick:      %llu\n"
        "  scheme:    %s\n"
        "  incoming:  %u\n"
        "  chosen:    candidate %u of %zu\n"
        "  violation: %s\n",
        static_cast<unsigned long long>(accessTick_),
        scheme_->name().c_str(), static_cast<unsigned>(incoming),
        chosen, candBuf_.size(), err.c_str());
    throw StateCorruptionError("shadow victim-choice check failed",
                               report);
}

void
PartitionedCache::selfCheckInstall(LineId slot, PartId part,
                                   Addr addr, AccessTime next_use)
{
    if (shadow_ != nullptr) {
        shadow_->onInstall(slot, addr, part, next_use);
        shadow_->checkSizes(accessTick_, array_->tags());
    }
    runAudits();
}

void
PartitionedCache::resetStats()
{
    for (std::uint32_t p = 0; p < numParts_; ++p) {
        stats_[p] = CachePartStats{};
        assocDist_[p].clear();
        deviation_[p].clear();
    }
    // The sampling phase is statistics state too: leaving the
    // eviction countdown mid-interval would make the first measured
    // deviation sample land early by however far warmup had already
    // advanced it, skewing sparse-sampled occupancy statistics.
    evictionsSinceSample_ = 0;
    // accessTick_ deliberately keeps running: it paces the audit
    // strides and numbers the shadow model's accesses — progress
    // markers, not statistics — and resetting it would shift every
    // subsequent FS_AUDIT/FS_SHADOW stride relative to a run without
    // a reset.
}

} // namespace fscache
