/**
 * @file
 * Self-checking subsystem tests (src/check): structural invariant
 * auditors against hand-corrupted FlatMap / TagStore / lookup state,
 * lockstep shadow-model divergence detection and its deterministic
 * first-divergence report, and damage planted through the
 * corrupt*ForFaultInjection accessors failing its sweep, report
 * attached, at any job count.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "cache/array_factory.hh"
#include "cache/tag_store.hh"
#include "check/audit.hh"
#include "check/invariants.hh"
#include "check/shadow_cache.hh"
#include "common/errors.hh"
#include "common/flat_map.hh"
#include "common/log.hh"
#include "bench_util.hh"
#include "runner/sweep_runner.hh"

namespace fscache
{

/**
 * Explicit specializations of the structures' test backdoors: the
 * only code in the tree allowed to corrupt private state, so the
 * auditors can be shown to catch real (not simulated-by-API) damage.
 */
template <>
struct FlatMap<std::uint32_t>::TestAccess
{
    using Map = FlatMap<std::uint32_t>;

    /** Blank the occupied slot holding `key` without fixing the
     *  probe chain or the size — a torn backward-shift delete. */
    static void
    tearOutKey(Map &m, std::uint64_t key)
    {
        std::size_t i = m.home(key);
        while (m.slots_[i].key != key)
            i = (i + 1) & m.mask_;
        m.slots_[i].key = Map::kEmptyKey;
    }

    static void breakSize(Map &m) { ++m.size_; }

    /** Duplicate `key` into the next free slot of its chain. */
    static void
    duplicateKey(Map &m, std::uint64_t key)
    {
        std::size_t i = m.home(key);
        while (m.slots_[i].key != Map::kEmptyKey)
            i = (i + 1) & m.mask_;
        m.slots_[i].key = key;
        ++m.size_;
    }
};

namespace
{

/** Restores global check state however a test exits. */
class CheckFixture : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        check::setAuditLevelForTest(check::AuditLevel::Off);
        check::setShadowModeForTest(false);
    }
};

using FlatMapAudit = CheckFixture;
using TagStoreAudit = CheckFixture;
using ShadowModel = CheckFixture;
using CorruptionInjection = CheckFixture;

CacheSpec
checkSpec(RankKind ranking = RankKind::ExactLru,
          std::uint32_t lines = 256,
          ArrayKind array = ArrayKind::SetAssoc)
{
    CacheSpec spec;
    spec.array.kind = array;
    spec.array.numLines = lines;
    spec.array.ways = 16;
    spec.ranking = ranking;
    spec.scheme.kind = SchemeKind::Fs;
    spec.numParts = 2;
    spec.seed = 3;
    return spec;
}

/** The lookups the `corrupt` arm damages: a set-associative array
 *  finds lines in their set, a zcache in their H level-1 slots, a
 *  random-candidates one through the tag store's address index. */
constexpr ArrayKind kLookupArrays[] = {ArrayKind::SetAssoc,
                                       ArrayKind::ZCache,
                                       ArrayKind::RandomCands};

/** True for the arrays that scan their slots (no address index). */
bool
scansSlots(ArrayKind kind)
{
    return kind != ArrayKind::RandomCands;
}

const char *
lookupName(ArrayKind kind)
{
    switch (kind) {
      case ArrayKind::SetAssoc:
        return "set-resident";
      case ArrayKind::ZCache:
        return "home-slot";
      default:
        return "indexed";
    }
}

/** Spec of one lookup structure (above). */
CacheSpec
lookupSpec(ArrayKind array)
{
    return checkSpec(RankKind::ExactLru, 256, array);
}

/** Cyclic two-partition workload: every address is re-accessed, so
 *  the shadow model is guaranteed to see a corrupted lookup. */
std::uint64_t
driveCyclic(PartitionedCache &cache, std::uint64_t accesses,
            std::uint32_t footprint = 400)
{
    std::uint64_t hits = 0;
    for (std::uint64_t i = 0; i < accesses; ++i) {
        auto part = static_cast<PartId>(i & 1);
        Addr addr = (part + 1) * 100000 + i % footprint;
        hits += cache.access(part, addr).hit ? 1 : 0;
    }
    return hits;
}

TEST_F(FlatMapAudit, CleanMapPasses)
{
    FlatMap<std::uint32_t> m(64);
    for (std::uint64_t k = 1; k <= 64; ++k)
        m.insert(k * 977, static_cast<std::uint32_t>(k));
    for (std::uint64_t k = 1; k <= 32; ++k)
        m.erase(k * 2 * 977);
    EXPECT_EQ(m.auditInvariants(), "");
}

TEST_F(FlatMapAudit, TornDeleteBreaksProbeChainOrCount)
{
    FlatMap<std::uint32_t> m(64);
    for (std::uint64_t k = 1; k <= 48; ++k)
        m.insert(k, static_cast<std::uint32_t>(k));
    FlatMap<std::uint32_t>::TestAccess::tearOutKey(m, 7);
    // Blanking a slot mid-chain either strands a displaced key
    // behind the new hole or (with no displaced successor) leaves
    // size_ counting a key that is gone — both must be caught.
    std::string err = m.auditInvariants();
    EXPECT_NE(err, "");
}

TEST_F(FlatMapAudit, OccupancyDriftDetected)
{
    FlatMap<std::uint32_t> m(16);
    m.insert(11, 1);
    FlatMap<std::uint32_t>::TestAccess::breakSize(m);
    EXPECT_NE(m.auditInvariants().find("occupancy mismatch"),
              std::string::npos);
}

TEST_F(FlatMapAudit, DuplicateKeyDetected)
{
    FlatMap<std::uint32_t> m(32);
    for (std::uint64_t k = 1; k <= 20; ++k)
        m.insert(k, static_cast<std::uint32_t>(k));
    FlatMap<std::uint32_t>::TestAccess::duplicateKey(m, 13);
    EXPECT_NE(m.auditInvariants().find("duplicate"),
              std::string::npos);
}

TEST_F(TagStoreAudit, IndexCorruptionCaughtByDeepAudit)
{
    for (ArrayKind kind : kLookupArrays) {
        SCOPED_TRACE(lookupName(kind));
        auto cache = buildCache(lookupSpec(kind));
        cache->setTargets({128, 128});
        driveCyclic(*cache, 2000);
        CacheArray &array = cache->array();
        EXPECT_EQ(array.auditInvariants(), "");
        EXPECT_EQ(check::auditDeepConsistency(
                      array, cache->ranking(), cache->numPartitions()),
                  "");

        LineId victim = array.corruptLookupForFaultInjection();
        ASSERT_NE(victim, kInvalidLine);
        std::string want =
            scansSlots(kind)
                ? strprintf("lookup: valid line %u (addr ", victim)
                : strprintf("tag store: valid line %u (addr ", victim);
        std::string err = array.auditInvariants();
        EXPECT_EQ(err.rfind(want, 0), 0u) << err;
        EXPECT_NE(err.find(scansSlots(kind)
                               ? ") is not found at its slot (lookup "
                                 "gives no line)"
                               : ") missing from the address index"),
                  std::string::npos)
            << err;
        EXPECT_EQ(check::auditDeepConsistency(
                      array, cache->ranking(), cache->numPartitions()),
                  err);
    }
}

TEST_F(TagStoreAudit, OccupancySumsHoldOnLiveCache)
{
    auto cache = buildCache(checkSpec(RankKind::Lfu));
    cache->setTargets({128, 128});
    driveCyclic(*cache, 5000);
    EXPECT_EQ(check::auditOccupancySums(cache->array().tags(),
                                        cache->ranking(),
                                        cache->numPartitions()),
              "");
}

TEST_F(ShadowModel, DirectDivergenceReportIsStructured)
{
    check::ShadowCache shadow("lru", 8, 1);
    shadow.onInstall(0, 42, 0, kNeverUsed);
    // The fast model claims a miss for a resident address.
    try {
        shadow.checkLookup(17, 42, 0, kInvalidLine);
        FAIL() << "expected StateCorruptionError";
    } catch (const StateCorruptionError &e) {
        std::string report = e.report();
        EXPECT_NE(report.find("lockstep shadow divergence"),
                  std::string::npos);
        EXPECT_NE(report.find("access index : 17"),
                  std::string::npos);
        EXPECT_NE(report.find("address"), std::string::npos);
        EXPECT_NE(report.find("ranking"), std::string::npos);
        EXPECT_NE(report.find("shadow clock"), std::string::npos);
    }
}

/** Every exactly-modeled ranking stays in lockstep on a clean run
 *  (miss/hit mix, evictions, exact futilities). */
TEST_F(ShadowModel, CleanRunStaysInLockstepForAllRankings)
{
    check::setShadowModeForTest(true);
    for (RankKind rk :
         {RankKind::ExactLru, RankKind::CoarseTsLru, RankKind::Lfu,
          RankKind::Opt, RankKind::Random, RankKind::Rrip}) {
        auto cache = buildCache(checkSpec(rk));
        cache->setTargets({128, 128});
        EXPECT_NO_THROW(driveCyclic(*cache, 8000))
            << "ranking kind " << static_cast<int>(rk);
    }
}

/** Regression: zcache relocations must carry the rankings' per-line
 *  metadata (LFU frequency, RRIP RRPV/last-touch, coarse timestamp)
 *  to the destination slot. The stranded-metadata bug this pins was
 *  found by this very shadow model: the order key moved with the
 *  line but freq_/rrpv_/ts_ stayed behind, so the next hit on a
 *  relocated line re-keyed from the old occupant's state. */
TEST_F(ShadowModel, ZcacheRelocationsStayInLockstep)
{
    check::setShadowModeForTest(true);
    for (RankKind rk :
         {RankKind::ExactLru, RankKind::CoarseTsLru, RankKind::Lfu,
          RankKind::Opt, RankKind::Random, RankKind::Rrip}) {
        CacheSpec spec = checkSpec(rk);
        spec.array.kind = ArrayKind::ZCache;
        spec.array.banks = 4;
        spec.array.walkLevels = 2;
        auto cache = buildCache(spec);
        cache->setTargets({128, 128});
        // Oversubscribed footprint: every install walks the zcache
        // and relocates lines, which is the path under test.
        EXPECT_NO_THROW(driveCyclic(*cache, 8000))
            << "ranking kind " << static_cast<int>(rk);
    }
}

/** The first-divergence report is a deterministic repro: two
 *  identical corrupted runs diverge at the identical access. */
TEST_F(ShadowModel, DivergenceIsDeterministic)
{
    check::setShadowModeForTest(true);
    for (ArrayKind kind : kLookupArrays) {
        SCOPED_TRACE(lookupName(kind));
        auto corruptedRun = [kind] {
            auto cache = buildCache(lookupSpec(kind));
            cache->setTargets({128, 128});
            // Footprint below capacity: the whole working set stays
            // resident, so no eviction can silently "heal" the
            // broken lookup before its address is re-accessed.
            driveCyclic(*cache, 1000, /*footprint=*/100);
            cache->array().corruptLookupForFaultInjection();
            try {
                driveCyclic(*cache, 2000, /*footprint=*/100);
            } catch (const StateCorruptionError &e) {
                return std::string(e.report());
            }
            return std::string();
        };
        std::string first = corruptedRun();
        std::string second = corruptedRun();
        ASSERT_NE(first, "") << "shadow model missed the corruption";
        EXPECT_EQ(first, second);
        EXPECT_NE(first.find("access index"), std::string::npos);
    }
}

TEST_F(CorruptionInjection, ParanoidAuditCatchesCorruptionOnStride)
{
    check::setAuditLevelForTest(check::AuditLevel::Paranoid);
    for (ArrayKind kind : kLookupArrays) {
        SCOPED_TRACE(lookupName(kind));
        auto cache = buildCache(lookupSpec(kind));
        cache->setTargets({128, 128});
        driveCyclic(*cache, 1500, /*footprint=*/100);
        cache->array().corruptLookupForFaultInjection();
        // The deep audit runs on a 1024-access stride; driving one
        // full stride's worth of accesses must trip it (the
        // resident-set footprint rules out an eviction healing the
        // damage first). By then the original address has missed and
        // been installed again elsewhere, while the damaged line
        // still carries an address its lookup cannot find there.
        try {
            driveCyclic(*cache, 2048, /*footprint=*/100);
            ADD_FAILURE() << "expected StateCorruptionError";
        } catch (const StateCorruptionError &e) {
            std::string report = e.report();
            bool scans = scansSlots(kind);
            EXPECT_NE(report.find(scans ? "\n  lookup: valid line "
                                        : "\n  tag store: valid line "),
                      std::string::npos)
                << report;
            EXPECT_NE(report.find(scans
                                      ? ") is not found at its slot"
                                      : ") missing from the address "
                                        "index"),
                      std::string::npos)
                << report;
        }
    }
}

/** The report of the StateCorruptionError that a hit on a resident
 *  line of partition 1 raises. A hit runs the paranoid audits
 *  before anything else moves, so the report is exact. */
std::string
reportOfResidentHit(PartitionedCache &cache)
{
    const Addr addr = 2 * 100000 + 1;
    EXPECT_NE(cache.array().lookup(addr), kInvalidLine);
    try {
        cache.access(1, addr);
    } catch (const StateCorruptionError &e) {
        return e.report();
    }
    ADD_FAILURE() << "expected StateCorruptionError";
    return std::string();
}

/** The ranking-order arm: a silent bump of the order index's
 *  resident counter is navigation-safe — descents and worstIn never
 *  read the damaged counter — so only the audits can see it. Run on
 *  a recency-stamp index (exact LRU) and a per-class one (LFU). */
TEST_F(CorruptionInjection, RankIndexCorruptionDetectedByAudits)
{
    check::setAuditLevelForTest(check::AuditLevel::Paranoid);
    check::setShadowModeForTest(false);
    for (RankKind rk : {RankKind::ExactLru, RankKind::Lfu}) {
        auto cache = buildCache(checkSpec(rk));
        cache->setTargets({128, 128});
        driveCyclic(*cache, 1500, /*footprint=*/100);
        ASSERT_TRUE(
            cache->ranking().corruptRankNodeForFaultInjection());
        unsigned valid = cache->array().tags().validCount();
        std::string want =
            strprintf("ranking tracks %u lines but the tag store "
                      "holds %u", valid + 1, valid);
        EXPECT_EQ(check::auditOccupancySums(cache->array().tags(),
                                            cache->ranking(),
                                            cache->numPartitions()),
                  want);
        // The damage sits in partition 0's counter (the first
        // non-empty one). Touch the *other* partition so the
        // cross-structure sum audit sees the drift before partition
        // 0's own bookkeeping is exercised — exactly how the stride
        // audits catch it in a live run.
        EXPECT_EQ(reportOfResidentHit(*cache),
                  "audit violation in occupancy sums:\n  " + want);
    }
}

/** The occupancy-counter arm: a drifted per-partition size feeds
 *  every sizing decision; the cross-structure sum audit is the only
 *  check that compares it against the ranking's ground truth. */
TEST_F(CorruptionInjection, OccupancyCounterCorruptionDetectedByAudits)
{
    check::setAuditLevelForTest(check::AuditLevel::Paranoid);
    check::setShadowModeForTest(false);
    auto cache = buildCache(checkSpec());
    cache->setTargets({128, 128});
    driveCyclic(*cache, 1500, /*footprint=*/100);
    ASSERT_NE(cache->array().tags().corruptOccupancyForFaultInjection(),
              kInvalidPart);
    unsigned valid = cache->array().tags().validCount();
    EXPECT_EQ(reportOfResidentHit(*cache),
              strprintf("audit violation in occupancy sums:\n"
                        "  per-partition occupancy sums to %u but "
                        "the tag store holds %u valid lines",
                        valid + 1, valid));
}

/** One sweep cell: a warm cache driven on under the audits. Cell 1
 *  plants rank-index damage and cell 3 occupancy damage first. */
std::uint64_t
plantedCell(std::size_t cell)
{
    auto cache = buildCache(checkSpec());
    cache->setTargets({128, 128});
    std::uint64_t hits = driveCyclic(*cache, 1500, /*footprint=*/100);
    if (cell == 1)
        cache->ranking().corruptRankNodeForFaultInjection();
    if (cell == 3)
        cache->array().tags().corruptOccupancyForFaultInjection();
    return hits + driveCyclic(*cache, 2048, /*footprint=*/100);
}

/** What values() throws for a failed sweep, or "" if it returns. */
template <typename R>
std::string
firstFailure(const SweepReport<R> &report)
{
    try {
        (void)report.values();
    } catch (const FsError &e) {
        return e.what();
    }
    return std::string();
}

const char *const kCell1Failure =
    "cell 1: state audit failed in occupancy sums\n"
    "audit violation in occupancy sums:\n  ranking tracks ";

/** A cell whose audits catch planted damage fails its sweep: every
 *  other cell still holds its value, and values() names the first
 *  failed cell in cell order, report attached, at any job count. */
TEST_F(CorruptionInjection, FirstCorruptCellFailsSweepAtAnyJobs)
{
    check::setAuditLevelForTest(check::AuditLevel::Paranoid);
    check::setShadowModeForTest(false);
    std::vector<std::string> failures;
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(strprintf("jobs %u", jobs));
        auto report = SweepRunner(jobs).mapResilient(5, plantedCell);
        for (std::size_t i : {0u, 2u, 4u})
            EXPECT_TRUE(report.cells[i].ok()) << report.cells[i].error;
        EXPECT_FALSE(report.cells[1].ok());
        EXPECT_FALSE(report.cells[3].ok());
        failures.push_back(firstFailure(report));
        EXPECT_EQ(failures.back().rfind(kCell1Failure, 0), 0u)
            << failures.back();
    }
    EXPECT_EQ(failures[0], failures[1]);
}

/** A failing sweep run inside another sweep's cell reaches the top
 *  prefixed with both cells. */
TEST_F(CorruptionInjection, NestedSweepFailureNamesBothCells)
{
    check::setAuditLevelForTest(check::AuditLevel::Paranoid);
    check::setShadowModeForTest(false);
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(strprintf("jobs %u", jobs));
        auto report = SweepRunner(jobs).mapResilient(
            3, [jobs](std::size_t cell) {
                SweepRunner inner(jobs);
                return inner.mapResilient(cell == 2 ? 2 : 1, plantedCell)
                    .values()
                    .front();
            });
        std::string what = firstFailure(report);
        EXPECT_EQ(what.rfind(std::string("cell 2: ") + kCell1Failure, 0),
                  0u)
            << what;
    }
}

using RunCellsDeathTest = CheckFixture;

/** A bench's first failed cell ends it: exit 1, the cell on stderr. */
TEST_F(RunCellsDeathTest, FailedCellExitsOne)
{
    check::setAuditLevelForTest(check::AuditLevel::Paranoid);
    check::setShadowModeForTest(false);
    EXPECT_EXIT((void)bench::runCells("planted", 5, plantedCell),
                ::testing::ExitedWithCode(1), "\\[planted\\] cell 1: ");
}

TEST(AuditLevelKnob, TestOverridesApply)
{
    check::setAuditLevelForTest(check::AuditLevel::Paranoid);
    EXPECT_TRUE(check::auditAtLeast(check::AuditLevel::Cheap));
    EXPECT_TRUE(check::auditAtLeast(check::AuditLevel::Paranoid));
    check::setAuditLevelForTest(check::AuditLevel::Off);
    EXPECT_FALSE(check::auditAtLeast(check::AuditLevel::Cheap));
    check::setShadowModeForTest(true);
    EXPECT_TRUE(check::shadowEnabled());
    check::setShadowModeForTest(false);
    EXPECT_FALSE(check::shadowEnabled());
}

} // namespace
} // namespace fscache
