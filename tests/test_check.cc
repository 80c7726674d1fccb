/**
 * @file
 * Self-checking subsystem tests (src/check): structural invariant
 * auditors against hand-corrupted FlatMap / TagStore / lookup state,
 * lockstep shadow-model divergence detection and its deterministic
 * first-divergence report, and corruption-aware quarantine routing
 * through the cell guard (FS_FAULTS cell=N:corrupt* end to end).
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
#include "common/fault_injection.hh"
#include "common/flat_map.hh"
#include "common/log.hh"
#include "runner/sweep_runner.hh"
#include "sim/experiment.hh"

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

/** Restores global check/fault state however a test exits. */
class CheckFixture : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        check::setAuditLevelForTest(check::AuditLevel::Off);
        check::setShadowModeForTest(false);
        FaultInjector::installForTest("");
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

/**
 * End to end: FS_FAULTS cell=N:corrupt arms at the fault point, the
 * cache desynchronizes its own tag store mid-cell, the self-checks
 * catch it, and the cell guard quarantines FAILED(corruption) with
 * the report attached — while the rest of the sweep completes.
 */
TEST_F(CorruptionInjection, InjectedCellQuarantinedSweepContinues)
{
    FaultInjector::installForTest("cell=0:corrupt");
    check::setAuditLevelForTest(check::AuditLevel::Paranoid);
    check::setShadowModeForTest(true);
    for (ArrayKind kind : kLookupArrays) {
        SCOPED_TRACE(lookupName(kind));
        SweepRunner runner(1);
        auto report = runner.mapResilient(2, [kind](std::size_t cell) {
            auto cache = buildCache(lookupSpec(kind));
            cache->setTargets({128, 128});
            // > 8192 accesses: the armed corruption is consumed on
            // the cache's 8192-access stride. Resident-set
            // footprint: no eviction can heal it undetected.
            return driveCyclic(*cache, 20000 + cell,
                               /*footprint=*/100);
        });

        ASSERT_FALSE(report.cells[0].ok());
        EXPECT_EQ(report.cells[0].errorClass, ErrorClass::Corruption);
        EXPECT_FALSE(report.cells[0].detail.empty());

        ASSERT_TRUE(report.cells[1].ok());
        EXPECT_EQ(report.okCount(), 1u);

        std::string manifest = report.manifest();
        EXPECT_NE(manifest.find("corruption"), std::string::npos);
        // The structured report rides into the manifest, indented.
        EXPECT_NE(manifest.find(report.cells[0].detail.substr(
                      0, report.cells[0].detail.find('\n'))),
                  std::string::npos);
    }
}

TEST_F(CorruptionInjection, UnconsumedArmDoesNotLeakAcrossCells)
{
    FaultInjector::installForTest("cell=0:corrupt");
    check::setAuditLevelForTest(check::AuditLevel::Paranoid);
    for (ArrayKind kind : kLookupArrays) {
        SCOPED_TRACE(lookupName(kind));
        SweepRunner runner(1);
        // Cell 0 runs too few accesses to reach the consuming
        // stride; the armed flag must be discarded at cell 1's
        // fault point, not corrupt cell 1.
        auto report = runner.mapResilient(2, [kind](std::size_t) {
            auto cache = buildCache(lookupSpec(kind));
            cache->setTargets({128, 128});
            return driveCyclic(*cache, 4000);
        });
        EXPECT_TRUE(report.allOk()) << report.manifest();
    }
}

/** The ranking-order arm: a silent bump of the order index's
 *  resident counter is navigation-safe — descents and worstIn never
 *  read the damaged counter — so only the audits can see it. Run on
 *  a recency-stamp index (exact LRU) and a per-class one (LFU). */
TEST_F(CorruptionInjection, RankIndexCorruptionDetectedByAudits)
{
    check::setAuditLevelForTest(check::AuditLevel::Paranoid);
    for (RankKind rk : {RankKind::ExactLru, RankKind::Lfu}) {
        auto cache = buildCache(checkSpec(rk));
        cache->setTargets({128, 128});
        driveCyclic(*cache, 1500, /*footprint=*/100);
        ASSERT_TRUE(
            cache->ranking().corruptRankNodeForFaultInjection());
        EXPECT_NE(check::auditOccupancySums(cache->array().tags(),
                                            cache->ranking(),
                                            cache->numPartitions()),
                  "");
        // The damage sits in partition 0's counter (the first
        // non-empty one). Touch the *other* partition so the
        // cross-structure sum audit sees the drift before partition
        // 0's own bookkeeping is exercised — exactly how the stride
        // audits catch it in a live run.
        EXPECT_THROW(cache->access(1, 2 * 100000 + 1),
                     StateCorruptionError);
    }
}

/** The occupancy-counter arm: a drifted per-partition size feeds
 *  every sizing decision; the cross-structure sum audit is the only
 *  check that compares it against the ranking's ground truth. */
TEST_F(CorruptionInjection, OccupancyCounterCorruptionDetectedByAudits)
{
    check::setAuditLevelForTest(check::AuditLevel::Paranoid);
    auto cache = buildCache(checkSpec());
    cache->setTargets({128, 128});
    driveCyclic(*cache, 1500, /*footprint=*/100);
    ASSERT_NE(cache->array().tags().corruptOccupancyForFaultInjection(),
              kInvalidPart);
    EXPECT_THROW(driveCyclic(*cache, 2048, /*footprint=*/100),
                 StateCorruptionError);
}

/** FS_FAULTS corrupt-rank / corrupt-occ end to end, mirroring the
 *  tag-index clause above: armed at the fault point, consumed on the
 *  cache's stride, quarantined FAILED(corruption). */
TEST_F(CorruptionInjection, RankIndexAndOccupancyCellsQuarantined)
{
    for (const char *faults :
         {"cell=0:corrupt-rank", "cell=0:corrupt-occ"}) {
        FaultInjector::installForTest(faults);
        check::setAuditLevelForTest(check::AuditLevel::Paranoid);
        SweepRunner runner(1);
        auto report = runner.mapResilient(2, [](std::size_t cell) {
            auto cache = buildCache(checkSpec());
            cache->setTargets({128, 128});
            return driveCyclic(*cache, 20000 + cell,
                               /*footprint=*/100);
        });
        ASSERT_FALSE(report.cells[0].ok()) << faults;
        EXPECT_EQ(report.cells[0].errorClass, ErrorClass::Corruption)
            << faults;
        EXPECT_TRUE(report.cells[1].ok()) << faults;
    }
}

/** measureMissCurve has no table to mark a failed size in: a
 *  quarantined cell surfaces as an FsError carrying the manifest. */
TEST_F(CorruptionInjection, MeasureMissCurveFailedCellThrowsFsError)
{
    FaultInjector::installForTest("cell=1:corrupt-rank");
    check::setAuditLevelForTest(check::AuditLevel::Paranoid);
    try {
        (void)measureMissCurve("omnetpp", {256, 512}, 20000,
                               RankKind::CoarseTsLru, 3);
        FAIL() << "expected FsError";
    } catch (const StateCorruptionError &) {
        FAIL() << "the cell's corruption must not escape the guard";
    } catch (const FsError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("measureMissCurve(omnetpp)"),
                  std::string::npos) << what;
        EXPECT_NE(what.find("cell 1: failed [corruption]"),
                  std::string::npos) << what;
        EXPECT_NE(what.find("quarantined cells: 1\n"),
                  std::string::npos) << what;
    }
}

/** A sweep nested in a guarded cell fires no fault point of its
 *  own: under cell=1:corrupt-rank, the measureMissCurve each cell
 *  runs (whose own cell 1 would otherwise be re-armed, and whose
 *  cell 0 would disarm the enclosing cell) stays clean, and only
 *  the enclosing cell 1's own cache is corrupted — with the nested
 *  sweep inline or pooled, and the outer one either way too. */
TEST_F(CorruptionInjection, NestedSweepLeavesOuterCellArmed)
{
    FaultInjector::installForTest("cell=1:corrupt-rank");
    check::setAuditLevelForTest(check::AuditLevel::Paranoid);
    for (const char *innerJobs : {"1", "2"}) {
        for (unsigned outerJobs : {1u, 2u}) {
            SCOPED_TRACE(strprintf("inner FS_JOBS=%s, outer jobs %u",
                                   innerJobs, outerJobs));
            // setenv is safe here: no pool is alive between sweeps.
            setenv("FS_JOBS", innerJobs, 1);
            SweepRunner runner(outerJobs);
            auto report = runner.mapResilient(3, [](std::size_t) {
                std::vector<std::uint64_t> curve = measureMissCurve(
                    "omnetpp", {256, 512}, 20000,
                    RankKind::CoarseTsLru, 3);
                auto cache = buildCache(checkSpec());
                cache->setTargets({128, 128});
                return curve[0] + curve[1] +
                       driveCyclic(*cache, 20000, /*footprint=*/100);
            });
            unsetenv("FS_JOBS");
            ASSERT_TRUE(report.cells[0].ok()) << report.manifest();
            ASSERT_TRUE(report.cells[2].ok()) << report.manifest();
            EXPECT_EQ(*report.cells[0].value, *report.cells[2].value);
            ASSERT_FALSE(report.cells[1].ok());
            EXPECT_EQ(report.cells[1].errorClass,
                      ErrorClass::Corruption)
                << report.manifest();
        }
    }
}

TEST_F(CorruptionInjection, CorruptClauseParses)
{
    EXPECT_NO_THROW(FaultInjector::parse("cell=3:corrupt"));
    EXPECT_NO_THROW(FaultInjector::parse("cell=4:corrupt-rank"));
    EXPECT_NO_THROW(FaultInjector::parse("cell=5:corrupt-occ"));
    EXPECT_NO_THROW(FaultInjector::parse(
        "cell=0:corrupt-rank;cell=1:corrupt-occ;;cell=2:corrupt"));
    EXPECT_NO_THROW(FaultInjector::parse(""));
}

/** Specs that used to parse into a fault that never fires (a wrapped
 *  "-1" cell), and actions and keys that no longer exist, must all be
 *  rejected up front: a stale spec fails loudly rather than running
 *  the cells unharmed. */
TEST(FaultSpecDeathTest, MalformedClausesAreFatal)
{
    const std::pair<const char *, const char *> cases[] = {
        {"cell=-1:corrupt", "bad cell index \"-1\""},
        {"cell=+1:corrupt", "bad cell index \"\\+1\""},
        {"cell=:corrupt", "bad cell index \"\""},
        {"cell=99999999999999999999:corrupt",
         "cell index \"99999999999999999999\" is out of range"},
        {"cell=1", "is not key=value:action"},
        {"core=1:corrupt", "unknown key \"core\""},
        {"cell=1:corrupt-rank*2", "unknown action \"corrupt-rank\\*2\""},
        // The order index's former name.
        {"cell=1:corrupt-treap", "unknown action \"corrupt-treap\""},
        // The two retired network arms, split so their names stay
        // greppable as gone from the tree.
        {"cell=1:net" "drop", "unknown action \"net" "drop\""},
        {"cell=1:stall", "unknown action \"stall\""},
        // The retired worker-fatal arms.
        {"cell=1:segv", "unknown action \"segv\""},
        {"cell=0:spin", "unknown action \"spin\""},
        // The retired retry and watchdog arms, and the rate key.
        {"cell=1:throw", "unknown action \"throw\""},
        {"cell=1:hang", "unknown action \"hang\""},
        {"cell=0:transient", "unknown action \"transient\""},
        {"rate=0.5:transient", "unknown key \"rate\""},
    };
    for (const auto &[spec, message] : cases)
        EXPECT_EXIT((void)FaultInjector::parse(spec),
                    ::testing::ExitedWithCode(1), message)
            << spec;
}

TEST(ErrorClassNames, CorruptionIsStable)
{
    // Printed into FAILED(...) markers; renaming changes artifacts.
    EXPECT_STREQ(errorClassName(ErrorClass::Corruption),
                 "corruption");
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
