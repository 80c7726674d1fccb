/**
 * @file
 * Self-checking subsystem tests (src/check): structural invariant
 * auditors against hand-corrupted FlatMap / treap / TagStore state,
 * lockstep shadow-model divergence detection and its deterministic
 * first-divergence report, corruption-aware quarantine routing
 * through the cell guard (FS_FAULTS cell=N:corrupt end to end), and
 * the crash-breadcrumb renderer.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cache/tag_store.hh"
#include "check/audit.hh"
#include "check/breadcrumb.hh"
#include "check/invariants.hh"
#include "check/shadow_cache.hh"
#include "common/errors.hh"
#include "common/fault_injection.hh"
#include "common/flat_map.hh"
#include "common/order_stat_treap.hh"
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

template <>
struct OrderStatTreap<std::uint64_t>::TestAccess
{
    using Treap = OrderStatTreap<std::uint64_t>;

    /** Give the root's first child a priority above its parent. */
    static void
    breakHeap(Treap &t)
    {
        Node &r = t.nodes_[t.root_];
        std::uint32_t child = r.left != kNil ? r.left : r.right;
        ASSERT_NE(child, kNil);
        t.nodes_[child].prio = r.prio + 1;
    }

    static void
    breakSubtreeSize(Treap &t)
    {
        ++t.nodes_[t.root_].size;
    }

    static void
    breakKeyOrder(Treap &t)
    {
        // Make the cached-min (leftmost) node's key the largest.
        t.nodes_[t.minNode_].key = ~0ull;
    }

    /** Point the cached min at the rightmost (largest-key) node,
     *  which can never be the leftmost one for size >= 2. */
    static void
    breakCachedMin(Treap &t)
    {
        std::uint32_t n = t.root_;
        while (t.nodes_[n].right != kNil)
            n = t.nodes_[n].right;
        t.minNode_ = n;
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
using TreapAudit = CheckFixture;
using TagStoreAudit = CheckFixture;
using ShadowModel = CheckFixture;
using CorruptionInjection = CheckFixture;

CacheSpec
checkSpec(RankKind ranking = RankKind::ExactLru,
          std::uint32_t lines = 256)
{
    CacheSpec spec;
    spec.array.kind = ArrayKind::SetAssoc;
    spec.array.numLines = lines;
    spec.array.ways = 16;
    spec.ranking = ranking;
    spec.scheme.kind = SchemeKind::Fs;
    spec.numParts = 2;
    spec.seed = 3;
    return spec;
}

/** Cyclic two-partition workload: every address is re-accessed, so
 *  the shadow model is guaranteed to see a corrupted index entry. */
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

TEST_F(TreapAudit, CleanTreapPassesThroughChurn)
{
    OrderStatTreap<std::uint64_t> t;
    for (std::uint64_t k = 0; k < 200; ++k)
        t.insert(k * 3 + 1);
    for (std::uint64_t k = 0; k < 100; ++k)
        t.erase(k * 6 + 1);
    EXPECT_EQ(t.auditInvariants(), "");
    EXPECT_EQ(OrderStatTreap<std::uint64_t>().auditInvariants(), "");
}

TEST_F(TreapAudit, HeapViolationDetected)
{
    OrderStatTreap<std::uint64_t> t;
    for (std::uint64_t k = 1; k <= 64; ++k)
        t.insert(k);
    OrderStatTreap<std::uint64_t>::TestAccess::breakHeap(t);
    EXPECT_NE(t.auditInvariants().find("heap violation"),
              std::string::npos);
}

TEST_F(TreapAudit, SubtreeSizeDriftDetected)
{
    OrderStatTreap<std::uint64_t> t;
    for (std::uint64_t k = 1; k <= 64; ++k)
        t.insert(k);
    OrderStatTreap<std::uint64_t>::TestAccess::breakSubtreeSize(t);
    EXPECT_NE(t.auditInvariants().find("subtree size"),
              std::string::npos);
}

TEST_F(TreapAudit, KeyOrderViolationDetected)
{
    OrderStatTreap<std::uint64_t> t;
    for (std::uint64_t k = 1; k <= 64; ++k)
        t.insert(k);
    OrderStatTreap<std::uint64_t>::TestAccess::breakKeyOrder(t);
    EXPECT_NE(t.auditInvariants().find("key order"),
              std::string::npos);
}

TEST_F(TreapAudit, StaleCachedMinDetected)
{
    OrderStatTreap<std::uint64_t> t;
    for (std::uint64_t k = 1; k <= 64; ++k)
        t.insert(k);
    OrderStatTreap<std::uint64_t>::TestAccess::breakCachedMin(t);
    EXPECT_NE(t.auditInvariants().find("cached min"),
              std::string::npos);
}

TEST_F(TagStoreAudit, IndexCorruptionCaughtByDeepAudit)
{
    auto cache = buildCache(checkSpec());
    cache->setTargets({128, 128});
    driveCyclic(*cache, 2000);
    TagStore &tags = cache->array().tags();
    EXPECT_EQ(tags.auditInvariants(), "");
    EXPECT_EQ(check::auditDeepConsistency(tags, cache->ranking(),
                                          cache->numPartitions()),
              "");

    LineId victim = tags.corruptAddrIndexForFaultInjection();
    ASSERT_NE(victim, kInvalidLine);
    std::string err = tags.auditInvariants();
    EXPECT_NE(err.find("missing from the address index"),
              std::string::npos)
        << err;
    EXPECT_NE(check::auditDeepConsistency(tags, cache->ranking(),
                                          cache->numPartitions()),
              "");
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
 *  found by this very shadow model: the treap key moved with the
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
    auto corruptedRun = [] {
        auto cache = buildCache(checkSpec());
        cache->setTargets({128, 128});
        // Footprint below capacity: the whole working set stays
        // resident, so no eviction can silently "heal" the broken
        // index entry before its address is re-accessed.
        driveCyclic(*cache, 1000, /*footprint=*/100);
        cache->array().tags().corruptAddrIndexForFaultInjection();
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

TEST_F(CorruptionInjection, ParanoidAuditCatchesCorruptionOnStride)
{
    check::setAuditLevelForTest(check::AuditLevel::Paranoid);
    auto cache = buildCache(checkSpec());
    cache->setTargets({128, 128});
    driveCyclic(*cache, 1500, /*footprint=*/100);
    cache->array().tags().corruptAddrIndexForFaultInjection();
    // The deep audit runs on a 1024-access stride; driving one full
    // stride's worth of accesses must trip it (the resident-set
    // footprint rules out an eviction healing the damage first).
    EXPECT_THROW(driveCyclic(*cache, 2048, /*footprint=*/100),
                 StateCorruptionError);
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
    CellGuardConfig cfg;
    cfg.maxAttempts = 3;
    cfg.backoffBaseMs = 0;
    SweepRunner runner(1);
    auto report = runner.mapResilient(
        2,
        [](std::size_t cell) {
            auto cache = buildCache(checkSpec());
            cache->setTargets({128, 128});
            // > 8192 accesses: the armed corruption is consumed on
            // the cache's 8192-access watchdog stride. Resident-set
            // footprint: no eviction can heal it undetected.
            return driveCyclic(*cache, 20000 + cell,
                               /*footprint=*/100);
        },
        cfg);

    ASSERT_FALSE(report.cells[0].ok());
    EXPECT_EQ(report.cells[0].status, CellStatus::Failed);
    EXPECT_EQ(report.cells[0].errorClass, ErrorClass::Corruption);
    // Corruption is deterministic; retrying would be wasted work.
    EXPECT_EQ(report.cells[0].attempts, 1u);
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

TEST_F(CorruptionInjection, UnconsumedArmDoesNotLeakAcrossCells)
{
    FaultInjector::installForTest("cell=0:corrupt");
    check::setAuditLevelForTest(check::AuditLevel::Paranoid);
    CellGuardConfig cfg;
    cfg.maxAttempts = 1;
    cfg.backoffBaseMs = 0;
    SweepRunner runner(1);
    // Cell 0 runs too few accesses to reach the consuming stride;
    // the armed flag must be discarded at cell 1's fault point, not
    // corrupt cell 1.
    auto report = runner.mapResilient(
        2,
        [](std::size_t) {
            auto cache = buildCache(checkSpec());
            cache->setTargets({128, 128});
            return driveCyclic(*cache, 4000);
        },
        cfg);
    EXPECT_TRUE(report.allOk()) << report.manifest();
}

/** The ranking-order arm: a silent size bump (the recency base's
 *  resident counter; for treap-backed rankings, the root's subtree
 *  size) is navigation-safe — descents and worstIn never read the
 *  damaged counter — so only the audits can see it. */
TEST_F(CorruptionInjection, RankTreapCorruptionDetectedByAudits)
{
    check::setAuditLevelForTest(check::AuditLevel::Paranoid);
    auto cache = buildCache(checkSpec());
    cache->setTargets({128, 128});
    driveCyclic(*cache, 1500, /*footprint=*/100);
    ASSERT_TRUE(cache->ranking().corruptRankNodeForFaultInjection());
    EXPECT_NE(check::auditOccupancySums(cache->array().tags(),
                                        cache->ranking(),
                                        cache->numPartitions()),
              "");
    // The damage sits in partition 0's counter (the first non-empty
    // one). Touch the *other* partition so the cross-structure sum
    // audit sees the drift before partition 0's own bookkeeping is
    // exercised — exactly how the stride audits catch it in a live
    // run.
    EXPECT_THROW(cache->access(1, 2 * 100000 + 1),
                 StateCorruptionError);
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

/** FS_FAULTS corrupt-treap / corrupt-occ end to end, mirroring the
 *  tag-index clause above: armed at the fault point, consumed on the
 *  watchdog stride, quarantined FAILED(corruption). */
TEST_F(CorruptionInjection, TreapAndOccupancyCellsQuarantined)
{
    for (const char *faults :
         {"cell=0:corrupt-treap", "cell=0:corrupt-occ"}) {
        FaultInjector::installForTest(faults);
        check::setAuditLevelForTest(check::AuditLevel::Paranoid);
        CellGuardConfig cfg;
        cfg.maxAttempts = 3;
        cfg.backoffBaseMs = 0;
        SweepRunner runner(1);
        auto report = runner.mapResilient(
            2,
            [](std::size_t cell) {
                auto cache = buildCache(checkSpec());
                cache->setTargets({128, 128});
                return driveCyclic(*cache, 20000 + cell,
                                   /*footprint=*/100);
            },
            cfg);
        ASSERT_FALSE(report.cells[0].ok()) << faults;
        EXPECT_EQ(report.cells[0].errorClass, ErrorClass::Corruption)
            << faults;
        EXPECT_EQ(report.cells[0].attempts, 1u) << faults;
        EXPECT_TRUE(report.cells[1].ok()) << faults;
    }
}

TEST_F(CorruptionInjection, CorruptClauseParses)
{
    EXPECT_NO_THROW(FaultInjector::parse("cell=3:corrupt"));
    EXPECT_NO_THROW(
        FaultInjector::parse("cell=1:corrupt;cell=2:throw"));
    EXPECT_NO_THROW(FaultInjector::parse("cell=4:corrupt-treap"));
    EXPECT_NO_THROW(FaultInjector::parse("cell=5:corrupt-occ"));
    EXPECT_NO_THROW(FaultInjector::parse(
        "cell=0:corrupt-treap;cell=1:corrupt-occ;cell=2:corrupt"));
    EXPECT_NO_THROW(FaultInjector::parse("cell=0:transient*4294967295"));
}

/** Specs that used to parse into a fault that never fires (a wrapped
 *  "-1" cell, a truncated attempt count), and actions that no longer
 *  exist, must all be rejected up front. */
TEST(FaultSpecDeathTest, MalformedClausesAreFatal)
{
    const std::pair<const char *, const char *> cases[] = {
        {"cell=-1:throw", "bad cell index \"-1\""},
        {"cell=+1:throw", "bad cell index \"\\+1\""},
        {"cell=:throw", "bad cell index \"\""},
        {"cell=99999999999999999999:throw",
         "cell index \"99999999999999999999\" is out of range"},
        {"cell=0:transient*4294967296",
         "attempt count \"4294967296\" is out of range"},
        {"cell=0:transient*-1", "bad attempt count \"-1\""},
        {"cell=0:transient*0", "transient\\*0 never fires"},
        // The two retired network arms, split so their names stay
        // greppable as gone from the tree.
        {"cell=1:net" "drop", "unknown action \"net" "drop\""},
        {"cell=1:stall", "unknown action \"stall\""},
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

TEST(Breadcrumbs, RenderCarriesCellAccessAndContext)
{
    check::installCrashBreadcrumbs();
    check::installCrashBreadcrumbs(); // idempotent
    check::breadcrumbSetCell(42);
    check::breadcrumbSetAccess(81920);
    check::breadcrumbSetContext("scheme=%s lines=%u", "fs", 4096u);
    std::string dump = check::renderBreadcrumbsForTest();
    EXPECT_NE(dump.find("cell=42"), std::string::npos) << dump;
    EXPECT_NE(dump.find("access=81920"), std::string::npos) << dump;
    EXPECT_NE(dump.find("scheme=fs lines=4096"), std::string::npos)
        << dump;
    check::breadcrumbClearCell();
    EXPECT_EQ(check::renderBreadcrumbsForTest().find("cell=42"),
              std::string::npos);
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
