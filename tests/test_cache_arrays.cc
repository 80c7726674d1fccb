/**
 * @file
 * Cache array tests: tag store invariants, candidate discipline per
 * organization, the unrestricted arrays' fill order, restricted-
 * placement lookup against a map reference, zcache walk relocation
 * and home-slot placement, candidate uniformity of the random-
 * candidates array.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <unordered_set>
#include <vector>

#include "cache/array_factory.hh"
#include "cache/fully_assoc_array.hh"
#include "cache/random_cands_array.hh"
#include "cache/set_assoc_array.hh"
#include "cache/skew_assoc_array.hh"
#include "cache/tag_store.hh"
#include "cache/zcache_array.hh"
#include "common/random.hh"
#include "sim/experiment.hh"
#include "trace/workload.hh"

namespace fscache
{
namespace
{

TEST(TagStore, InstallLookupEvict)
{
    TagStore tags(16);
    EXPECT_EQ(tags.lookup(0xabc), kInvalidLine);
    tags.install(3, 0xabc, 1);
    EXPECT_EQ(tags.lookup(0xabc), 3u);
    EXPECT_EQ(tags.line(3).part, 1);
    EXPECT_EQ(tags.partSize(1), 1u);
    EXPECT_EQ(tags.validCount(), 1u);
    tags.evict(3);
    EXPECT_EQ(tags.lookup(0xabc), kInvalidLine);
    EXPECT_EQ(tags.partSize(1), 0u);
    EXPECT_EQ(tags.validCount(), 0u);
}

TEST(TagStore, RetagMovesOccupancy)
{
    TagStore tags(8);
    tags.install(0, 1, 0);
    tags.install(1, 2, 0);
    tags.retag(1, 5);
    EXPECT_EQ(tags.partSize(0), 1u);
    EXPECT_EQ(tags.partSize(5), 1u);
    EXPECT_EQ(tags.line(1).part, 5);
    EXPECT_EQ(tags.lookup(2), 1u); // address mapping unchanged
}

TEST(TagStore, MoveRelocatesLine)
{
    TagStore tags(8, /*indexed=*/false);
    tags.install(2, 0x10, 3);
    tags.move(2, 6);
    EXPECT_EQ(tags.line(6).addr, 0x10u);
    EXPECT_FALSE(tags.line(2).valid);
    EXPECT_EQ(tags.line(2).addr, kInvalidAddr);
    EXPECT_TRUE(tags.line(6).valid);
    EXPECT_EQ(tags.line(6).part, 3);
    EXPECT_EQ(tags.partSize(3), 1u);
    EXPECT_EQ(tags.validCount(), 1u);
}

/**
 * An unrestricted array fills slot numLines - 1 - validCount: the
 * i-th distinct miss lands in slot numLines - 1 - i. Once full,
 * every miss evicts and refills one slot, so all slots stay valid
 * and each resident address is found where its line sits.
 */
TEST(UnrestrictedFill, HighestSlotFirst)
{
    for (ArrayKind kind : {ArrayKind::RandomCands, ArrayKind::FullyAssoc}) {
        SCOPED_TRACE(static_cast<int>(kind));
        CacheSpec spec;
        spec.array.kind = kind;
        spec.array.numLines = 64;
        spec.ranking = RankKind::ExactLru;
        spec.scheme.kind = SchemeKind::Fs;
        spec.numParts = 2;
        spec.seed = 5;
        auto cache = buildCache(spec);
        cache->setTargets({32, 32});
        const CacheArray &arr = cache->array();
        EXPECT_TRUE(arr.unrestrictedPlacement());
        EXPECT_TRUE(arr.tags().indexed());
        for (Addr a = 0; a < 64; ++a) {
            ASSERT_FALSE(cache->access(a & 1, 0x700 + a).hit);
            EXPECT_EQ(arr.lookup(0x700 + a), 63 - a);
        }
        EXPECT_TRUE(arr.tags().full());
        for (Addr a = 0; a < 200; ++a) {
            AccessOutcome out = cache->access(a & 1, 0x900 + a);
            EXPECT_TRUE(out.evicted);
            LineId slot = arr.lookup(0x900 + a);
            ASSERT_NE(slot, kInvalidLine);
            EXPECT_EQ(arr.tags().line(slot).addr, 0x900 + a);
        }
        EXPECT_TRUE(arr.tags().full());
    }
}

TEST(TagStore, ChainedMovesCarryTheLine)
{
    // zcache makeRoom relocates whole ancestor chains; the line
    // record must follow through several hops.
    TagStore tags(8, /*indexed=*/false);
    tags.install(1, 0x42, 0);
    tags.move(1, 3);
    tags.move(3, 5);
    tags.move(5, 0);
    EXPECT_EQ(tags.line(0).addr, 0x42u);
    EXPECT_TRUE(tags.line(0).valid);
    EXPECT_FALSE(tags.line(1).valid);
    EXPECT_FALSE(tags.line(3).valid);
    EXPECT_FALSE(tags.line(5).valid);
    EXPECT_EQ(tags.partSize(0), 1u);
}

TEST(TagStore, MoveThenRetagThenEvict)
{
    TagStore tags(8, /*indexed=*/false);
    tags.install(2, 0x99, 1);
    tags.move(2, 7);
    tags.retag(7, 4);
    EXPECT_EQ(tags.line(7).addr, 0x99u);
    EXPECT_EQ(tags.partSize(1), 0u);
    EXPECT_EQ(tags.partSize(4), 1u);
    tags.evict(7);
    EXPECT_FALSE(tags.line(7).valid);
    EXPECT_EQ(tags.partSize(4), 0u);
    EXPECT_EQ(tags.validCount(), 0u);
}

TEST(TagStore, ReinstallSameAddressDifferentSlot)
{
    TagStore tags(8);
    tags.install(0, 0x1000, 0);
    tags.evict(0);
    tags.install(5, 0x1000, 2);
    EXPECT_EQ(tags.lookup(0x1000), 5u);
    EXPECT_EQ(tags.line(5).part, 2);
}

TEST(TagStore, FullCapacityChurn)
{
    // Fill completely, then stream evict+reinstall cycles so the
    // address index works at its sizing limit (every slot valid)
    // with constant deletions — the regime where an open-addressing
    // index with tombstones would degrade.
    constexpr LineId kLines = 64;
    TagStore tags(kLines);
    for (Addr a = 0; a < kLines; ++a)
        tags.install(static_cast<LineId>(a), 0x5000 + a, 0);
    EXPECT_TRUE(tags.full());

    Rng rng(4096);
    std::vector<Addr> addrOf(kLines);
    for (LineId id = 0; id < kLines; ++id)
        addrOf[id] = 0x5000 + id;
    for (int round = 0; round < 4000; ++round) {
        auto id = static_cast<LineId>(rng.below(kLines));
        tags.evict(id);
        Addr fresh = 0x9000 + static_cast<Addr>(round);
        tags.install(id, fresh, 0);
        addrOf[id] = fresh;
    }
    EXPECT_EQ(tags.validCount(), kLines);
    for (LineId id = 0; id < kLines; ++id) {
        EXPECT_EQ(tags.lookup(addrOf[id]), id);
        EXPECT_EQ(tags.line(id).addr, addrOf[id]);
    }
    // All original addresses were replaced and must be gone.
    for (Addr a = 0; a < kLines; ++a)
        EXPECT_EQ(tags.lookup(0x5000 + a), kInvalidLine);
}

TEST(SetAssoc, CandidatesAreTheSet)
{
    SetAssocArray arr(64, 4, HashKind::Modulo, 1);
    EXPECT_EQ(arr.sets(), 16u);
    EXPECT_EQ(arr.candidateCount(), 4u);
    std::vector<LineId> cands;
    arr.collectCandidates(5, cands);
    ASSERT_EQ(cands.size(), 4u);
    // Modulo hash: addr 5 -> set 5 -> slots 20..23.
    for (std::uint32_t w = 0; w < 4; ++w)
        EXPECT_EQ(cands[w], 20u + w);
}

TEST(SetAssoc, SameSetForAliasedAddresses)
{
    SetAssocArray arr(64, 4, HashKind::Modulo, 1);
    std::vector<LineId> a, b;
    arr.collectCandidates(7, a);
    arr.collectCandidates(7 + 16, b); // same set mod 16
    EXPECT_EQ(a, b);
}

TEST(SetAssoc, DirectMappedSingleCandidate)
{
    SetAssocArray arr(32, 1, HashKind::XorFold, 1);
    std::vector<LineId> cands;
    arr.collectCandidates(123, cands);
    EXPECT_EQ(cands.size(), 1u);
}

/**
 * Each restricted array's lookup, a scan of the slots the address
 * hashes to, against a std::map of every resident address: 16-way
 * set-associative, direct-mapped, skew and a 2-level zcache. First
 * on the bare array: random installs into the address's candidates
 * (a free one, else a random evicted one), each placed through
 * makeRoom so the zcache relocates its walk chain; evictions; and
 * the retags Vantage demotes with, which change a line's partition
 * but never its slot. After every step the step's address, a random
 * one and a random resident one are looked up, and every 500 steps
 * the whole address range and the invalid-address sentinel. Then
 * through a Vantage cache, whose demotions retag lines on the way,
 * with the reference rebuilt from the line records.
 */
TEST(SetAssoc, LookupMatchesMapReference)
{
    constexpr Addr kRange = 4096; // 8x the cache
    for (ArrayKind kind :
         {ArrayKind::SetAssoc, ArrayKind::DirectMapped,
          ArrayKind::SkewAssoc, ArrayKind::ZCache}) {
        ArrayConfig cfg;
        cfg.kind = kind;
        cfg.numLines = 512;
        cfg.seed = 7;
        std::unique_ptr<CacheArray> array = makeArray(cfg);
        CacheArray &arr = *array;
        SCOPED_TRACE(arr.name());
        TagStore &tags = arr.tags();
        EXPECT_FALSE(tags.indexed());
        std::map<Addr, LineId> ref;
        Rng rng(static_cast<std::uint64_t>(kind) + 1);
        std::vector<LineId> set;
        std::uint64_t moves = 0;
        auto onMove = [&](LineId, LineId to) {
            ref[tags.line(to).addr] = to;
            ++moves;
        };
        auto check = [&](Addr a) {
            auto it = ref.find(a);
            ASSERT_EQ(arr.lookup(a),
                      it == ref.end() ? kInvalidLine : it->second)
                << "addr " << a;
        };
        auto anyResident = [&] {
            auto it = ref.begin();
            std::advance(it, rng.below(ref.size()));
            return it;
        };
        std::uint64_t retags = 0;
        for (int step = 0; step < 20000; ++step) {
            Addr a = rng.below(kRange);
            std::uint64_t op = rng.below(10);
            if (op < 6) {
                if (ref.count(a) == 0) {
                    arr.collectCandidates(a, set);
                    LineId slot = kInvalidLine;
                    for (LineId c : set) {
                        if (!tags.line(c).valid) {
                            slot = c;
                            break;
                        }
                    }
                    if (slot == kInvalidLine) {
                        slot = set[rng.below(set.size())];
                        ref.erase(tags.line(slot).addr);
                        tags.evict(slot);
                    }
                    slot = arr.makeRoom(a, slot, onMove);
                    tags.install(slot, a,
                                 static_cast<PartId>(rng.below(4)));
                    ref[a] = slot;
                }
            } else if (op < 8) {
                if (!ref.empty()) {
                    auto it = anyResident();
                    a = it->first;
                    tags.evict(it->second);
                    ref.erase(it);
                }
            } else if (!ref.empty()) {
                // Partition 4 stands for Vantage's unmanaged region.
                auto it = anyResident();
                a = it->first;
                tags.retag(it->second,
                           static_cast<PartId>(rng.below(5)));
                ++retags;
            }
            check(a);
            check(rng.below(kRange));
            if (!ref.empty())
                check(anyResident()->first);
            if (step % 500 == 0) {
                for (Addr b = 0; b < kRange; ++b)
                    check(b);
                // Invalid ways hold the sentinel; it is never found.
                check(kInvalidAddr);
            }
        }
        EXPECT_GT(retags, 1000u);
        if (kind == ArrayKind::ZCache) {
            EXPECT_GT(moves, 1000u);
        }

        CacheSpec spec;
        spec.array = cfg;
        spec.ranking = RankKind::ExactLru;
        spec.scheme.kind = SchemeKind::Vantage;
        spec.numParts = 4;
        spec.seed = 11;
        auto cache = buildCache(spec);
        cache->setTargets({64, 64, 128, 160});
        const TagStore &ctags = cache->array().tags();
        std::uint32_t demotedSeen = 0;
        for (int step = 0; step < 20000; ++step) {
            auto part = static_cast<PartId>(rng.below(4));
            cache->access(part, (Addr{part} << 20) + rng.below(300));
            if (step % 256 != 255)
                continue;
            ref.clear();
            for (LineId id = 0; id < ctags.numLines(); ++id) {
                if (ctags.line(id).valid)
                    ref[ctags.line(id).addr] = id;
            }
            demotedSeen += ctags.partSize(4);
            for (PartId p = 0; p < 4; ++p) {
                for (Addr b = 0; b < 300; ++b) {
                    Addr addr = (Addr{p} << 20) + b;
                    auto it = ref.find(addr);
                    ASSERT_EQ(cache->array().lookup(addr),
                              it == ref.end() ? kInvalidLine
                                              : it->second)
                        << "addr " << addr;
                }
            }
        }
        // A lone candidate is evicted outright, never demoted.
        if (arr.candidateCount() > 1) {
            EXPECT_GT(demotedSeen, 0u);
        }
    }
}

TEST(SkewAssoc, CandidatesSpanBanks)
{
    SkewAssocArray arr(256, 4, 2, 3);
    EXPECT_EQ(arr.candidateCount(), 8u);
    std::vector<LineId> cands;
    arr.collectCandidates(0xdead, cands);
    ASSERT_EQ(cands.size(), 8u);
    // Two candidates per 64-line bank, each pair inside one bank.
    for (std::uint32_t b = 0; b < 4; ++b) {
        EXPECT_GE(cands[2 * b], b * 64u);
        EXPECT_LT(cands[2 * b + 1], (b + 1) * 64u);
    }
    // All distinct.
    std::unordered_set<LineId> uniq(cands.begin(), cands.end());
    EXPECT_EQ(uniq.size(), cands.size());
}

TEST(RandomCands, DistinctAndUniform)
{
    RandomCandsArray arr(1024, 16, Rng(7));
    std::vector<LineId> cands;
    std::vector<int> hits(1024, 0);
    for (int r = 0; r < 4000; ++r) {
        arr.collectCandidates(0, cands);
        ASSERT_EQ(cands.size(), 16u);
        std::unordered_set<LineId> uniq(cands.begin(), cands.end());
        EXPECT_EQ(uniq.size(), 16u);
        for (LineId c : cands)
            ++hits[c];
    }
    // 64000 draws over 1024 slots: expect ~62.5 each.
    for (int h : hits)
        EXPECT_NEAR(h, 62.5, 40.0);
}

TEST(FullyAssoc, Flags)
{
    FullyAssocArray arr(128);
    EXPECT_TRUE(arr.fullyAssociative());
    EXPECT_TRUE(arr.unrestrictedPlacement());
    EXPECT_EQ(arr.candidateCount(), 128u);
}

TEST(ZCache, FirstLevelCandidatesMatchHashes)
{
    ZCacheArray arr(256, 4, 1, 5);
    std::vector<LineId> cands;
    arr.collectCandidates(0x77, cands);
    // One candidate per bank at level 1 (dedup may only shrink).
    EXPECT_LE(cands.size(), 4u);
    EXPECT_GE(cands.size(), 1u);
    for (std::size_t i = 0; i < cands.size(); ++i)
        for (std::size_t j = i + 1; j < cands.size(); ++j)
            EXPECT_NE(cands[i], cands[j]);
}

TEST(ZCache, WalkExpandsWhenLinesValid)
{
    ZCacheArray arr(256, 4, 2, 5);
    TagStore &tags = arr.tags();
    // Fill the level-1 slots for some address so the walk can
    // expand through them.
    std::vector<LineId> l1;
    arr.collectCandidates(0x1234, l1);
    Addr filler = 0x9000;
    for (LineId slot : l1)
        tags.install(slot, filler++, 0);

    std::vector<LineId> cands;
    arr.collectCandidates(0x1234, cands);
    EXPECT_GT(cands.size(), l1.size());
    std::unordered_set<LineId> uniq(cands.begin(), cands.end());
    EXPECT_EQ(uniq.size(), cands.size());
}

TEST(ZCache, MakeRoomRelocatesChainCorrectly)
{
    ZCacheArray arr(256, 4, 2, 5);
    TagStore &tags = arr.tags();
    std::vector<LineId> l1;
    arr.collectCandidates(0x1234, l1);
    // Fill each level-1 slot with an address that hashes to it,
    // found through a one-level twin with the same hashes (level-1
    // candidates come one per bank, in bank order).
    ZCacheArray twin(256, 4, 1, 5);
    std::vector<LineId> home;
    Addr filler = 0x9000;
    std::vector<Addr> installed;
    for (std::size_t b = 0; b < l1.size(); ++b) {
        do {
            twin.collectCandidates(++filler, home);
        } while (home[b] != l1[b]);
        tags.install(l1[b], filler, 0);
        installed.push_back(filler);
    }

    std::vector<LineId> cands;
    arr.collectCandidates(0x1234, cands);
    // Pick a second-level candidate (not in l1).
    LineId victim = kInvalidLine;
    std::unordered_set<LineId> l1set(l1.begin(), l1.end());
    for (LineId c : cands) {
        if (!l1set.count(c)) {
            victim = c;
            break;
        }
    }
    ASSERT_NE(victim, kInvalidLine);

    // Fill the victim slot so the walk chain is realistic.
    if (!tags.line(victim).valid)
        tags.install(victim, 0x8888, 0);
    LineId evicted_slot = victim;
    tags.evict(evicted_slot);

    int moves = 0;
    LineId hole = arr.makeRoom(0x1234, victim,
                               [&](LineId, LineId) { ++moves; });
    EXPECT_EQ(moves, 1);
    // The hole must be a level-1 slot of the incoming address.
    EXPECT_TRUE(l1set.count(hole));
    EXPECT_FALSE(tags.line(hole).valid);
    // All originally installed addresses are still findable.
    for (Addr a : installed)
        EXPECT_NE(arr.lookup(a), kInvalidLine);
}

/**
 * A zcache finds a line only in its level-1 slots, so every fill and
 * every relocation must leave it in one. FS on mcf,gromacs (the
 * fs_zcache_lfu golden's configuration) at walk depths 2 and 3: each
 * valid line's slot is one of the H slots that a one-level twin with
 * the same hashes lists for its address. A fill into a free slot
 * deep in the walk, without relocating the chain, breaks this.
 */
TEST(ZCache, EveryLineSitsInAHomeSlot)
{
    constexpr LineId kLines = 8192;
    Workload wl = Workload::mix({"mcf", "gromacs"}, 40000, 29);
    for (std::uint32_t levels : {2u, 3u}) {
        SCOPED_TRACE(testing::Message() << levels << " levels");
        CacheSpec spec;
        spec.array.kind = ArrayKind::ZCache;
        spec.array.numLines = kLines;
        spec.array.walkLevels = levels;
        spec.ranking = RankKind::Lfu;
        spec.scheme.kind = SchemeKind::Fs;
        spec.numParts = 2;
        spec.seed = 29;
        auto cache = buildCache(spec);
        cache->setTargets({kLines / 2, kLines / 2});
        runUntimed(*cache, wl);

        ZCacheArray twin(kLines, spec.array.banks, 1, spec.seed);
        const TagStore &tags = cache->array().tags();
        std::vector<LineId> home;
        LineId resident = 0;
        LineId misplaced = 0;
        for (LineId id = 0; id < kLines; ++id) {
            if (!tags.line(id).valid)
                continue;
            ++resident;
            twin.collectCandidates(tags.line(id).addr, home);
            if (std::find(home.begin(), home.end(), id) == home.end())
                ++misplaced;
        }
        EXPECT_GT(resident, kLines - kLines / 64);
        EXPECT_EQ(misplaced, 0u) << "of " << resident << " resident";
    }
}

TEST(ArrayFactory, BuildsEveryKind)
{
    for (ArrayKind kind :
         {ArrayKind::SetAssoc, ArrayKind::DirectMapped,
          ArrayKind::SkewAssoc, ArrayKind::ZCache,
          ArrayKind::RandomCands, ArrayKind::FullyAssoc}) {
        ArrayConfig cfg;
        cfg.kind = kind;
        cfg.numLines = 256;
        auto arr = makeArray(cfg);
        ASSERT_NE(arr, nullptr);
        EXPECT_EQ(arr->numLines(), 256u);
        EXPECT_FALSE(arr->name().empty());
    }
    EXPECT_EQ(parseArrayKind("zcache"), ArrayKind::ZCache);
    EXPECT_EQ(parseArrayKind("setassoc"), ArrayKind::SetAssoc);
}

} // namespace
} // namespace fscache
