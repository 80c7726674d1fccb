/**
 * @file
 * Fenwick indexes (common/fenwick.hh) and their three clients: the
 * touch-order ranking base (ranking/class_ranking_base.hh) behind
 * exact LRU, Random and coarse LRU (one class) and LFU and RRIP
 * (many), the OPT ranking (ranking/opt_ranking.hh) and the
 * stack-distance generator (trace/stack_dist_generator.hh).
 * FenwickTree is checked against a naive count array and BitFenwick
 * against FenwickTree; each client against a naive reference through
 * randomized op sequences long enough to force every axis
 * renumbering and growth path; plus the corruption fault hooks'
 * detectability contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/fenwick.hh"
#include "common/random.hh"
#include "ranking/exact_lru_ranking.hh"
#include "ranking/lfu_ranking.hh"
#include "ranking/opt_ranking.hh"
#include "ranking/random_ranking.hh"
#include "ranking/rrip_ranking.hh"
#include "trace/instr_gap.hh"
#include "trace/stack_dist_generator.hh"

namespace fscache
{
namespace
{

TEST(Fenwick, MatchesNaiveMarkArray)
{
    constexpr std::uint32_t kCap = 64;
    FenwickTree fen(kCap);
    std::vector<std::uint8_t> naive(kCap, 0);
    Rng rng(31);
    for (int round = 0; round < 4000; ++round) {
        std::uint32_t pos = rng.below(kCap);
        if (naive[pos]) {
            fen.unmark(pos);
            naive[pos] = 0;
        } else {
            fen.mark(pos);
            naive[pos] = 1;
        }

        std::uint32_t want_total = 0;
        std::uint32_t first = kCap;
        for (std::uint32_t p = 0; p < kCap; ++p) {
            if (!naive[p])
                continue;
            ++want_total;
            first = std::min(first, p);
        }
        ASSERT_EQ(fen.total(), want_total);
        std::uint32_t probe = rng.below(kCap + 1);
        std::uint32_t want_below = 0;
        for (std::uint32_t p = 0; p < probe; ++p)
            want_below += naive[p];
        ASSERT_EQ(fen.countBelow(probe), want_below) << probe;
        if (want_total > 0) {
            ASSERT_EQ(fen.select(0).pos, first);
        }
    }
}

/**
 * Counts above one (OPT's equal next uses), select() over every
 * rank, grow() by one and by several doublings, and fillPrefix(),
 * all against a naive per-position count array.
 */
TEST(Fenwick, CountsSelectAndGrowMatchNaiveCounts)
{
    FenwickTree fen(8);
    std::vector<std::uint32_t> naive(8, 0);
    Rng rng(77);
    auto check = [&](int round) {
        std::uint32_t total = 0;
        for (std::uint32_t p = 0; p < naive.size(); ++p) {
            ASSERT_EQ(fen.countBelow(p), total) << round << " @" << p;
            total += naive[p];
        }
        ASSERT_EQ(fen.countBelow(fen.capacity()), total) << round;
        ASSERT_EQ(fen.total(), total) << round;
        std::uint32_t k = 0;
        for (std::uint32_t p = 0; p < naive.size(); ++p) {
            for (std::uint32_t c = 0; c < naive[p]; ++c, ++k) {
                FenwickTree::Slot slot = fen.select(k);
                ASSERT_EQ(slot.pos, p) << round << " k=" << k;
                ASSERT_EQ(slot.within, c) << round << " k=" << k;
            }
        }
    };
    for (int round = 0; round < 3000; ++round) {
        if (round % 500 == 499) {
            // Grow by 1..3 doublings, keeping every count.
            auto cap = static_cast<std::uint32_t>(
                naive.size() << rng.range(1, 3));
            fen.grow(cap);
            naive.resize(cap, 0);
            ASSERT_EQ(fen.capacity(), cap);
        } else {
            // Concentrate marks on few positions so counts pile up.
            auto pos = static_cast<std::uint32_t>(
                rng.below(12) * naive.size() / 12);
            if (naive[pos] > 0 && rng.chance(0.45)) {
                fen.unmark(pos);
                --naive[pos];
            } else {
                fen.mark(pos);
                ++naive[pos];
            }
        }
        check(round);
    }

    for (std::uint32_t n : {0u, 1u, 5u, 64u, 128u}) {
        FenwickTree fill(128);
        fill.mark(3); // overwritten by the fill
        fill.fillPrefix(n);
        naive.assign(128, 0);
        std::fill(naive.begin(), naive.begin() + n, 1);
        fen = fill;
        check(-static_cast<int>(n));
    }
}

TEST(Fenwick, ClearKeepsCapacity)
{
    FenwickTree fen(16);
    fen.mark(3);
    fen.mark(9);
    fen.clear();
    EXPECT_EQ(fen.total(), 0u);
    EXPECT_EQ(fen.capacity(), 16u);
    EXPECT_EQ(fen.countBelow(16), 0u);
    fen.mark(15);
    EXPECT_EQ(fen.select(0).pos, 15u);
}

/** Every countBelow, every select and the total of a BitFenwick
 *  against a FenwickTree holding the same marks. */
void
expectSameIndex(const BitFenwick &bits, const FenwickTree &ref,
                const char *where)
{
    SCOPED_TRACE(where);
    ASSERT_EQ(bits.capacity(), ref.capacity());
    ASSERT_EQ(bits.total(), ref.total());
    for (std::uint32_t pos = 0; pos <= ref.capacity(); ++pos)
        ASSERT_EQ(bits.countBelow(pos), ref.countBelow(pos)) << pos;
    for (std::uint32_t k = 0; k < ref.total(); ++k)
        ASSERT_EQ(bits.select(k), ref.select(k).pos) << "k=" << k;
}

/**
 * BitFenwick against FenwickTree through seeded random mark/unmark
 * runs at the smallest capacity (64, a single word) and two larger
 * ones. Each run starts from a prefix fill at or around a word edge
 * (n = 0, 1, 63, 64, 65, capacity), then goes sparse (a few marks
 * per word), dense (whole words of ones, so in-word selects land on
 * every bit) and sparse again, and a setBit()/recount() rebuild of
 * the marks must match; clear() then empties the pair for a last
 * half-full run. Last, a random mix of mark, unmark (mostly of the
 * lowest mark), clear, fillPrefix and setBit + recount checks
 * select(0) against a naive scan after every step.
 */
TEST(BitFenwick, MatchesFenwickTree)
{
    Rng rng(6464);
    for (std::uint32_t cap : {64u, 256u, 4096u}) {
        SCOPED_TRACE(testing::Message() << "capacity " << cap);
        BitFenwick bits(cap);
        FenwickTree ref(cap);
        std::vector<std::uint8_t> marked(cap, 0);
        auto randomOps = [&](double density, int ops) {
            for (int i = 0; i < ops; ++i) {
                std::uint32_t pos = rng.below(cap);
                // Drift toward `density` marked positions.
                bool want = rng.chance(density);
                if (marked[pos] && !want) {
                    bits.unmark(pos);
                    ref.unmark(pos);
                    marked[pos] = 0;
                } else if (!marked[pos] && want) {
                    bits.mark(pos);
                    ref.mark(pos);
                    marked[pos] = 1;
                }
            }
        };
        auto fillBoth = [&](std::uint32_t n) {
            bits.fillPrefix(n);
            ref.clear();
            for (std::uint32_t pos = 0; pos < cap; ++pos) {
                marked[pos] = pos < n;
                if (pos < n)
                    ref.mark(pos);
            }
        };

        expectSameIndex(bits, ref, "empty");
        for (std::uint32_t n : {0u, 1u, 63u, 64u, 65u, cap}) {
            if (n > cap)
                continue;
            fillBoth(n);
            expectSameIndex(bits, ref, "fillPrefix");
            randomOps(0.05, static_cast<int>(cap));
            expectSameIndex(bits, ref, "sparse");
            randomOps(0.98, static_cast<int>(4 * cap));
            expectSameIndex(bits, ref, "dense");
            randomOps(0.02, static_cast<int>(4 * cap));
            expectSameIndex(bits, ref, "thinned");

            // The bulk rebuild (compaction's path) lands on the same
            // index as a mark() per position.
            BitFenwick rebuilt(cap);
            for (std::uint32_t pos = 0; pos < cap; ++pos) {
                if (marked[pos])
                    rebuilt.setBit(pos);
            }
            rebuilt.recount();
            expectSameIndex(rebuilt, ref, "recount");
        }
        bits.clear();
        ref.clear();
        std::fill(marked.begin(), marked.end(), 0);
        expectSameIndex(bits, ref, "clear");
        EXPECT_EQ(bits.capacity(), cap);
        randomOps(0.5, static_cast<int>(cap));
        expectSameIndex(bits, ref, "after clear");

        // select(0) reads a kept first-word index: after every step
        // of a random mix of every operation that moves it, it must
        // name the lowest marked position a naive scan finds.
        auto lowest = [&] {
            std::uint32_t pos = 0;
            while (!marked[pos])
                ++pos;
            return pos;
        };
        std::uint32_t count = bits.total();
        for (int step = 0; step < 4000; ++step) {
            SCOPED_TRACE(testing::Message() << "step " << step);
            std::uint32_t op = rng.below(100);
            if (op < 40) {
                std::uint32_t pos = rng.below(cap);
                if (!marked[pos]) {
                    bits.mark(pos);
                    marked[pos] = 1;
                    ++count;
                }
            } else if (op < 85) {
                if (count != 0) {
                    // Mostly the lowest mark, so the index advances
                    // across emptied words; sometimes any mark.
                    std::uint32_t pos = lowest();
                    if (rng.chance(0.3)) {
                        do
                            pos = rng.below(cap);
                        while (!marked[pos]);
                    }
                    bits.unmark(pos);
                    marked[pos] = 0;
                    --count;
                }
            } else if (op < 88) {
                bits.clear();
                std::fill(marked.begin(), marked.end(), 0);
                count = 0;
            } else if (op < 94) {
                count = rng.below(cap + 1);
                bits.fillPrefix(count);
                for (std::uint32_t pos = 0; pos < cap; ++pos)
                    marked[pos] = pos < count;
            } else {
                // The bulk rebuild: a sparse high-lying set of bits.
                bits.clear();
                std::fill(marked.begin(), marked.end(), 0);
                count = 0;
                std::uint32_t from = rng.below(cap);
                for (std::uint32_t pos = from; pos < cap; ++pos) {
                    if (rng.chance(0.02)) {
                        bits.setBit(pos);
                        marked[pos] = 1;
                        ++count;
                    }
                }
                bits.recount();
            }
            ASSERT_EQ(bits.total(), count);
            if (count != 0) {
                ASSERT_EQ(bits.select(0), lowest());
            }
        }
    }
}

/**
 * BitFenwick::grow keeps every mark. A tree marked at random grows
 * from 64 positions through single doublings and one fourfold step
 * to 4096, with marks added and removed between steps, and after
 * every step countBelow, select, test and select(0) agree with a
 * naive array at every position. An empty tree stays empty, and its
 * first-word index moves to the new end: a mark in the new part is
 * then the lowest.
 */
TEST(BitFenwick, GrowKeepsEveryMark)
{
    Rng rng(2048);
    BitFenwick bits(64);
    std::vector<std::uint8_t> marked(64, 0);
    auto expectNaive = [&](const char *where) {
        SCOPED_TRACE(testing::Message()
                     << where << " at capacity " << bits.capacity());
        std::uint32_t cap = bits.capacity();
        ASSERT_EQ(cap, marked.size());
        std::vector<std::uint32_t> at;
        for (std::uint32_t pos = 0; pos < cap; ++pos) {
            ASSERT_EQ(bits.countBelow(pos), at.size()) << pos;
            ASSERT_EQ(bits.test(pos), marked[pos] != 0) << pos;
            if (marked[pos])
                at.push_back(pos);
        }
        ASSERT_EQ(bits.countBelow(cap), at.size());
        ASSERT_EQ(bits.total(), at.size());
        for (std::uint32_t k = 0; k < at.size(); ++k)
            ASSERT_EQ(bits.select(k), at[k]) << "k=" << k;
    };
    auto churn = [&](int ops) {
        for (int i = 0; i < ops; ++i) {
            auto pos =
                static_cast<std::uint32_t>(rng.below(marked.size()));
            if (marked[pos])
                bits.unmark(pos);
            else
                bits.mark(pos);
            marked[pos] ^= 1;
        }
    };

    churn(40);
    expectNaive("marked");
    for (std::uint32_t cap : {128u, 256u, 1024u, 2048u, 4096u}) {
        bits.grow(cap);
        marked.resize(cap, 0);
        expectNaive("grown");
        churn(static_cast<int>(cap / 4));
        expectNaive("churned");
    }
    // Empty the low words, so the lowest mark lies in grown words.
    for (std::uint32_t pos = 0; pos < 2048; ++pos) {
        if (marked[pos]) {
            bits.unmark(pos);
            marked[pos] = 0;
        }
    }
    expectNaive("low half emptied");

    BitFenwick empty(64);
    empty.mark(3);
    empty.unmark(3);
    empty.grow(256);
    EXPECT_EQ(empty.capacity(), 256u);
    EXPECT_EQ(empty.total(), 0u);
    EXPECT_EQ(empty.countBelow(256), 0u);
    empty.mark(200);
    EXPECT_EQ(empty.select(0), 200u);
    empty.unmark(200);
    empty.grow(1024);
    EXPECT_EQ(empty.total(), 0u);
    empty.mark(1000);
    empty.mark(700);
    EXPECT_EQ(empty.select(0), 700u);
    EXPECT_EQ(empty.select(1), 1000u);
}

TEST(BitFenwickDeathTest, RejectsDoubleMarksAndSmallCapacity)
{
    BitFenwick bits(64);
    bits.mark(5);
    EXPECT_DEATH(bits.mark(5), "already marked");
    EXPECT_DEATH(bits.unmark(6), "not marked");
    EXPECT_DEATH(bits.mark(64), "out of range");
    EXPECT_DEATH(BitFenwick(32), "power of two >= 64");
}

/**
 * Naive (class, touch order) reference for every ClassRankingBase
 * client: every line's partition, class and last-touch clock, ranked
 * by the definition — more useful = higher class, then more recent
 * touch — with O(n) scans. With one class it is plain recency.
 */
class NaiveClassOrder
{
  public:
    void
    install(LineId id, PartId part, std::uint32_t cls)
    {
        lines_[id] = {part, cls, ++clock_};
    }

    void
    hit(LineId id, std::uint32_t cls)
    {
        lines_.at(id).cls = cls;
        lines_.at(id).touch = ++clock_;
    }

    void evict(LineId id) { lines_.erase(id); }
    void retag(LineId id, PartId part) { lines_.at(id).part = part; }

    void
    relocate(LineId from, LineId to)
    {
        lines_[to] = lines_.at(from);
        lines_.erase(from);
    }

    bool contains(LineId id) const { return lines_.count(id) != 0; }
    std::size_t lines() const { return lines_.size(); }

    LineId
    lineAt(std::size_t i) const
    {
        return std::next(lines_.begin(),
                         static_cast<std::ptrdiff_t>(i))->first;
    }

    PartId partOf(LineId id) const { return lines_.at(id).part; }
    std::uint32_t classOf(LineId id) const { return lines_.at(id).cls; }

    std::uint32_t
    partLines(PartId part) const
    {
        std::uint32_t n = 0;
        for (const auto &[id, l] : lines_)
            n += l.part == part;
        return n;
    }

    double
    exactFutility(LineId id) const
    {
        const Line &me = lines_.at(id);
        std::uint32_t size = 0;
        std::uint32_t rank = 1;
        for (const auto &[other, l] : lines_) {
            if (l.part != me.part)
                continue;
            ++size;
            rank += l.cls > me.cls ||
                    (l.cls == me.cls && l.touch > me.touch);
        }
        return static_cast<double>(rank) / static_cast<double>(size);
    }

    LineId
    worstIn(PartId part) const
    {
        LineId worst = kInvalidLine;
        const Line *w = nullptr;
        for (const auto &[id, l] : lines_) {
            if (l.part == part &&
                (w == nullptr || l.cls < w->cls ||
                 (l.cls == w->cls && l.touch < w->touch))) {
                worst = id;
                w = &l;
            }
        }
        return worst;
    }

  private:
    struct Line
    {
        PartId part;
        std::uint32_t cls;
        std::uint64_t touch;
    };
    std::map<LineId, Line> lines_;
    std::uint64_t clock_ = 0;
};

/** Line slots and partitions of the usual driver run: 24 slots put
 *  the stamp axis at 64 stamps, so thousands of touches compact it
 *  many times. */
constexpr LineId kDriverLines = 24;
constexpr PartId kDriverParts = 3;

/**
 * Drives a ClassRankingBase client and NaiveClassOrder through the
 * same seeded random install / hit / evict / retag / relocate
 * sequence over `lines` slots and `parts` partitions. A quarter of
 * the ops hit one of the three highest-class lines, which evictions
 * spare, so LFU's top frequencies climb into the hundreds and its
 * class axis doubles repeatedly.
 */
template <class Ranking>
struct ClassOrderDriver
{
    Ranking &rank;
    LineId lines;
    PartId parts;
    std::uint32_t installClass;
    std::function<std::uint32_t(std::uint32_t)> hitClass;
    Rng rng;
    NaiveClassOrder naive;

    LineId
    randomPresent()
    {
        return naive.lineAt(rng.below(naive.lines()));
    }

    LineId
    randomAbsent()
    {
        LineId id;
        do {
            id = static_cast<LineId>(rng.below(lines));
        } while (naive.contains(id));
        return id;
    }

    /** The three present lines of the highest classes. */
    std::vector<LineId>
    hotLines() const
    {
        std::vector<LineId> ids;
        for (std::size_t i = 0; i < naive.lines(); ++i)
            ids.push_back(naive.lineAt(i));
        std::stable_sort(ids.begin(), ids.end(),
                         [&](LineId a, LineId b) {
                             return naive.classOf(a) >
                                    naive.classOf(b);
                         });
        ids.resize(std::min<std::size_t>(3, ids.size()));
        return ids;
    }

    void
    hit(LineId id)
    {
        std::uint32_t cls = hitClass(naive.classOf(id));
        rank.onHit(id, kNeverUsed);
        naive.hit(id, cls);
    }

    /** Every query against the reference; the deep audit too when
     *  `audit`. */
    void
    check(bool audit, int op) const
    {
        SCOPED_TRACE(testing::Message() << "op " << op);
        if (audit) {
            ASSERT_EQ(rank.auditInvariants(), "");
        }
        for (PartId p = 0; p < parts + 1; ++p) {
            ASSERT_EQ(rank.partLines(p), naive.partLines(p)) << int{p};
            ASSERT_EQ(rank.worstIn(p), naive.worstIn(p)) << int{p};
        }
        std::vector<LineId> ids;
        for (std::size_t i = 0; i < naive.lines(); ++i) {
            LineId id = naive.lineAt(i);
            ids.push_back(id);
            ASSERT_EQ(rank.partOf(id), naive.partOf(id)) << id;
            // Bit-exact: both sides divide the same integers.
            ASSERT_EQ(rank.exactFutility(id), naive.exactFutility(id))
                << id;
        }
        // Random's scheme futility is a fresh draw per query, so
        // only the deterministic rankings' batch is comparable.
        if constexpr (!std::is_same_v<Ranking, RandomRanking>) {
            std::vector<double> many(ids.size());
            rank.schemeFutilityMany(ids, many.data());
            for (std::size_t i = 0; i < ids.size(); ++i)
                ASSERT_EQ(many[i], rank.schemeFutility(ids[i]))
                    << ids[i];
        }
    }

    /** `ops` random ops, checking after each; auditing every
     *  `auditEvery`-th. */
    void
    randomOps(int ops, int auditEvery)
    {
        for (int op = 0; op < ops; ++op) {
            std::uint32_t kind = rng.below(20);
            if (naive.lines() == 0 ||
                (kind < 4 && naive.lines() < lines)) {
                LineId id = randomAbsent();
                auto part = static_cast<PartId>(rng.below(parts));
                rank.onInstall(id, part, kNeverUsed);
                naive.install(id, part, installClass);
            } else if (kind < 8) {
                hit(randomPresent());
            } else if (kind < 13) {
                std::vector<LineId> hot = hotLines();
                hit(hot[rng.below(hot.size())]);
            } else if (kind < 15) {
                std::vector<LineId> hot = hotLines();
                LineId id = randomPresent();
                if (std::find(hot.begin(), hot.end(), id) ==
                    hot.end()) {
                    rank.onEvict(id);
                    naive.evict(id);
                }
            } else if (kind < 17) {
                LineId id = randomPresent();
                auto part = static_cast<PartId>(rng.below(parts));
                rank.onRetag(id, part);
                naive.retag(id, part);
            } else if (naive.lines() < lines) {
                LineId from = randomPresent();
                LineId to = randomAbsent();
                rank.onRelocate(from, to);
                naive.relocate(from, to);
            }
            check(op % auditEvery == 0, op);
            if (testing::Test::HasFatalFailure())
                return;
        }
    }

    std::uint32_t
    topClass() const
    {
        std::uint32_t top = 0;
        for (std::size_t i = 0; i < naive.lines(); ++i)
            top = std::max(top, naive.classOf(naive.lineAt(i)));
        return top;
    }

    /** The corruption hook damages the first non-empty partition's
     *  counter silently: navigation is unchanged, only the deep
     *  audit sees it. */
    void
    corruptAndAudit()
    {
        PartId first = 0;
        while (naive.partLines(first) == 0)
            ++first;
        LineId worst = rank.worstIn(first);
        ASSERT_TRUE(rank.corruptRankNodeForFaultInjection());
        EXPECT_EQ(rank.partLines(first), naive.partLines(first) + 1);
        EXPECT_EQ(rank.worstIn(first), worst)
            << "navigation must stay safe";
        EXPECT_NE(rank.auditInvariants(), "");
    }
};

/**
 * LFU against the naive reference through compactions and class-axis
 * doublings; then one line is hit past kFreqCap (its partition's
 * class axis grows to 2^19 and the frequency saturates) and the
 * random sequence resumes on top of that, auditing on a stride since
 * each audit now walks 2^19 classes.
 */
TEST(ClassIndex, LfuMatchesNaiveReference)
{
    LfuRanking rank(kDriverLines);
    ClassOrderDriver<LfuRanking> d{
        rank, kDriverLines, kDriverParts, 1,
        [](std::uint32_t freq) {
            return freq < LfuRanking::kFreqCap ? freq + 1 : freq;
        },
        Rng(5151), {}};
    d.randomOps(6000, 1);
    ASSERT_FALSE(HasFatalFailure());
    EXPECT_GT(d.topClass(), 256u)
        << "the class axis should have doubled from 16 to 512";

    LineId id = d.hotLines()[0];
    while (d.naive.classOf(id) < LfuRanking::kFreqCap)
        d.hit(id);
    d.hit(id);
    d.hit(id);
    EXPECT_EQ(rank.frequency(id), LfuRanking::kFreqCap);
    d.check(true, -1);
    ASSERT_FALSE(HasFatalFailure());
    d.randomOps(400, 100);
    ASSERT_FALSE(HasFatalFailure());
    d.corruptAndAudit();
}

/** RRIP: installs enter class 1 (RRPV rrpvMax - 1), hits promote to
 *  class rrpvMax (RRPV 0). */
TEST(ClassIndex, RripMatchesNaiveReference)
{
    for (std::uint32_t bits : {2u, 3u}) {
        SCOPED_TRACE(testing::Message() << bits << "-bit RRPV");
        RripRanking rank(kDriverLines, bits);
        std::uint32_t top = (1u << bits) - 1;
        ClassOrderDriver<RripRanking> d{
            rank, kDriverLines, kDriverParts, 1,
            [top](std::uint32_t) { return top; },
            Rng(6161 + bits), {}};
        d.randomOps(4000, 1);
        ASSERT_FALSE(HasFatalFailure());
        for (std::size_t i = 0; i < d.naive.lines(); ++i) {
            LineId line = d.naive.lineAt(i);
            ASSERT_EQ(rank.rrpv(line), top - d.naive.classOf(line));
        }
        d.corruptAndAudit();
    }
}

/**
 * A one-class client (exact LRU, Random's exact order) through the
 * driver: every install and hit is class 0, so the reference is
 * plain recency. The corruption hook is checked at the end.
 */
template <class Ranking>
void
matchOneClass(Ranking &rank, LineId lines, PartId parts, int ops,
              std::uint64_t seed)
{
    ClassOrderDriver<Ranking> d{
        rank, lines, parts, 0, [](std::uint32_t) { return 0u; },
        Rng(seed), {}};
    d.randomOps(ops, 1);
    ASSERT_FALSE(testing::Test::HasFatalFailure());
    d.corruptAndAudit();
}

/**
 * Exact LRU and Random as one-class clients. 6000 ops over 24 slots
 * churn the 64-stamp axis dozens of times, so compaction runs under
 * every op mix. The second shape spreads 100 lines over 40
 * partitions, more than 32, so partitions first appear (and their
 * class axes are sized) mid-run, between compactions.
 */
TEST(ClassIndex, OneClassRankingsMatchNaiveReference)
{
    struct Shape
    {
        LineId lines;
        PartId parts;
        int ops;
    };
    for (Shape sh : {Shape{kDriverLines, kDriverParts, 6000},
                     Shape{100, 40, 3000}}) {
        SCOPED_TRACE(testing::Message()
                     << sh.lines << " lines, " << int{sh.parts}
                     << " partitions");
        {
            SCOPED_TRACE("lru");
            ExactLruRanking lru(sh.lines);
            matchOneClass(lru, sh.lines, sh.parts, sh.ops, 4242);
        }
        {
            SCOPED_TRACE("random");
            RandomRanking random(sh.lines, Rng(77));
            matchOneClass(random, sh.lines, sh.parts, sh.ops, 4343);
        }
        ASSERT_FALSE(HasFatalFailure());
    }
}

TEST(ClassIndex, SingleLineSurvivesEndlessTouches)
{
    // One resident line, thousands of touches: the smallest stamp
    // axis (64) compacts dozens of times and the answers never move.
    ExactLruRanking rank(1);
    rank.onInstall(0, 0, kNeverUsed);
    for (int i = 0; i < 5000; ++i) {
        rank.onHit(0, kNeverUsed);
        ASSERT_EQ(rank.worstIn(0), 0u);
        ASSERT_DOUBLE_EQ(rank.exactFutility(0), 1.0);
    }
    EXPECT_EQ(rank.auditInvariants(), "");
}

TEST(ClassIndex, EmptyRankingHasNothingToCorrupt)
{
    LfuRanking lfu(8);
    RripRanking rrip(8);
    ExactLruRanking lru(8);
    EXPECT_FALSE(lfu.corruptRankNodeForFaultInjection());
    EXPECT_FALSE(rrip.corruptRankNodeForFaultInjection());
    EXPECT_FALSE(lru.corruptRankNodeForFaultInjection());
    EXPECT_EQ(lfu.worstIn(0), kInvalidLine);
    EXPECT_EQ(lru.worstIn(0), kInvalidLine);
    EXPECT_EQ(lfu.auditInvariants(), "");
    EXPECT_EQ(lru.auditInvariants(), "");
}

/**
 * Naive OPT order: every line's (partition, next use), ranked by
 * the definition — more useful = smaller next use, then larger line
 * id — with O(n) scans.
 */
class NaiveOpt
{
  public:
    void
    install(LineId id, PartId part, AccessTime nu)
    {
        lines_[id] = {part, nu};
    }

    void hit(LineId id, AccessTime nu) { lines_.at(id).nu = nu; }
    void evict(LineId id) { lines_.erase(id); }
    void retag(LineId id, PartId part) { lines_.at(id).part = part; }

    void
    relocate(LineId from, LineId to)
    {
        lines_[to] = lines_.at(from);
        lines_.erase(from);
    }

    bool contains(LineId id) const { return lines_.count(id) != 0; }
    std::size_t lines() const { return lines_.size(); }

    LineId
    lineAt(std::size_t i) const
    {
        return std::next(lines_.begin(),
                         static_cast<std::ptrdiff_t>(i))->first;
    }

    PartId partOf(LineId id) const { return lines_.at(id).part; }

    std::uint32_t
    partLines(PartId part) const
    {
        std::uint32_t n = 0;
        for (const auto &[id, l] : lines_)
            n += l.part == part;
        return n;
    }

    double
    exactFutility(LineId id) const
    {
        const Line &me = lines_.at(id);
        std::uint32_t size = 0;
        std::uint32_t rank = 1;
        for (const auto &[other, l] : lines_) {
            if (l.part != me.part)
                continue;
            ++size;
            rank += l.nu < me.nu || (l.nu == me.nu && other > id);
        }
        return static_cast<double>(rank) / static_cast<double>(size);
    }

    LineId
    worstIn(PartId part) const
    {
        LineId worst = kInvalidLine;
        AccessTime worstNu = 0;
        for (const auto &[id, l] : lines_) { // ascending ids
            if (l.part == part &&
                (worst == kInvalidLine || l.nu > worstNu)) {
                worst = id;
                worstNu = l.nu;
            }
        }
        return worst;
    }

  private:
    struct Line
    {
        PartId part;
        AccessTime nu;
    };
    std::map<LineId, Line> lines_;
};

/**
 * OptRanking against NaiveOpt through randomized install / hit /
 * evict / retag / relocate sequences. Next uses are drawn so every
 * path is hot: a small band (finite ties across and within
 * partitions), never-used (id-ordered ties), and a band that widens
 * with the op count (the axis doubles from 1024 to 2^15). Every
 * step compares every line's exact futility and every partition's
 * worstIn and partLines, and runs the deep self-audit.
 */
TEST(OptIndex, MatchesNaiveReference)
{
    constexpr LineId kLines = 150; // spans three bitset words
    constexpr PartId kParts = 3;
    OptRanking rank(kLines);
    NaiveOpt naive;
    Rng rng(9090);

    auto drawNextUse = [&](int op) -> AccessTime {
        std::uint32_t kind = rng.below(10);
        if (kind < 3)
            return kNeverUsed;
        if (kind < 7)
            return 2000 + rng.below(6); // collisions
        return rng.below(64 + static_cast<std::uint64_t>(op) * 8);
    };
    auto randomPresent = [&]() {
        return naive.lineAt(rng.below(naive.lines()));
    };
    auto randomAbsent = [&]() {
        LineId id;
        do {
            id = static_cast<LineId>(rng.below(kLines));
        } while (naive.contains(id));
        return id;
    };

    for (int op = 0; op < 3000; ++op) {
        std::uint32_t kind = rng.below(10);
        if (naive.lines() == 0 ||
            (kind < 3 && naive.lines() < kLines)) {
            LineId id = randomAbsent();
            auto part = static_cast<PartId>(rng.below(kParts));
            AccessTime nu = drawNextUse(op);
            rank.onInstall(id, part, nu);
            naive.install(id, part, nu);
        } else if (kind < 6) {
            LineId id = randomPresent();
            AccessTime nu = drawNextUse(op);
            rank.onHit(id, nu);
            naive.hit(id, nu);
        } else if (kind < 7) {
            LineId id = randomPresent();
            rank.onEvict(id);
            naive.evict(id);
        } else if (kind < 8) {
            LineId id = randomPresent();
            auto part = static_cast<PartId>(rng.below(kParts));
            rank.onRetag(id, part);
            naive.retag(id, part);
        } else if (naive.lines() < kLines) {
            LineId from = randomPresent();
            LineId to = randomAbsent();
            rank.onRelocate(from, to);
            naive.relocate(from, to);
        }

        ASSERT_EQ(rank.auditInvariants(), "") << "op " << op;
        for (PartId p = 0; p < kParts + 1; ++p) {
            ASSERT_EQ(rank.partLines(p), naive.partLines(p))
                << "op " << op << " part " << int{p};
            ASSERT_EQ(rank.worstIn(p), naive.worstIn(p))
                << "op " << op << " part " << int{p};
        }
        for (std::size_t i = 0; i < naive.lines(); ++i) {
            LineId id = naive.lineAt(i);
            ASSERT_EQ(rank.partOf(id), naive.partOf(id))
                << "op " << op << " line " << id;
            ASSERT_EQ(rank.exactFutility(id), naive.exactFutility(id))
                << "op " << op << " line " << id;
        }
        std::vector<LineId> ids;
        for (std::size_t i = 0; i < naive.lines(); ++i)
            ids.push_back(naive.lineAt(i));
        std::vector<double> many(ids.size());
        rank.schemeFutilityMany(ids, many.data());
        for (std::size_t i = 0; i < ids.size(); ++i)
            ASSERT_EQ(many[i], rank.exactFutility(ids[i]));
    }
}

TEST(OptIndex, CorruptionHookIsDetectedByAudits)
{
    OptRanking rank(8);
    EXPECT_FALSE(rank.corruptRankNodeForFaultInjection())
        << "nothing to corrupt in an empty ranking";
    rank.onInstall(0, 0, 40);
    rank.onInstall(1, 0, kNeverUsed);
    rank.onInstall(2, 0, 7);
    ASSERT_EQ(rank.auditInvariants(), "");

    ASSERT_TRUE(rank.corruptRankNodeForFaultInjection());
    EXPECT_EQ(rank.partLines(0), 4u);
    EXPECT_EQ(rank.worstIn(0), 1u) << "navigation must stay safe";
    EXPECT_NE(rank.auditInvariants(), "");
}

/**
 * The index's memory. 131072 lines in 16 partitions with next uses
 * up to 2^15 hold under 2.5 MB; a count and a list head per position
 * per partition (8 B) would add 4 MB. Each partition added costs
 * its occupied next-use positions (3/16 B per position) and its
 * never-used set (3/16 B per line id), and a partition's first
 * shared next use adds its duplicate count tree (4 B per position).
 */
TEST(OptIndex, MemoryIsBitsPerPositionPerPartition)
{
    constexpr LineId kLines = 131072;
    constexpr std::uint32_t kAxis = 1u << 15;
    // Lines i, i + parts, i + 2 * parts, ... form partition i, each at
    // its own next use, counting down from the axis's last position.
    auto filled = [&](PartId parts) {
        auto rank = std::make_unique<OptRanking>(kLines);
        for (LineId id = 0; id < kLines; ++id)
            rank->onInstall(id, static_cast<PartId>(id % parts),
                            kAxis - 1 - id / parts);
        return rank;
    };

    auto sixteen = filled(16);
    EXPECT_EQ(sixteen->auditInvariants(), "");
    EXPECT_LT(sixteen->bytes(), 2.5 * 1024 * 1024);

    auto thirtyTwo = filled(32);
    std::uint64_t perPart = (thirtyTwo->bytes() - sixteen->bytes()) / 16;
    // 12 B of end words per BitFenwick, and the partition's record.
    EXPECT_LE(perPart, 3 * (kAxis + kLines) / 16 + 256);

    std::uint64_t before = sixteen->bytes();
    sixteen->onHit(0, kAxis - 2 - kLines / 16);
    sixteen->onHit(16, kAxis - 2 - kLines / 16);
    EXPECT_EQ(sixteen->auditInvariants(), "");
    EXPECT_EQ(sixteen->bytes() - before, 4 * (kAxis + 1));
}

/**
 * Vector LRU stack, oldest first, drawing from the same Rng stream
 * in the same order as StackDistGenerator (the discarded seed draw
 * included): the definitionally correct trace the Fenwick-backed
 * generator must reproduce access for access.
 */
class NaiveStackDist
{
  public:
    NaiveStackDist(const StackDistConfig &cfg, Addr base, Rng rng)
        : cfg_(cfg), base_(base), rng_(rng), gap_(cfg.meanInstrGap)
    {
        rng_();
        if (cfg_.prewarm) {
            std::uint64_t warm =
                std::min(cfg_.depth.maxDepth, cfg_.maxResident);
            while (stack_.size() < warm)
                stack_.push_back(nextNew_++);
        }
    }

    Access
    next()
    {
        std::uint64_t local;
        if (stack_.empty() || rng_.chance(cfg_.pNew)) {
            local = nextNew_++;
            stack_.push_back(local);
            if (stack_.size() > cfg_.maxResident)
                stack_.erase(stack_.begin());
        } else {
            std::uint64_t d = cfg_.depth.sample(rng_, stack_.size());
            auto it = stack_.end() - static_cast<std::ptrdiff_t>(d);
            local = *it;
            stack_.erase(it);
            stack_.push_back(local);
        }
        Access acc;
        acc.addr = base_ + local;
        acc.instrGap = gap_.sample(rng_);
        return acc;
    }

    std::size_t resident() const { return stack_.size(); }

  private:
    StackDistConfig cfg_;
    Addr base_;
    Rng rng_;
    InstrGapSampler gap_;
    std::vector<std::uint64_t> stack_;
    std::uint64_t nextNew_ = 0;
};

/**
 * Prewarm on and off, a stack held at maxResident (every new address
 * evicts the oldest), and runs long enough to renumber the stamp
 * axis many times and to grow it from 64 stamps. The prewarmed stack
 * is implicit until the first renumber stores it; the last three
 * cases end before that renumber, evict implicit stamps as new
 * addresses arrive, and cross it mid-run.
 */
TEST(StackDistIndex, MatchesNaiveLruStack)
{
    /** Whether every stamp is stored by the end of the run. */
    enum class Column
    {
        Unchecked,
        Implicit, ///< the first renumber has not run
        Stored,   ///< it has
    };
    struct Case
    {
        bool prewarm;
        double pNew;
        DepthDist depth;
        std::uint64_t maxResident;
        Column column = Column::Unchecked;
    };
    const Case cases[] = {
        {true, 0.05, DepthDist::logUniform(1, 300), 600},
        {false, 0.05, DepthDist::logUniform(1, 300), 600},
        {true, 0.3, DepthDist::uniform(1, 64), 64},     // at the cap
        {false, 0.6, DepthDist::uniform(1, 2000), 3000}, // growth
        {true, 0.0, DepthDist::fixed(5), 1024},
        // 2^16 prewarmed entries on a 2^17-stamp axis: 20000 touches
        // never fill it.
        {true, 0.05, DepthDist::logUniform(1, 1 << 16), 1 << 17,
         Column::Implicit},
        // The prewarm fills maxResident, so every new address evicts
        // the oldest entry, an implicit stamp until they run out.
        {true, 0.3, DepthDist::uniform(1, 4096), 4096},
        // The first renumber, which stores the implicit stamps, comes
        // about 2048 touches in; growth doubles the axis after.
        {true, 0.1, DepthDist::logUniform(1, 2048), 1 << 14,
         Column::Stored},
    };
    std::uint64_t seed = 1;
    for (const Case &c : cases) {
        SCOPED_TRACE(testing::Message() << "case " << seed);
        StackDistConfig cfg;
        cfg.prewarm = c.prewarm;
        cfg.pNew = c.pNew;
        cfg.depth = c.depth;
        cfg.maxResident = c.maxResident;
        cfg.meanInstrGap = 20;
        StackDistGenerator gen(cfg, 1u << 20, Rng(seed));
        NaiveStackDist naive(cfg, 1u << 20, Rng(seed));
        std::uint32_t startCap = gen.capacity();
        ASSERT_EQ(gen.resident(), naive.resident());
        for (int i = 0; i < 20000; ++i) {
            Access a = gen.next();
            Access b = naive.next();
            ASSERT_EQ(a.addr, b.addr) << "access " << i;
            ASSERT_EQ(a.instrGap, b.instrGap) << "access " << i;
            ASSERT_EQ(gen.resident(), naive.resident())
                << "access " << i;
        }
        // 20000 touches on an axis of at most a few thousand stamps
        // renumbered it; the growth case had to widen it as well.
        EXPECT_LE(gen.resident(), c.maxResident);
        if (!c.prewarm && c.maxResident > 1000) {
            EXPECT_GT(gen.capacity(), startCap);
        }
        // Stored stamps take a 4-byte address per stamp of the axis.
        std::uint64_t column = 4ull * gen.capacity();
        if (c.column == Column::Implicit) {
            EXPECT_EQ(gen.capacity(), startCap);
            EXPECT_LT(gen.bytes(), column);
        } else if (c.column == Column::Stored) {
            EXPECT_GT(gen.capacity(), startCap);
            EXPECT_GE(gen.bytes(), column);
        }
        ++seed;
    }
}

} // namespace
} // namespace fscache
