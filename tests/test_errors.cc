/**
 * @file
 * Failure-injection tests: the library's invariants must trip
 * fs_assert (abort) on misuse rather than corrupt state silently.
 */

#include <gtest/gtest.h>

#include "analytic/scaling_solver.hh"
#include "cache/set_assoc_array.hh"
#include "cache/tag_store.hh"
#include "sim/experiment.hh"
#include "stats/table_printer.hh"

namespace fscache
{
namespace
{

using ErrorDeathTest = ::testing::Test;

TEST(ErrorDeathTest, TagStoreDoubleInstall)
{
    TagStore tags(4);
    tags.install(0, 100, 0);
    EXPECT_DEATH(tags.install(0, 200, 0), "assertion");
}

TEST(ErrorDeathTest, TagStoreDuplicateAddress)
{
    TagStore tags(4);
    tags.install(0, 100, 0);
    EXPECT_DEATH(tags.install(1, 100, 0), "assertion");
}

TEST(ErrorDeathTest, TagStoreEvictInvalid)
{
    TagStore tags(4);
    EXPECT_DEATH(tags.evict(2), "assertion");
}

TEST(ErrorDeathTest, TagStoreBadMove)
{
    TagStore tags(4, /*indexed=*/false);
    tags.install(0, 100, 0);
    tags.install(1, 101, 0);
    EXPECT_DEATH(tags.move(0, 1), "assertion"); // dst valid
    EXPECT_DEATH(tags.move(2, 3), "assertion"); // src invalid
}

TEST(ErrorDeathTest, SetAssocWaysMustDivideLines)
{
    EXPECT_DEATH(SetAssocArray(100, 16, HashKind::Modulo, 1),
                 "assertion");
}

TEST(ErrorDeathTest, TableRowWidthMismatch)
{
    TablePrinter t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "assertion");
}

TEST(ErrorDeathTest, AccessUnknownPartition)
{
    CacheSpec spec;
    spec.array.numLines = 256;
    spec.array.ways = 16;
    spec.numParts = 2;
    auto cache = buildCache(spec);
    EXPECT_DEATH(cache->access(5, 1), "assertion");
}

TEST(ErrorDeathTest, TargetForUnknownPartition)
{
    CacheSpec spec;
    spec.array.numLines = 256;
    spec.array.ways = 16;
    spec.numParts = 2;
    auto cache = buildCache(spec);
    EXPECT_DEATH(cache->setTarget(3, 10), "assertion");
}

TEST(ErrorTyped, InfeasiblePartitioningThrows)
{
    // Typed and recoverable: a sweep cell exploring the config
    // space catches this (or fails its sweep with the cell named)
    // instead of the whole process dying.
    try {
        analytic::scalingFactorTwoPart(0.99, 0.5, 16);
        FAIL() << "expected InfeasiblePartitioningError";
    } catch (const analytic::InfeasiblePartitioningError &e) {
        EXPECT_NE(std::string(e.what()).find("infeasible"),
                  std::string::npos);
    }
}

TEST(ErrorDeathTest, RngBelowZero)
{
    Rng rng(1);
    EXPECT_DEATH(rng.below(0), "assertion");
}

} // namespace
} // namespace fscache
