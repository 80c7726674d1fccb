/**
 * @file
 * Resilience-layer tests: cell guard outcomes (ok, permanent,
 * corruption), quarantine manifests, stable class names, and the
 * regression pin that an injector-free resilient sweep produces
 * exactly the values of a plain serial loop.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/errors.hh"
#include "common/fault_injection.hh"
#include "common/random.hh"
#include "runner/cell_guard.hh"
#include "runner/sweep_runner.hh"

namespace fscache
{
namespace
{

/** Deterministic cell function: no faults means no failures. */
std::uint64_t
cellValue(std::size_t i)
{
    return mix64(static_cast<std::uint64_t>(i) + 17);
}

TEST(CellGuard, OkCellCarriesValue)
{
    auto out = runGuarded(3, [](std::size_t i) { return cellValue(i); });
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(*out.value, cellValue(3));
    EXPECT_EQ(out.errorClass, ErrorClass::None);
    EXPECT_TRUE(out.error.empty());
}

TEST(CellGuard, PermanentErrorRunsOnce)
{
    unsigned calls = 0;
    auto out = runGuarded(0, [&calls](std::size_t) -> int {
        ++calls;
        throw FsError("bad geometry");
    });
    EXPECT_FALSE(out.ok());
    EXPECT_FALSE(out.value.has_value());
    EXPECT_EQ(out.errorClass, ErrorClass::Permanent);
    EXPECT_EQ(calls, 1u);
    EXPECT_NE(out.error.find("bad geometry"), std::string::npos);
    EXPECT_TRUE(out.detail.empty());
}

TEST(CellGuard, NonStandardExceptionIsPermanent)
{
    auto out = runGuarded(0, [](std::size_t) -> int { throw 7; });
    EXPECT_EQ(out.errorClass, ErrorClass::Permanent);
    EXPECT_EQ(out.error, "unknown exception");
}

TEST(CellGuard, CorruptionCarriesItsReport)
{
    unsigned calls = 0;
    auto out = runGuarded(0, [&calls](std::size_t) -> int {
        ++calls;
        throw StateCorruptionError("audit failed", "line 1\nline 2");
    });
    EXPECT_FALSE(out.ok());
    EXPECT_EQ(out.errorClass, ErrorClass::Corruption);
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(out.error, "audit failed");
    EXPECT_EQ(out.detail, "line 1\nline 2");
}

TEST(CellGuard, ErrorClassNamesAreStable)
{
    // These strings are printed into FAILED(...) markers in bench
    // tables; renaming them changes artifacts.
    EXPECT_STREQ(errorClassName(ErrorClass::None), "none");
    EXPECT_STREQ(errorClassName(ErrorClass::Permanent), "permanent");
    EXPECT_STREQ(errorClassName(ErrorClass::Corruption), "corruption");
}

TEST(CellGuard, FailingCellIsQuarantinedSweepContinues)
{
    SweepRunner runner(1);
    auto report = runner.mapResilient(5, [](std::size_t i) {
        if (i == 2)
            throw FsError("cell two is bad");
        return cellValue(i);
    });
    EXPECT_EQ(report.okCount(), 4u);
    EXPECT_FALSE(report.allOk());
    EXPECT_FALSE(report.cells[2].ok());
    EXPECT_EQ(report.cells[2].errorClass, ErrorClass::Permanent);
    for (std::size_t i : {0u, 1u, 3u, 4u})
        EXPECT_EQ(*report.cells[i].value, cellValue(i)) << i;

    auto failures = report.failures();
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].cell, 2u);
    EXPECT_EQ(report.manifest(),
              "quarantined cells: 1\n"
              "  cell 2: failed [permanent] cell two is bad\n");
}

TEST(CellGuard, NoFaultsMatchesPlainLoopExactly)
{
    // Regression pin for the determinism contract: with no injector
    // the resilient path must return exactly a serial loop's values.
    FaultInjector::installForTest("");
    SweepRunner runner(4);
    auto report = runner.mapResilient(
        32, [](std::size_t i) { return cellValue(i); },
        CellGuardConfig{});
    ASSERT_TRUE(report.allOk());
    EXPECT_TRUE(report.manifest().empty());
    for (std::size_t i = 0; i < 32; ++i)
        EXPECT_EQ(*report.cells[i].value, cellValue(i)) << i;
}

} // namespace
} // namespace fscache
