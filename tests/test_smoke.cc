/**
 * @file
 * Build smoke test: assemble a small FS-partitioned cache through
 * the public API and exercise one access.
 */

#include <gtest/gtest.h>

#include "core/fscache.hh"

namespace fscache
{
namespace
{

TEST(Smoke, BuildAndAccess)
{
    CacheSpec spec;
    spec.array.numLines = 1024;
    spec.array.ways = 16;
    spec.ranking = RankKind::CoarseTsLru;
    spec.scheme.kind = SchemeKind::Fs;
    spec.numParts = 2;
    auto cache = buildCache(spec);
    cache->setTargets({512, 512});

    AccessOutcome out = cache->access(0, 0x1234);
    EXPECT_FALSE(out.hit);
    out = cache->access(0, 0x1234);
    EXPECT_TRUE(out.hit);
    EXPECT_EQ(cache->stats(0).hits, 1u);
    EXPECT_EQ(cache->stats(0).misses, 1u);
}

} // namespace
} // namespace fscache
