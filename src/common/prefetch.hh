/**
 * @file
 * Software prefetch of a byte range, for the access loops' hint of
 * the next record's cache state (CacheArray::prefetch,
 * FutilityRanking::prefetch). A hint only: it changes no state.
 */

#ifndef FSCACHE_COMMON_PREFETCH_HH
#define FSCACHE_COMMON_PREFETCH_HH

#include <cstddef>
#include <cstdint>

namespace fscache
{

/** Prefetch every 64-byte block that [p, p + bytes) touches. */
inline void
prefetchBytes(const void *p, std::size_t bytes)
{
    auto first = reinterpret_cast<std::uintptr_t>(p);
    for (std::uintptr_t b = first & ~std::uintptr_t{63};
         b < first + bytes; b += 64)
        __builtin_prefetch(reinterpret_cast<const void *>(b));
}

} // namespace fscache

#endif // FSCACHE_COMMON_PREFETCH_HH
