/**
 * @file
 * Source annotations.
 *
 * FS_COLD
 *     The function is off the per-access hot path (diagnostics,
 *     error reporting, self-checks). It expands to the GNU cold
 *     attribute, so the optimizer moves the body out of the hot
 *     text; elsewhere it compiles away. It cannot change behavior.
 *     Being off the hot path, such a function may allocate: the
 *     zero-allocation contract of PartitionedCache::access is
 *     checked at runtime by tests/test_hot_alloc.cc with the
 *     self-checks off.
 */

#ifndef FSCACHE_COMMON_ANNOTATIONS_HH
#define FSCACHE_COMMON_ANNOTATIONS_HH

#if defined(__GNUC__)
#define FS_COLD __attribute__((cold))
#else
#define FS_COLD
#endif

#endif // FSCACHE_COMMON_ANNOTATIONS_HH
