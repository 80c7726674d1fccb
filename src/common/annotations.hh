/**
 * @file
 * Source annotations consumed by tools/fscache_analyze.py (the
 * semantic static-analysis suite; see docs/STATIC_ANALYSIS.md).
 *
 * FS_COLD
 *     The function is off the per-access hot path (diagnostics,
 *     error reporting, self-checks, construction). The
 *     no-alloc-on-hot-path pass does not descend into FS_COLD
 *     functions: they may allocate freely. Under clang the marker
 *     doubles as __attribute__((cold)) so the optimizer moves the
 *     body out of the hot text; under GCC it is the plain cold
 *     attribute.
 *
 * FS_HOT
 *     Documentation + optimizer hint for functions that *are* on
 *     the per-access hot path. The analyzer treats reachability
 *     from the hot root (PartitionedCache::access) as the source
 *     of truth, so FS_HOT is advisory: it exists so a reader (and
 *     the hot attribute) see the contract at the declaration.
 *
 * FS_GUARDED_BY(mutex)
 *     Declares which mutex protects a shared mutable field of a
 *     concurrency class (e.g. ThreadPool). The
 *     lock-discipline pass requires every non-atomic, non-const
 *     field of a mutex-holding class to either carry this marker —
 *     after which each access must happen with that mutex held —
 *     or an explicit `// fs-analyze: allow(lock-discipline) <why>`
 *     exemption (e.g. const after construction). The analyzer
 *     reads the marker from the source text; under clang it also
 *     emits an annotate attribute, under GCC it compiles away.
 *
 * The macros expand to standard GNU attributes, so they are free at
 * runtime and cannot change behavior — they only make contracts the
 * analyzer enforces visible in the code itself.
 */

#ifndef FSCACHE_COMMON_ANNOTATIONS_HH
#define FSCACHE_COMMON_ANNOTATIONS_HH

#if defined(__clang__)
#define FS_COLD __attribute__((cold, annotate("fs_cold")))
#define FS_HOT __attribute__((hot, annotate("fs_hot")))
#define FS_GUARDED_BY(mutex) \
    __attribute__((annotate("fs_guarded_by:" #mutex)))
#elif defined(__GNUC__)
#define FS_COLD __attribute__((cold))
#define FS_HOT __attribute__((hot))
#define FS_GUARDED_BY(mutex)
#else
#define FS_COLD
#define FS_HOT
#define FS_GUARDED_BY(mutex)
#endif

#endif // FSCACHE_COMMON_ANNOTATIONS_HH
