/**
 * @file
 * Umbrella header: the fscache public API.
 *
 * fscache is a from-scratch implementation of Futility Scaling
 * (Wang & Chen, MICRO 2014) — a replacement-based cache
 * partitioning scheme with precise sizing and high associativity —
 * together with every substrate its evaluation needs: cache array
 * models, futility rankings (LRU / coarse-timestamp LRU / LFU /
 * OPT), baseline schemes (Partitioning-First, Vantage, PriSM, way
 * partitioning), synthetic SPEC-like workloads, static and QoS
 * allocations, and a trace-driven multi-core timing simulator.
 *
 * Typical use: fill a CacheSpec and assemble it with buildCache,
 * generate a Workload, run a TimingSim (or runUntimed) and read
 * per-partition statistics off the PartitionedCache. buildCache and
 * runUntimed are in sim/experiment.hh.
 */

#ifndef FSCACHE_CORE_FSCACHE_HH
#define FSCACHE_CORE_FSCACHE_HH

// Analytical model of the paper (Equation 1, associativity CDFs).
#include "analytic/assoc_model.hh"
#include "analytic/scaling_solver.hh"

// Allocation policies.
#include "alloc/qos_alloc.hh"
#include "alloc/static_alloc.hh"

// Partitioning schemes (concrete classes for direct configuration;
// the factories in sim/experiment.hh cover the common paths).
#include "partition/futility_scaling_analytic.hh"
#include "partition/futility_scaling_feedback.hh"
#include "partition/partitioning_first_scheme.hh"
#include "partition/prism_scheme.hh"
#include "partition/unpartitioned_scheme.hh"
#include "partition/vantage_scheme.hh"
#include "partition/way_partition_scheme.hh"

// Assembly (CacheSpec, buildCache) and simulation.
#include "sim/experiment.hh"
#include "sim/partitioned_cache.hh"
#include "sim/system_config.hh"
#include "sim/timing_sim.hh"

// Workloads.
#include "trace/benchmark_profiles.hh"
#include "trace/workload.hh"

// Output helpers.
#include "stats/table_printer.hh"

#endif // FSCACHE_CORE_FSCACHE_HH
