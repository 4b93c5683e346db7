// Experiment harness: reproduces the paper's workflow (Figure 1) for one
// benchmark and one memory configuration, and sweeps memory sizes from
// 64 bytes to 8 KiB.
//
// Scratchpad branch (per size): profile a main-memory-only run, solve the
// energy knapsack, relink with the chosen objects on the SPM, simulate the
// typical input (ACET), and run the WCET analyzer — no cache analysis. The
// relinked run depends only on the chosen objects, so sizes that choose the
// same ones share it (ArtifactCache::placement).
// Cache branch (per size): read the typical-input cycles and hit counts of
// the unified direct-mapped cache from the workload's reuse table (one
// observed run serves every geometry, see cache/reuse_table.h) and analyze
// with the MUST-only cache analysis.
//
// Every point validates the simulated outputs against the workload's native
// reference, so a timing experiment can never silently run a miscompiled
// binary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/geometry.h"
#include "support/deadline.h"
#include "support/table_printer.h"
#include "workloads/workload.h"

namespace spmwcet::harness {

class ArtifactCache;

enum class MemSetup : uint8_t { Scratchpad, Cache };

struct SweepConfig {
  MemSetup setup = MemSetup::Scratchpad;
  /// Paper range: 64 B .. 8 KiB.
  std::vector<uint32_t> sizes = {64, 128, 256, 512, 1024, 2048, 4096, 8192};
  // Cache-branch options (future-work ablations):
  uint32_t cache_assoc = 1;
  bool cache_unified = true;
  bool with_persistence = false;
  // Scratchpad-branch option: WCET-driven allocation instead of the
  // energy knapsack (future-work ablation).
  bool wcet_driven_alloc = false;
  /// Worker threads for run_sweep: 1 = serial, 0 = all hardware threads.
  /// Points are independent pipeline runs; ordering stays deterministic.
  unsigned jobs = 1;
  /// Share artifacts (profiles, candidate tables, placed runs, cache
  /// tables, analyzer front ends) across the points of a batch. false gives
  /// every point its own cache, so it re-derives everything; the parity
  /// tests pin both to byte-identical results.
  bool use_artifact_cache = true;
  /// IR-based WCET analyzer (shared predecode, layout-invariant shape
  /// reuse, flat cache analysis). false selects the seed analyzer — the
  /// --legacy-wcet escape hatch, field-identical by the parity suites.
  bool fast_wcet = true;
  /// Superblock translation tier in the simulator (threaded-code blocks
  /// over the predecoded fast path). false (--no-block-tier) keeps the
  /// per-instruction fast path — the A/B baseline; results are
  /// field-identical either way. Drives the SPM branch's simulations and
  /// the cache branch's observed run alike.
  bool block_tier = true;
  /// Incremental IPET (per-workload LP-skeleton cache, batch-scoped) plus
  /// the flat persistence domain. false (--no-incremental) re-solves every
  /// point's ILPs from scratch and keeps the PR 5 map-based persistence
  /// analysis — the A/B baseline; results are field-identical either way.
  /// Only meaningful with fast_wcet; the skeletons live in `artifacts`.
  bool incremental_wcet = true;
  /// Batch-scoped cache injected by SweepRunner::run_matrix when
  /// use_artifact_cache is set. Null (e.g. a standalone run_point call)
  /// gives the point a point-local cache.
  ArtifactCache* artifacts = nullptr;
  /// Cooperative wall-time budget: the pipeline checks it at stage
  /// boundaries (allocate/simulate/analyze) and aborts the point with
  /// support::DeadlineExceededError past it. Default-constructed =
  /// unbounded, the historical behavior.
  support::Deadline deadline;
};

struct SweepPoint {
  uint32_t size_bytes = 0;
  uint64_t sim_cycles = 0;  ///< ACET (typical input)
  uint64_t wcet_cycles = 0; ///< analyzed bound
  double ratio = 0.0;       ///< WCET / ACET
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint32_t spm_used_bytes = 0;
  double energy_nj = 0.0; ///< estimated from the access profile
};

namespace detail {
/// The pipeline primitive: profile/allocate/relink/simulate/analyze one
/// (setup, size) point exactly as configured. This is what the Engine and
/// the sweep workers execute; it is not part of the public surface.
SweepPoint execute_point(const workloads::WorkloadInfo& wl, MemSetup setup,
                         uint32_t size_bytes, const SweepConfig& cfg);
} // namespace detail

/// Runs one configuration point. Compatibility shim over
/// api::Engine::run_point — new code should construct an api::Engine and
/// submit PointRequests (or call the Engine's session API directly).
SweepPoint run_point(const workloads::WorkloadInfo& wl, MemSetup setup,
                     uint32_t size_bytes, const SweepConfig& cfg);

/// Runs the full size sweep. Compatibility shim over
/// api::Engine::run_sweep (cfg.jobs selects the pool width).
std::vector<SweepPoint> run_sweep(const workloads::WorkloadInfo& wl,
                                  const SweepConfig& cfg);

/// Renders sweep rows in the paper's figure style.
TablePrinter to_table(const std::string& benchmark, MemSetup setup,
                      const std::vector<SweepPoint>& points);

const char* to_string(MemSetup setup);

} // namespace spmwcet::harness
