// Experiment harness: reproduces the paper's workflow (Figure 1) for one
// benchmark and one memory configuration, and sweeps memory sizes from
// 64 bytes to 8 KiB.
//
// Scratchpad branch (per size): solve the energy knapsack over the profile
// of the canonical (main-memory-only) run, price the placement's typical
// input (ACET) and energy from that run, bind the placement from the
// workload's relocatable program (wcet::bind_placement), and run the WCET
// analyzer — no cache analysis. Sizes that choose the same objects share
// the placed point (ArtifactCache::placement).
// Cache branch (per size): read the typical-input cycles and hit counts of
// the unified direct-mapped cache from the workload's reuse table (one
// observed run's forest simulation serves every set count of the request's
// associativity, coverage sets x ways <= 65,536 lines, see
// cache/reuse_table.h) and analyze with the MUST-only cache analysis.
//
// Both branches start from the workload's canonical record
// (canonical_image: the no-assignment image, decoded and compiled into a
// block table once per ArtifactCache), which the cache branch observes, the
// canonical run simulates, and the analyzer's shape and relocatable program
// are built from. A workload both branches evaluate is simulated once: the
// first observed run also profiles when no canonical run is memoized yet
// and hands its result in as the canonical run. Every run validates its
// outputs against the workload's native reference, so a timing experiment
// can never silently run a miscompiled binary.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/geometry.h"
#include "link/layout.h"
#include "sim/simulator.h"
#include "support/deadline.h"
#include "support/table_printer.h"
#include "wcet/frontend.h"
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
  /// Shared artifacts (canonical records and runs, placements, cache
  /// tables, analyzer front ends): the Engine's session cache or one that
  /// run_matrix scopes to a batch. Null gives the point a point-local
  /// cache, through the same pipeline.
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

struct CanonicalImage;
struct CanonicalRun;

/// The workload's canonical record: the no-assignment image linked, decoded
/// and compiled into a block table, once per ArtifactCache.
std::shared_ptr<const CanonicalImage>
canonical_image(const workloads::WorkloadInfo& wl, ArtifactCache& ac);

/// The canonical run: the profiled, output-validated simulation of the
/// canonical image, with the allocation candidate table of its profile,
/// once per ArtifactCache. Either the cache branch's first observed run
/// handed it in, or this runs it unobserved (no reuse recorder attached),
/// so SPM-only work never pays the observation.
std::shared_ptr<const CanonicalRun>
canonical_run(const workloads::WorkloadInfo& wl, ArtifactCache& ac);

/// The workload's relocatable program (wcet::RelocatableProgram): the
/// canonical CFGs bound from the shape and one symbolic value analysis per
/// function, once per ArtifactCache. Its canonical view serves every cache
/// size; it binds every scratchpad placement without a link.
std::shared_ptr<const wcet::RelocatableProgram>
relocatable_program(const workloads::WorkloadInfo& wl, ArtifactCache& ac);

struct PricedRun {
  uint64_t cycles = 0;
  double energy_nj = 0.0;
};

/// The cycles and energy of the placed image's typical-input run, priced
/// from the canonical run by Table 1 (exact; see the definition).
PricedRun price_placement(const sim::SimResult& canonical,
                          const link::SpmAssignment& assignment);

namespace detail {
/// The pipeline primitive: one (setup, size) point exactly as configured.
/// This is what the Engine and run_matrix's workers execute.
SweepPoint execute_point(const workloads::WorkloadInfo& wl, MemSetup setup,
                         uint32_t size_bytes, const SweepConfig& cfg);
} // namespace detail

/// Renders sweep rows in the paper's figure style.
TablePrinter to_table(const std::string& benchmark, MemSetup setup,
                      const std::vector<SweepPoint>& points);

const char* to_string(MemSetup setup);

} // namespace spmwcet::harness
