// Shared cache of the experiment artifacts that repeat across sweep points.
//
// Per workload, one canonical record (CanonicalImage): the extents of the
// module's laid-out functions and the no-assignment (main-memory-only) image
// with its decode and compiled block table, built together because the
// first point of either setup needs them. The cache branch runs it once
// observed per cache kind and associativity: the run's forest simulation
// yields the cycles and hits of every set count of that associativity
// (cache::ReuseTable; coverage sets x ways <= 65,536 lines). The SPM branch
// needs the canonical run (the profiled run whose candidate table serves
// every scratchpad capacity and prices every placement): the first
// observed run of a workload, of any associativity, whose
// canonical run is not yet memoized also profiles and hands it in
// (insert_profile), so a workload both branches evaluate is simulated
// once; SPM-only work simulates it unobserved (harness::canonical_run).
// Both branches analyze through the workload's relocatable program
// (wcet::RelocatableProgram): the canonical CFGs bound from the analyzer's
// layout-invariant ProgramShape, which is built from the record, and one
// symbolic value analysis per function. Its canonical view serves every
// cache size; its facts bind every placement. The IPET skeleton store is
// one per workload as well.
//
// Per placement: a placed program depends only on the module and the
// SpmAssignment (the capacity only gates the link's overflow check), so
// sizes whose allocations choose the same objects share one placed point,
// and the WCET-driven greedy prices each trial through the same artifact.
// Every placement binds from the relocatable program (wcet::bind_placement:
// address assignment, region map, relocated and classified site facts)
// without a link or a decode; a function whose facts do not hold at the
// placement is analyzed at its addresses (counted, bind_stats). The
// artifact keeps the point's numbers (PlacedRun), not a view. This memo
// alone is bounded (kPlacementCapacity): the greedy stores every trial.
//
// Every point runs through an ArtifactCache: the batch's, the Engine's, or
// a point-local one when the caller has none.
//
// Thread safety comes from support::Memoizer: concurrent points that need
// the same artifact block until the first computation finishes and the
// compute function runs exactly once (a throwing compute is retried by the
// next caller). Entries are keyed by WorkloadInfo address; the cache must
// not outlive the workloads it indexes, which is why run_matrix scopes one
// cache to each batch.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "alloc/memory_objects.h"
#include "cache/reuse_table.h"
#include "link/layout.h"
#include "program/decoded_image.h"
#include "sim/block_table.h"
#include "sim/simulator.h"
#include "support/memoize.h"
#include "wcet/frontend.h"
#include "wcet/ipet.h"
#include "workloads/workload.h"

namespace spmwcet::harness {

/// The workload's canonical executable: the extents of its functions (each
/// relaxed and measured once, by the canonical link), the no-assignment
/// image, its decode and its block table. The members own their data (no
/// member points into another), so the record moves freely.
struct CanonicalImage {
  CanonicalImage(std::vector<link::FunctionExtent> ext, link::Image img)
      : extents(std::move(ext)), image(std::move(img)), decoded(image),
        blocks(decoded, sim::SymbolIndex(image), image) {}

  std::vector<link::FunctionExtent> extents;
  link::Image image;
  program::DecodedImage decoded;
  sim::BlockTable blocks;
};

/// The canonical run and the allocation candidate table built from its
/// profile (every memory object with its size and profiled benefit), which
/// each scratchpad capacity solves against.
struct CanonicalRun {
  sim::SimResult run;
  std::vector<alloc::MemoryObject> candidates;
};

/// What the SPM branch keeps of one placement: the priced run's numbers and
/// the placed image's bound, not the image or the analyzer view.
struct PlacedRun {
  uint64_t sim_cycles = 0;
  uint64_t wcet_cycles = 0;
  double energy_nj = 0.0;
  uint32_t spm_extent = 0; ///< link::Image::spm_extent of the placed image
};

/// Identity of a placed point: the workload and the scratchpad contents.
struct PlacementKey {
  const workloads::WorkloadInfo* workload = nullptr;
  link::SpmAssignment assignment;
  auto operator<=>(const PlacementKey&) const = default;
};

/// How placements were bound.
struct BindStats {
  /// Functions a bind analyzed at their placement, because the symbolic
  /// domain could not express their facts or the placement flips a symbol
  /// order the facts rely on.
  uint64_t reanalyzed = 0;
};

class ArtifactCache {
public:
  using Stats = support::MemoStats;

  /// Resident placed points. One WCET-driven sweep of a ~400-object
  /// program stores about 11,000 distinct trials, so no single request
  /// evicts its own; beyond it the least recently used placement is
  /// forgotten (and recomputed if asked for again).
  static constexpr std::size_t kPlacementCapacity = 16384;

  /// Returns the workload's canonical record (harness::canonical_image),
  /// building it with `compute` once per workload.
  std::shared_ptr<const CanonicalImage>
  image(const workloads::WorkloadInfo& wl,
        const std::function<CanonicalImage()>& compute) {
    return images_.get(&wl, compute);
  }

  /// Returns the workload's canonical run and candidate table
  /// (harness::canonical_run), computing them with `compute` on first use.
  std::shared_ptr<const CanonicalRun>
  profile(const workloads::WorkloadInfo& wl,
          const std::function<CanonicalRun()>& compute) {
    return profiles_.get(&wl, compute);
  }

  /// True once the workload's canonical run is memoized or being computed:
  /// an observed run then need not profile.
  bool holds_profile(const workloads::WorkloadInfo& wl) const {
    return profiles_.contains(&wl);
  }

  /// Hands in a canonical run an observed run produced, unless one is
  /// already memoized or in flight; never waits (support::Memoizer::
  /// insert_if_absent), so the reuse memo's producer can call it.
  void insert_profile(const workloads::WorkloadInfo& wl, CanonicalRun run) {
    (void)profiles_.insert_if_absent(&wl, std::move(run));
  }

  /// Returns the placed point of `key`, computing it with `compute` the
  /// first time any size allocates that placement or, under the WCET-driven
  /// greedy, tries it.
  std::shared_ptr<const PlacedRun>
  placement(const PlacementKey& key,
            const std::function<PlacedRun()>& compute) {
    return placements_.get(key, compute);
  }

  /// Returns the workload's layout-invariant analyzer skeleton
  /// (wcet::ProgramShape), built from the canonical record. One shape
  /// serves every point of both setups, through relocatable().
  std::shared_ptr<const wcet::ProgramShape>
  shape(const workloads::WorkloadInfo& wl,
        const std::function<wcet::ProgramShape()>& compute) {
    return shapes_.get(&wl, compute);
  }

  /// Returns the workload's relocatable program: the canonical view, whose
  /// cache branch analyzes every size, and the facts that bind every
  /// placement of the SPM branch. The compute function must pin the image
  /// the canonical view binds.
  std::shared_ptr<const wcet::RelocatableProgram>
  relocatable(const workloads::WorkloadInfo& wl,
              const std::function<wcet::RelocatableProgram()>& compute) {
    return relocatables_.get(&wl, compute);
  }

  /// Counts one placement's functions analyzed at their placement.
  void count_reanalyzed(uint32_t functions) {
    reanalyzed_.fetch_add(functions, std::memory_order_relaxed);
  }

  /// Placements' bind counters since construction.
  BindStats bind_stats() const {
    return {reanalyzed_.load(std::memory_order_relaxed)};
  }

  /// Returns the workload's IPET skeleton store (wcet::IpetCache), shared
  /// by every point of both setups. The store builds per-function skeletons
  /// lazily on first solve, so the compute is default construction.
  std::shared_ptr<const wcet::IpetCache>
  ipet(const workloads::WorkloadInfo& wl) {
    return ipet_.get(&wl, [] { return wcet::IpetCache(); });
  }

  /// Returns the workload's cache table of one kind (unified or
  /// instruction-only) and one associativity: one observed run of the
  /// canonical image serves every set count of that associativity, and may
  /// hand in the canonical run as well (insert_profile).
  std::shared_ptr<const cache::ReuseTable>
  reuse(const workloads::WorkloadInfo& wl, bool unified, uint32_t assoc,
        const std::function<cache::ReuseTable()>& compute) {
    return reuse_.get({&wl, unified, assoc}, compute);
  }

  /// Canonical runs: hits = served from cache, misses = ran the separate
  /// profiled simulation, inserted = handed in by an observed run.
  Stats stats() const { return profiles_.stats(); }

  /// hits = reused a placed point, misses = priced, bound and analyzed
  /// the placement. A WCET-driven sweep counts every distinct greedy trial
  /// that fit at its size, the chosen placements among them.
  Stats placement_stats() const { return placements_.stats(); }

  /// The placement memo's resident-entry bound (kPlacementCapacity).
  std::size_t placement_capacity() const { return placements_.capacity(); }

  /// hits = reused the canonical record, misses = linked, decoded and
  /// compiled it.
  Stats image_stats() const { return images_.stats(); }

  /// hits = reused the invariant analyzer skeleton, misses = built it.
  Stats shape_stats() const { return shapes_.stats(); }

  /// hits = reused the relocatable program, misses = bound and
  /// value-analyzed it.
  Stats relocatable_stats() const { return relocatables_.stats(); }

  /// hits = reused an existing IPET skeleton store.
  Stats ipet_stats() const { return ipet_.stats(); }

  /// Skeleton builds, hits, memo hits and fallbacks summed over the
  /// resident per-workload IPET stores.
  wcet::IpetCacheStats ipet_skeleton_stats() const {
    wcet::IpetCacheStats sum;
    ipet_.for_each([&](const wcet::IpetCache& store) {
      const wcet::IpetCacheStats s = store.stats();
      sum.builds += s.builds;
      sum.hits += s.hits;
      sum.memo_hits += s.memo_hits;
      sum.fallbacks += s.fallbacks;
    });
    return sum;
  }

  /// hits = answered a cache point from the table, misses = observed run.
  Stats reuse_stats() const { return reuse_.stats(); }

private:
  using WorkloadKey = const workloads::WorkloadInfo*;
  support::Memoizer<WorkloadKey, CanonicalImage> images_;
  support::Memoizer<WorkloadKey, CanonicalRun> profiles_;
  support::Memoizer<PlacementKey, PlacedRun> placements_{kPlacementCapacity};
  support::Memoizer<WorkloadKey, wcet::ProgramShape> shapes_;
  support::Memoizer<WorkloadKey, wcet::RelocatableProgram> relocatables_;
  std::atomic<uint64_t> reanalyzed_{0};
  support::Memoizer<WorkloadKey, wcet::IpetCache> ipet_;
  support::Memoizer<std::tuple<WorkloadKey, bool, uint32_t>, cache::ReuseTable>
      reuse_;
};

} // namespace spmwcet::harness
