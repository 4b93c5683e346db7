// Shared cache of the experiment artifacts that repeat across sweep points.
//
// Per workload, one canonical record (CanonicalImage): the extents of the
// module's laid-out functions and the no-assignment (main-memory-only) image
// with its decode and compiled block table, built together because the
// first point of either setup needs them. The SPM branch simulates it once
// (the canonical run, whose profile and candidate table serve every
// scratchpad capacity and price every placement); the cache branch runs it once observed per cache
// kind, which yields every geometry's cycles and hits (cache::ReuseTable).
// Both branches share one analyzer view bound to it; the analyzer's
// layout-invariant ProgramShape is built from the record, the relocatable
// program (the view's memory facts in symbol-relative form, from one value
// analysis) serves every placement, and the IPET skeleton store is one per
// workload as well.
//
// Per placement: a placed program depends only on the module and the
// SpmAssignment (the capacity only gates the link's overflow check), so
// sizes whose allocations choose the same objects share one placed point,
// and the WCET-driven greedy prices each trial through the same artifact.
// A placement is bound from the class table (wcet::bind_placement: address
// assignment, region map, relocated and classified site facts) without a
// link or a decode; a function's fixpoint re-runs only for the first
// placement that reorders symbols its facts depend on. Only a workload
// whose relocatable program is not placeable links, decodes and binds each
// placement (counted as a fallback, bind_stats). The artifact keeps the point's numbers
// (PlacedRun), not a view. This memo alone is bounded (kPlacementCapacity):
// the greedy stores every trial.
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

/// How placements were bound: from the class table, or by the fallback
/// (link, decode and bind_view of the placed image).
struct BindStats {
  uint64_t class_table = 0;
  uint64_t fallbacks = 0;
  /// Functions whose analysis a class-table bind re-ran because the
  /// placement reorders symbols their facts rely on.
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
  /// serves every point of both setups (see view() and relocatable()).
  std::shared_ptr<const wcet::ProgramShape>
  shape(const workloads::WorkloadInfo& wl,
        const std::function<wcet::ProgramShape()>& compute) {
    return shapes_.get(&wl, compute);
  }

  /// Returns the analyzer front end bound to the canonical image (CFGs,
  /// annotations, value analysis) — shared by every cache size of the cache
  /// branch and by the relocatable program. The compute function must pin
  /// the image and shape it binds (ProgramView::pinned_image / ::shape).
  std::shared_ptr<const wcet::ProgramView>
  view(const workloads::WorkloadInfo& wl,
       const std::function<wcet::ProgramView()>& compute) {
    return views_.get(&wl, compute);
  }

  /// Returns the workload's relocatable program (the canonical view's
  /// memory facts from the symbolic value analysis), which binds every
  /// placement of the SPM branch.
  std::shared_ptr<const wcet::RelocatableProgram>
  relocatable(const workloads::WorkloadInfo& wl,
              const std::function<wcet::RelocatableProgram()>& compute) {
    return relocatables_.get(&wl, compute);
  }

  /// Counts one placement bound from the class table, `reanalyzed` of its
  /// functions re-run (or, with `fallback`, by linking, decoding and
  /// binding the placed image).
  void count_bind(bool fallback, uint32_t reanalyzed) {
    (fallback ? bind_fallbacks_ : class_table_binds_)
        .fetch_add(1, std::memory_order_relaxed);
    reanalyzed_.fetch_add(reanalyzed, std::memory_order_relaxed);
  }

  /// Placements bound since construction, by path.
  BindStats bind_stats() const {
    return {class_table_binds_.load(std::memory_order_relaxed),
            bind_fallbacks_.load(std::memory_order_relaxed),
            reanalyzed_.load(std::memory_order_relaxed)};
  }

  /// Returns the workload's IPET skeleton store (wcet::IpetCache), shared
  /// by every point of both setups. The store builds per-function skeletons
  /// lazily on first solve, so the compute is default construction.
  std::shared_ptr<const wcet::IpetCache>
  ipet(const workloads::WorkloadInfo& wl) {
    return ipet_.get(&wl, [] { return wcet::IpetCache(); });
  }

  /// Returns the workload's all-geometry cache table of one kind (unified
  /// or instruction-only): one observed run of the canonical image serves
  /// every cache size and associativity of that kind.
  std::shared_ptr<const cache::ReuseTable>
  reuse(const workloads::WorkloadInfo& wl, bool unified,
        const std::function<cache::ReuseTable()>& compute) {
    return reuse_.get({&wl, unified}, compute);
  }

  /// hits = served from cache, misses = ran the canonical simulation.
  Stats stats() const { return profiles_.stats(); }

  /// hits = reused a placed point, misses = priced, linked and analyzed
  /// the placement. A WCET-driven sweep counts every distinct greedy trial
  /// that linked at its size, the chosen placements among them.
  Stats placement_stats() const { return placements_.stats(); }

  /// The placement memo's resident-entry bound (kPlacementCapacity).
  std::size_t placement_capacity() const { return placements_.capacity(); }

  /// hits = reused the canonical record, misses = linked, decoded and
  /// compiled it.
  Stats image_stats() const { return images_.stats(); }

  /// hits = reused the invariant analyzer skeleton, misses = built it.
  Stats shape_stats() const { return shapes_.stats(); }

  /// hits = reused the bound front end, misses = bound + value-analyzed.
  Stats view_stats() const { return views_.stats(); }

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
  support::Memoizer<WorkloadKey, wcet::ProgramView> views_;
  support::Memoizer<WorkloadKey, wcet::RelocatableProgram> relocatables_;
  std::atomic<uint64_t> class_table_binds_{0};
  std::atomic<uint64_t> bind_fallbacks_{0};
  std::atomic<uint64_t> reanalyzed_{0};
  support::Memoizer<WorkloadKey, wcet::IpetCache> ipet_;
  support::Memoizer<std::pair<WorkloadKey, bool>, cache::ReuseTable> reuse_;
};

} // namespace spmwcet::harness
