// Shared cache of the experiment artifacts that repeat across sweep points.
//
// Per workload, one canonical record (CanonicalImage): the no-assignment
// (main-memory-only) image with its decode and compiled block table, built
// together because the first point of either setup needs all three. The SPM
// branch simulates it once (the canonical run, whose profile and candidate
// table serve every scratchpad capacity and price every placement); the
// cache branch binds one analyzer view to it and runs it once observed per
// cache kind, which yields every geometry's cycles and hits
// (cache::ReuseTable). The analyzer's layout-invariant ProgramShape is built
// from the record, and the IPET skeleton store is one per workload as well.
//
// Per placement: a placed image depends only on the module and the
// SpmAssignment (the capacity only gates the link's overflow check), so
// sizes whose allocations choose the same objects share one placed point,
// and the WCET-driven greedy prices each trial through the same artifact.
// The artifact keeps the point's numbers (PlacedRun), not the image. This
// memo alone is bounded (kPlacementCapacity): the greedy stores every trial.
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

/// The workload's canonical executable: the no-assignment image, its decode
/// and its block table. The members own their data (no member points into
/// another), so the record moves freely.
struct CanonicalImage {
  explicit CanonicalImage(link::Image img)
      : image(std::move(img)), decoded(image),
        blocks(decoded, sim::SymbolIndex(image), image) {}

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
  /// serves every point of both setups: the SPM branch re-binds it per
  /// placement, the cache branch binds it once (see view()).
  std::shared_ptr<const wcet::ProgramShape>
  shape(const workloads::WorkloadInfo& wl,
        const std::function<wcet::ProgramShape()>& compute) {
    return shapes_.get(&wl, compute);
  }

  /// Returns the analyzer front end bound to the canonical image (CFGs,
  /// annotations, value analysis) — shared by every cache size of the cache
  /// branch. The compute function must pin the image and shape it binds
  /// (ProgramView::pinned_image / ::shape).
  std::shared_ptr<const wcet::ProgramView>
  view(const workloads::WorkloadInfo& wl,
       const std::function<wcet::ProgramView()>& compute) {
    return views_.get(&wl, compute);
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
  support::Memoizer<WorkloadKey, wcet::IpetCache> ipet_;
  support::Memoizer<std::pair<WorkloadKey, bool>, cache::ReuseTable> reuse_;
};

} // namespace spmwcet::harness
