// Shared cache of the experiment artifacts that repeat across sweep points.
//
// Per workload: the paper's allocation profile comes from a no-assignment
// (main-memory-only) image, so the profiling simulation and the candidate
// table built from it (alloc::collect_objects) serve every scratchpad
// capacity. That image is also what the cache branch runs at every cache
// size, and one observed run of it yields every cache geometry's cycles and
// hits (cache::ReuseTable). The analyzer's layout-invariant ProgramShape,
// the ProgramView bound to the canonical image, its DecodedImage and the
// IPET skeleton store are one per workload as well.
//
// Per placement: a placed image depends only on the module and the
// SpmAssignment (the capacity only gates the link's overflow check), so
// sizes whose allocations choose the same objects share one placed run.
// The artifact keeps the run's numbers (PlacedRun), not the image.
//
// Every point runs through an ArtifactCache: the batch's, the Engine's, or
// a point-local one when the caller has none.
//
// Thread safety comes from support::Memoizer: concurrent points that need
// the same artifact block until the first computation finishes and the
// compute function runs exactly once (a throwing compute is retried by the
// next caller). Entries are keyed by WorkloadInfo address; the cache must
// not outlive the workloads it indexes, which is why
// SweepRunner::run_matrix scopes one cache to each batch.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "alloc/memory_objects.h"
#include "cache/reuse_table.h"
#include "link/image.h"
#include "link/layout.h"
#include "program/decoded_image.h"
#include "sim/block_table.h"
#include "sim/profile.h"
#include "support/memoize.h"
#include "wcet/frontend.h"
#include "wcet/ipet.h"
#include "workloads/workload.h"

namespace spmwcet::harness {

/// What the SPM branch keeps of one placed run: the point's numbers, not
/// the image or the analyzer view.
struct PlacedRun {
  uint64_t sim_cycles = 0;
  uint64_t wcet_cycles = 0;
  double energy_nj = 0.0;
  uint32_t spm_extent = 0; ///< link::Image::spm_extent of the placed image
};

/// Identity of a placed run: the workload and the scratchpad contents.
struct PlacementKey {
  const workloads::WorkloadInfo* workload = nullptr;
  link::SpmAssignment assignment;
  auto operator<=>(const PlacementKey&) const = default;
};

class ArtifactCache {
public:
  using ProfileFn = std::function<sim::AccessProfile()>;
  using CandidatesFn = std::function<std::vector<alloc::MemoryObject>()>;
  using PlacementFn = std::function<PlacedRun()>;
  using ImageFn = std::function<link::Image()>;
  using DecodedFn = std::function<program::DecodedImage()>;
  using BlocksFn = std::function<sim::BlockTable()>;
  using ShapeFn = std::function<wcet::ProgramShape()>;
  using ViewFn = std::function<wcet::ProgramView()>;
  using ReuseFn = std::function<cache::ReuseTable()>;
  using Stats = support::MemoStats;

  /// Returns the workload's no-assignment access profile, computing it with
  /// `compute` on first use and serving the shared copy afterwards.
  std::shared_ptr<const sim::AccessProfile>
  profile(const workloads::WorkloadInfo& wl, const ProfileFn& compute) {
    return profiles_.get(&wl, compute);
  }

  /// Returns the workload's allocation candidate table (every memory
  /// object with its size and profiled benefit), built once from the
  /// profile and solved against each capacity.
  std::shared_ptr<const std::vector<alloc::MemoryObject>>
  candidates(const workloads::WorkloadInfo& wl, const CandidatesFn& compute) {
    return candidates_.get(&wl, compute);
  }

  /// Returns the placed run of `key`, running it with `compute` the first
  /// time any size allocates that placement.
  std::shared_ptr<const PlacedRun> placement(const PlacementKey& key,
                                             const PlacementFn& compute) {
    return placements_.get(key, compute);
  }

  /// Returns the workload's canonical no-assignment image (the executable
  /// the cache branch analyzes at every size and the profiling simulation
  /// runs on), linking it with `compute` once per workload per batch.
  std::shared_ptr<const link::Image>
  image(const workloads::WorkloadInfo& wl, const ImageFn& compute) {
    return images_.get(&wl, compute);
  }

  /// Returns the shared decode table of the workload's canonical image —
  /// used by the cache branch's observed run, the profiling simulation and
  /// the analyzer front end, so the image's code is decoded once per
  /// workload.
  std::shared_ptr<const program::DecodedImage>
  decoded(const workloads::WorkloadInfo& wl, const DecodedFn& compute) {
    return decoded_.get(&wl, compute);
  }

  /// Returns the compiled superblock table of the workload's canonical
  /// no-assignment image — shared by the profiling simulation and the
  /// cache branch's observed run (the block tier compiles per image, and
  /// both run the no-assignment layout). A placed SPM image compiles its own
  /// table inside the simulator, once per placement (see placement()).
  std::shared_ptr<const sim::BlockTable>
  blocks(const workloads::WorkloadInfo& wl, const BlocksFn& compute) {
    return blocks_.get(&wl, compute);
  }

  /// Returns the workload's layout-invariant analyzer skeleton
  /// (wcet::ProgramShape). One shape serves every point of both setups:
  /// the SPM branch re-binds it per placement, the cache branch binds it
  /// once (see view()).
  std::shared_ptr<const wcet::ProgramShape>
  shape(const workloads::WorkloadInfo& wl, const ShapeFn& compute) {
    return shapes_.get(&wl, compute);
  }

  /// Returns the analyzer front end bound to the workload's canonical
  /// no-assignment image (CFGs, annotations, value analysis) — shared by
  /// every cache size of the cache branch, which all analyze that one
  /// image. The compute function must pin the image and shape it binds
  /// (ProgramView::pinned_image / ::shape).
  std::shared_ptr<const wcet::ProgramView>
  view(const workloads::WorkloadInfo& wl, const ViewFn& compute) {
    return views_.get(&wl, compute);
  }

  /// Returns the workload's IPET skeleton store (wcet::IpetCache): one per
  /// workload per batch, shared by every point of both setups. The store
  /// itself builds per-function skeletons lazily on first solve, so the
  /// compute function is just default construction.
  std::shared_ptr<const wcet::IpetCache>
  ipet(const workloads::WorkloadInfo& wl) {
    return ipet_.get(&wl, [] { return wcet::IpetCache(); });
  }

  /// Returns the workload's all-geometry cache table of one kind (unified
  /// or instruction-only): one observed run of the canonical image serves
  /// every cache size and associativity of that kind.
  std::shared_ptr<const cache::ReuseTable>
  reuse(const workloads::WorkloadInfo& wl, bool unified,
        const ReuseFn& compute) {
    return reuse_.get({&wl, unified}, compute);
  }

  /// hits = served from cache, misses = ran the profiling simulation.
  Stats stats() const { return profiles_.stats(); }

  /// hits = reused the candidate table, misses = built it from the profile.
  Stats candidates_stats() const { return candidates_.stats(); }

  /// hits = reused a placed run, misses = linked, simulated and analyzed
  /// the placement.
  Stats placement_stats() const { return placements_.stats(); }

  /// hits = served from cache, misses = ran the no-assignment link.
  Stats image_stats() const { return images_.stats(); }

  /// hits = reused the shared decode table, misses = decoded the image.
  Stats decoded_stats() const { return decoded_.stats(); }

  /// hits = reused the compiled block table, misses = compiled it.
  Stats blocks_stats() const { return blocks_.stats(); }

  /// hits = reused the invariant analyzer skeleton, misses = built it.
  Stats shape_stats() const { return shapes_.stats(); }

  /// hits = reused the bound front end, misses = bound + value-analyzed.
  Stats view_stats() const { return views_.stats(); }

  /// hits = reused an existing IPET skeleton store.
  Stats ipet_stats() const { return ipet_.stats(); }

  /// Skeleton builds, hits and fallbacks summed over the resident
  /// per-workload IPET stores.
  wcet::IpetCacheStats ipet_skeleton_stats() const {
    wcet::IpetCacheStats sum;
    ipet_.for_each([&](const wcet::IpetCache& store) {
      const wcet::IpetCacheStats s = store.stats();
      sum.builds += s.builds;
      sum.hits += s.hits;
      sum.fallbacks += s.fallbacks;
    });
    return sum;
  }

  /// hits = answered a cache point from the table, misses = observed run.
  Stats reuse_stats() const { return reuse_.stats(); }

  void clear() {
    profiles_.clear();
    candidates_.clear();
    placements_.clear();
    images_.clear();
    decoded_.clear();
    blocks_.clear();
    shapes_.clear();
    views_.clear();
    ipet_.clear();
    reuse_.clear();
  }

private:
  support::Memoizer<const workloads::WorkloadInfo*, sim::AccessProfile>
      profiles_;
  support::Memoizer<const workloads::WorkloadInfo*,
                    std::vector<alloc::MemoryObject>>
      candidates_;
  support::Memoizer<PlacementKey, PlacedRun> placements_;
  support::Memoizer<const workloads::WorkloadInfo*, link::Image> images_;
  support::Memoizer<const workloads::WorkloadInfo*, program::DecodedImage>
      decoded_;
  support::Memoizer<const workloads::WorkloadInfo*, sim::BlockTable> blocks_;
  support::Memoizer<const workloads::WorkloadInfo*, wcet::ProgramShape>
      shapes_;
  support::Memoizer<const workloads::WorkloadInfo*, wcet::ProgramView> views_;
  support::Memoizer<const workloads::WorkloadInfo*, wcet::IpetCache> ipet_;
  support::Memoizer<std::pair<const workloads::WorkloadInfo*, bool>,
                    cache::ReuseTable>
      reuse_;
};

} // namespace spmwcet::harness
