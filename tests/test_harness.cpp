// Harness integration tests: the paper's experiment shapes, asserted as
// properties on small workloads so they run quickly in CI, output
// validation, and the placement artifact that lets SPM sizes with the same
// allocation share one priced run and analysis.
#include <gtest/gtest.h>

#include <string>

#include "harness/artifact_cache.h"
#include "harness/experiment.h"
#include "harness/sweep_runner.h"
#include "link/layout.h"
#include "support/diag.h"

namespace spmwcet::harness {
namespace {

/// One point through the pipeline primitive.
SweepPoint run_point(const workloads::WorkloadInfo& wl, MemSetup setup,
                     uint32_t size_bytes, const SweepConfig& cfg) {
  return detail::execute_point(wl, setup, size_bytes, cfg);
}

/// One size sweep as a run_matrix batch on `jobs` workers.
std::vector<SweepPoint> run_sweep(const workloads::WorkloadInfo& wl,
                                  const SweepConfig& cfg, unsigned jobs = 1) {
  return run_matrix({MatrixRequest{&wl, cfg}}, jobs).front();
}

SweepConfig small_spm() {
  SweepConfig cfg;
  cfg.setup = MemSetup::Scratchpad;
  cfg.sizes = {64, 256, 1024, 4096};
  return cfg;
}

SweepConfig small_cache() {
  SweepConfig cfg;
  cfg.setup = MemSetup::Cache;
  cfg.sizes = {64, 256, 1024, 4096};
  return cfg;
}

TEST(Harness, SpmSweepIsMonotoneAndSound) {
  const auto wl = workloads::make_adpcm(96);
  const auto pts = run_sweep(wl, small_spm());
  ASSERT_EQ(pts.size(), 4u);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].wcet_cycles, pts[i].sim_cycles) << "soundness at point " << i;
    if (i > 0) {
      EXPECT_LE(pts[i].sim_cycles, pts[i - 1].sim_cycles);
      EXPECT_LE(pts[i].wcet_cycles, pts[i - 1].wcet_cycles);
      EXPECT_LE(pts[i].energy_nj, pts[i - 1].energy_nj)
          << "the energy-optimal allocation must not waste energy";
    }
  }
}

TEST(Harness, SpmRatioStaysNearConstant) {
  // Paper Figures 4/5: the WCET/ACET ratio is (near) constant across
  // scratchpad sizes.
  const auto wl = workloads::make_adpcm(96);
  const auto pts = run_sweep(wl, small_spm());
  double lo = 1e300, hi = 0;
  for (const auto& pt : pts) {
    lo = std::min(lo, pt.ratio);
    hi = std::max(hi, pt.ratio);
  }
  EXPECT_LT(hi / lo, 1.25) << "scratchpad ratio drifted more than 25%";
}

TEST(Harness, CacheRatioGrowsWithSize) {
  // Paper Figures 4/5: the cache WCET/ACET ratio grows with cache size.
  const auto wl = workloads::make_adpcm(96);
  const auto pts = run_sweep(wl, small_cache());
  EXPECT_GT(pts.back().ratio, pts.front().ratio * 1.3)
      << "cache overestimation must grow markedly with size";
  for (const auto& pt : pts)
    EXPECT_GE(pt.wcet_cycles, pt.sim_cycles) << "soundness";
}

TEST(Harness, CacheWcetStaysFlatWhileAcetImproves) {
  // Paper Figure 3b.
  const auto wl = workloads::make_adpcm(96);
  const auto pts = run_sweep(wl, small_cache());
  const double acet_gain = static_cast<double>(pts.front().sim_cycles) /
                           static_cast<double>(pts.back().sim_cycles);
  const double wcet_gain = static_cast<double>(pts.front().wcet_cycles) /
                           static_cast<double>(pts.back().wcet_cycles);
  EXPECT_GT(acet_gain, 1.2) << "the cache must actually help the simulation";
  EXPECT_LT(wcet_gain, acet_gain)
      << "the MUST-only bound must improve far less than the simulation";
}

TEST(Harness, SpmBeatsCacheOnWcetAtEqualCapacity) {
  // The paper's overall conclusion, checked at one mid-size point.
  const auto wl = workloads::make_adpcm(96);
  const auto spm = run_point(wl, MemSetup::Scratchpad, 1024, small_spm());
  const auto cc = run_point(wl, MemSetup::Cache, 1024, small_cache());
  EXPECT_LT(spm.wcet_cycles, cc.wcet_cycles);
}

TEST(Harness, CacheStatsArePopulated) {
  const auto wl = workloads::make_adpcm(96);
  const auto pt = run_point(wl, MemSetup::Cache, 512, small_cache());
  EXPECT_GT(pt.cache_hits + pt.cache_misses, 0u);
  EXPECT_GT(pt.energy_nj, 0.0);
}

TEST(Harness, TableRendersOneRowPerPoint) {
  const auto wl = workloads::make_bubble_sort(12, workloads::SortInput::Random);
  const auto pts = run_sweep(wl, small_spm());
  const TablePrinter t = to_table("Bubble", MemSetup::Scratchpad, pts);
  EXPECT_EQ(t.row_count(), pts.size());
}

TEST(Harness, WcetDrivenAllocationSweepWorks) {
  SweepConfig cfg = small_spm();
  cfg.wcet_driven_alloc = true;
  cfg.sizes = {128, 1024};
  const auto wl = workloads::make_bubble_sort(12, workloads::SortInput::Random);
  const auto pts = run_sweep(wl, cfg);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_LE(pts[1].wcet_cycles, pts[0].wcet_cycles);
  for (const auto& pt : pts) EXPECT_GE(pt.wcet_cycles, pt.sim_cycles);
}

TEST(Harness, SweepPointsAreIndependentOfJobCount) {
  // The harness-level contract behind the CLI's --jobs flag: every field
  // of every point is invariant under the worker count.
  const auto wl = workloads::make_multisort(24);
  for (const auto make_cfg : {small_spm, small_cache}) {
    SweepConfig cfg = make_cfg();
    const auto serial = run_sweep(wl, cfg);
    const auto parallel = run_sweep(wl, cfg, 8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].size_bytes, parallel[i].size_bytes);
      EXPECT_EQ(serial[i].sim_cycles, parallel[i].sim_cycles);
      EXPECT_EQ(serial[i].wcet_cycles, parallel[i].wcet_cycles);
      EXPECT_EQ(serial[i].cache_hits, parallel[i].cache_hits);
      EXPECT_EQ(serial[i].cache_misses, parallel[i].cache_misses);
      EXPECT_EQ(serial[i].spm_used_bytes, parallel[i].spm_used_bytes);
      EXPECT_EQ(serial[i].energy_nj, parallel[i].energy_nj);
    }
  }
}

TEST(Harness, PersistenceSweepTightensCacheBound) {
  SweepConfig with_pers = small_cache();
  with_pers.with_persistence = true;
  const auto wl = workloads::make_bubble_sort(12, workloads::SortInput::Random);
  const auto base = run_sweep(wl, small_cache());
  const auto pers = run_sweep(wl, with_pers);
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_LE(pers[i].wcet_cycles, base[i].wcet_cycles);
    EXPECT_GE(pers[i].wcet_cycles, pers[i].sim_cycles);
  }
}

TEST(Harness, WrongOutputFailsSpmAndCachePoints) {
  // A workload whose reference disagrees with its run in one value: the
  // canonical run fails every SPM point, the observed run every cache point.
  workloads::WorkloadInfo wl = workloads::make_adpcm(32);
  ASSERT_FALSE(wl.expected.empty());
  ASSERT_FALSE(wl.expected.front().values.empty());
  wl.expected.front().values.front() += 1;
  for (const MemSetup setup : {MemSetup::Scratchpad, MemSetup::Cache}) {
    std::string error = "no error";
    try {
      (void)run_point(wl, setup, 1024, SweepConfig{});
    } catch (const Error& e) {
      error = e.what();
    }
    EXPECT_NE(error.find("harness: " + wl.name + " produced wrong output"),
              std::string::npos)
        << to_string(setup) << ": " << error;
  }
}

// ---- placement artifact -----------------------------------------------------

void expect_same_points(const std::vector<SweepPoint>& a,
                        const std::vector<SweepPoint>& b,
                        const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].size_bytes, b[i].size_bytes) << what;
    EXPECT_EQ(a[i].sim_cycles, b[i].sim_cycles) << what;
    EXPECT_EQ(a[i].wcet_cycles, b[i].wcet_cycles) << what;
    EXPECT_EQ(a[i].ratio, b[i].ratio) << what;
    EXPECT_EQ(a[i].spm_used_bytes, b[i].spm_used_bytes) << what;
    EXPECT_EQ(a[i].energy_nj, b[i].energy_nj) << what;
  }
}

TEST(PlacementArtifact, PaperSweepsMatchPointLocalCachesAndShareRuns) {
  // Over the 8 paper sizes the knapsack picks 7/6/6 distinct placements for
  // g721/adpcm/multisort: one placed run each, the repeats served from the
  // batch cache. Every point equals the same point run on a point-local
  // cache, where nothing is shared.
  const std::vector<uint64_t> distinct = {7, 6, 6};
  const auto wls = workloads::cached_paper_benchmarks();
  ASSERT_EQ(wls.size(), distinct.size());
  for (std::size_t w = 0; w < wls.size(); ++w) {
    const workloads::WorkloadInfo& wl = *wls[w];
    SweepConfig cfg;
    cfg.setup = MemSetup::Scratchpad;
    ArtifactCache batch;
    cfg.artifacts = &batch;
    const auto shared = run_sweep(wl, cfg);

    cfg.artifacts = nullptr;
    std::vector<SweepPoint> local;
    for (const uint32_t size : cfg.sizes)
      local.push_back(run_point(wl, MemSetup::Scratchpad, size, cfg));
    expect_same_points(shared, local, wl.name);

    EXPECT_EQ(batch.placement_stats().misses, distinct[w]) << wl.name;
    EXPECT_EQ(batch.placement_stats().hits, cfg.sizes.size() - distinct[w])
        << wl.name;
    // One canonical run, and with it the candidate table, per workload.
    EXPECT_EQ(batch.stats().misses, 1u) << wl.name;
    EXPECT_EQ(batch.stats().hits, cfg.sizes.size() - 1) << wl.name;
  }
}

TEST(PlacementArtifact, MemoIsBoundedAboveOneRequestsTrials) {
  // The placement memo keeps every WCET-driven trial, so it alone carries
  // an LRU bound; one callheavy --wcet-alloc sweep stores ~11k trials and
  // must fit.
  const ArtifactCache cache;
  EXPECT_EQ(cache.placement_capacity(), ArtifactCache::kPlacementCapacity);
  EXPECT_GE(cache.placement_capacity(), 16384u);
}

TEST(PlacementArtifact, CapacityCheckFiresOnHitAsOnMiss) {
  // A candidate table that under-reports one function's size makes the
  // knapsack place it at any capacity, so a small size overflows. The
  // first point (4 KiB) runs and stores the placement; the 64-byte point
  // then hits it and must fail with the link's own error, exactly as the
  // same point fails when it misses and links.
  const auto wl = workloads::make_adpcm(32);
  const std::vector<link::FunctionExtent> extents =
      link::lay_out(wl.module).extents();
  std::string big;
  uint32_t big_bytes = 0;
  for (std::size_t i = 0; i < extents.size(); ++i)
    if (extents[i].total_bytes > big_bytes && extents[i].total_bytes <= 4096) {
      big = wl.module.functions[i].name;
      big_bytes = extents[i].total_bytes;
    }
  ASSERT_GT(big_bytes, 64u);
  ArtifactCache scratch;
  const sim::SimResult run = canonical_run(wl, scratch)->run;
  const auto plant = [&](ArtifactCache& cache) {
    (void)cache.profile(wl, [&] {
      alloc::MemoryObject obj;
      obj.name = big;
      obj.is_function = true;
      obj.size_bytes = 16;
      obj.benefit_nj = 1.0;
      return CanonicalRun{run, {obj}};
    });
  };
  const auto error_at = [&](ArtifactCache& cache, uint32_t size) {
    SweepConfig cfg;
    cfg.artifacts = &cache;
    try {
      (void)run_point(wl, MemSetup::Scratchpad, size, cfg);
    } catch (const ProgramError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string expected = "link: scratchpad capacity exceeded (" +
                               std::to_string(big_bytes) + " > 64 bytes)";

  ArtifactCache warm;
  plant(warm);
  EXPECT_EQ(error_at(warm, 4096), "no error");
  EXPECT_EQ(error_at(warm, 64), expected);
  EXPECT_EQ(warm.placement_stats().misses, 1u);
  EXPECT_EQ(warm.placement_stats().hits, 1u);

  ArtifactCache cold;
  plant(cold);
  EXPECT_EQ(error_at(cold, 64), expected);
  EXPECT_EQ(cold.placement_stats().misses, 0u); // the link threw: not stored
}

} // namespace
} // namespace spmwcet::harness
