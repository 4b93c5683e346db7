// Tests of the batch runner (harness::run_matrix). A parallel run must
// produce a report byte-identical to the serial path, and the
// artifact-cached and memoized-registry pipelines must be byte-identical to
// point-local runs, for every paper benchmark, both memory setups, and
// several pool widths. Reports are compared as strings and points field by
// field (doubles with exact equality), so any divergence — reordered rows,
// a different point value, even a formatting change — fails loudly. The
// batch's error capture and artifact sharing are checked at the end; its
// typed deadline is EngineConcurrent.SweepDeadlineStaysTypedAcrossThePool.
#include <gtest/gtest.h>

#include <sstream>

#include "api/engine.h"
#include "harness/artifact_cache.h"
#include "harness/experiment.h"
#include "harness/sweep_runner.h"
#include "support/diag.h"
#include "workloads/workload.h"

namespace spmwcet {
namespace {

std::string render(const workloads::WorkloadInfo& wl,
                   const harness::SweepConfig& cfg,
                   const std::vector<harness::SweepPoint>& points) {
  std::ostringstream os;
  harness::to_table(wl.name, cfg.setup, points).render(os);
  return os.str();
}

/// Field-exact comparison: every SweepPoint member, including the doubles,
/// must be bit-for-bit reproducible across pipelines.
void expect_identical_points(const std::vector<harness::SweepPoint>& a,
                             const std::vector<harness::SweepPoint>& b,
                             const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].size_bytes, b[i].size_bytes) << what << " point " << i;
    EXPECT_EQ(a[i].sim_cycles, b[i].sim_cycles) << what << " point " << i;
    EXPECT_EQ(a[i].wcet_cycles, b[i].wcet_cycles) << what << " point " << i;
    EXPECT_EQ(a[i].ratio, b[i].ratio) << what << " point " << i;
    EXPECT_EQ(a[i].cache_hits, b[i].cache_hits) << what << " point " << i;
    EXPECT_EQ(a[i].cache_misses, b[i].cache_misses) << what << " point " << i;
    EXPECT_EQ(a[i].spm_used_bytes, b[i].spm_used_bytes)
        << what << " point " << i;
    EXPECT_EQ(a[i].energy_nj, b[i].energy_nj) << what << " point " << i;
  }
}

/// One size sweep as a run_matrix batch on `jobs` workers.
std::vector<harness::SweepPoint> sweep(const workloads::WorkloadInfo& wl,
                                       const harness::SweepConfig& cfg,
                                       unsigned jobs) {
  return harness::run_matrix({{&wl, cfg}}, jobs).front();
}

harness::SweepConfig config_for(harness::MemSetup setup) {
  harness::SweepConfig cfg;
  cfg.setup = setup;
  // Small sizes keep the suite fast while still covering several points.
  cfg.sizes = {64, 256, 1024};
  return cfg;
}

class RunMatrixParity
    : public ::testing::TestWithParam<std::tuple<std::string, harness::MemSetup>> {
protected:
  static workloads::WorkloadInfo make(const std::string& name) {
    if (name == "g721") return workloads::make_g721(16);
    if (name == "adpcm") return workloads::make_adpcm(64);
    return workloads::make_multisort(24);
  }
};

TEST_P(RunMatrixParity, ParallelReportMatchesSerial) {
  const auto& [bench, setup] = GetParam();
  const workloads::WorkloadInfo wl = make(bench);
  const harness::SweepConfig cfg = config_for(setup);

  const auto serial = sweep(wl, cfg, 1);
  const std::string serial_report = render(wl, cfg, serial);
  for (const unsigned jobs : {2u, 8u}) {
    const auto parallel = sweep(wl, cfg, jobs);
    EXPECT_EQ(serial_report, render(wl, cfg, parallel))
        << bench << "/" << harness::to_string(setup) << " with " << jobs
        << " threads diverged from the serial report";
  }
}

TEST_P(RunMatrixParity, CachedProfileMatchesUncachedSeedPath) {
  // The artifact-cached pipeline (profile hoisted once per workload) must
  // reproduce the seed pipeline — which re-ran the profiling simulation for
  // every SPM size — byte for byte, at every pool width.
  const auto& [bench, setup] = GetParam();
  const workloads::WorkloadInfo wl = make(bench);
  harness::SweepConfig cfg = config_for(setup);

  std::vector<harness::SweepPoint> seed;
  for (const uint32_t size : cfg.sizes) // point-local caches: nothing shared
    seed.push_back(harness::detail::execute_point(wl, setup, size, cfg));
  const std::string seed_report = render(wl, cfg, seed);

  for (const unsigned jobs : {1u, 2u, 8u}) {
    const auto cached = sweep(wl, cfg, jobs);
    expect_identical_points(seed, cached,
                            bench + std::string("/") +
                                harness::to_string(setup) + " cached@" +
                                std::to_string(jobs));
    EXPECT_EQ(seed_report, render(wl, cfg, cached));
  }
}

TEST_P(RunMatrixParity, MemoizedRegistryMatchesFreshFactory) {
  // A registry-shared module must sweep to the same points as a privately
  // lowered one (the registry memoizes lowering, never results).
  const auto& [bench, setup] = GetParam();
  const harness::SweepConfig cfg = config_for(setup);

  const auto cached_wl = workloads::WorkloadRegistry::instance().get(
      "parity/" + bench, [&] { return make(bench); });
  const auto again = workloads::WorkloadRegistry::instance().get(
      "parity/" + bench, [&] { return make(bench); });
  EXPECT_EQ(cached_wl.get(), again.get())
      << "registry must hand out one shared instance per key";

  const workloads::WorkloadInfo fresh = make(bench);
  for (const unsigned jobs : {1u, 8u}) {
    expect_identical_points(
        sweep(fresh, cfg, jobs),
        sweep(*cached_wl, cfg, jobs),
        bench + std::string("/registry@") + std::to_string(jobs));
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperBenchmarks, RunMatrixParity,
    ::testing::Combine(::testing::Values("g721", "adpcm", "multisort"),
                       ::testing::Values(harness::MemSetup::Scratchpad,
                                         harness::MemSetup::Cache)),
    [](const auto& info) {
      return std::get<0>(info.param) +
             std::string(harness::to_string(std::get<1>(info.param)) ==
                                 std::string("cache")
                             ? "Cache"
                             : "Spm");
    });

TEST(RunMatrix, RethrowsTheFirstFailureInBatchOrder) {
  // Two unsupported cache geometries fail in their own points; whichever
  // worker reaches one first, the batch fails with the earlier point's
  // error, as the serial loop would.
  const auto wl = workloads::make_multisort(24);
  harness::SweepConfig cfg = config_for(harness::MemSetup::Cache);
  cfg.sizes = {64, 96, 48, 1024};
  for (const unsigned jobs : {1u, 4u}) {
    try {
      (void)harness::run_matrix({{&wl, cfg}}, jobs);
      ADD_FAILURE() << "jobs=" << jobs << ": the batch did not fail";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("(96 B"), std::string::npos)
          << "jobs=" << jobs << ": " << e.what();
    }
  }
  EXPECT_THROW((void)harness::run_matrix({{nullptr, cfg}}, 4), Error);
}

TEST(RunMatrix, CacheRequestsDispatchFirstButRethrowInBatchOrder) {
  // A workload whose expected output is wrong fails both setups, each with
  // its own configuration in the message. The cache request is dispatched
  // first, yet the batch fails with the SPM request's error, the first in
  // batch order; and the failed observed run hands in no canonical run.
  auto wl = workloads::make_adpcm(64);
  ASSERT_FALSE(wl.expected.empty());
  ASSERT_FALSE(wl.expected.front().values.empty());
  wl.expected.front().values.front() += 1;
  harness::ArtifactCache cache;
  harness::SweepConfig spm_cfg = config_for(harness::MemSetup::Scratchpad);
  spm_cfg.artifacts = &cache;
  harness::SweepConfig cache_cfg = config_for(harness::MemSetup::Cache);
  cache_cfg.artifacts = &cache;
  for (const unsigned jobs : {1u, 4u}) {
    try {
      (void)harness::run_matrix({{&wl, spm_cfg}, {&wl, cache_cfg}}, jobs);
      ADD_FAILURE() << "jobs=" << jobs << ": the batch did not fail";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("in spm configuration"),
                std::string::npos)
          << "jobs=" << jobs << ": " << e.what();
    }
  }
  EXPECT_EQ(cache.stats().inserted, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(RunMatrix, MatrixBatchesWorkloadsAndSetups) {
  // A (workload × setup) matrix flattened into one batch must return each
  // request's points exactly as its standalone sweep would.
  const auto g721 = workloads::make_g721(16);
  const auto adpcm = workloads::make_adpcm(64);
  const auto spm_cfg = config_for(harness::MemSetup::Scratchpad);
  const auto cache_cfg = config_for(harness::MemSetup::Cache);

  const auto results = harness::run_matrix({{&g721, spm_cfg},
                                            {&g721, cache_cfg},
                                            {&adpcm, spm_cfg},
                                            {&adpcm, cache_cfg}},
                                           8);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(render(g721, spm_cfg, results[0]),
            render(g721, spm_cfg, sweep(g721, spm_cfg, 1)));
  EXPECT_EQ(render(adpcm, cache_cfg, results[3]),
            render(adpcm, cache_cfg,
                   sweep(adpcm, cache_cfg, 1)));
}

TEST(RunMatrix, BackToBackBatchesOnOnePoolAreDeterministic) {
  // Batches of one width share one persistent pool; reusing it must not
  // change a point.
  const auto wl = workloads::make_adpcm(64);
  const auto cfg = config_for(harness::MemSetup::Scratchpad);
  expect_identical_points(sweep(wl, cfg, 2), sweep(wl, cfg, 2),
                          "persistent pool");
}

TEST(RunMatrix, MatrixSharesOneProfilePerWorkload) {
  // The batch's ArtifactCache must collapse the profiling simulation to one
  // run per workload: all but the first SPM point hit the cache.
  const auto wl = workloads::make_adpcm(64);
  harness::SweepConfig cfg = config_for(harness::MemSetup::Scratchpad);
  harness::ArtifactCache cache;
  cfg.artifacts = &cache;
  (void)sweep(wl, cfg, 4);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, cfg.sizes.size() - 1);
}

TEST(RunMatrix, BothBranchesShareOneCanonicalRecordPerWorkload) {
  // The SPM sweep builds the workload's canonical record (image, decode,
  // block table) once; the cache sweep on the same cache reuses it at
  // every size instead of linking, decoding or compiling again.
  const auto wl = workloads::make_adpcm(64);
  harness::ArtifactCache cache;
  harness::SweepConfig spm_cfg = config_for(harness::MemSetup::Scratchpad);
  spm_cfg.artifacts = &cache;
  harness::SweepConfig cache_cfg = config_for(harness::MemSetup::Cache);
  cache_cfg.artifacts = &cache;

  (void)sweep(wl, spm_cfg, 4);
  const auto after_spm = cache.image_stats();
  EXPECT_EQ(after_spm.misses, 1u);
  (void)sweep(wl, cache_cfg, 4);
  const auto after_cache = cache.image_stats();
  EXPECT_EQ(after_cache.misses, 1u);
  EXPECT_EQ(after_cache.hits, after_spm.hits + cache_cfg.sizes.size());

  // The same through the Engine's session cache, as `image_artifacts`.
  api::Engine engine;
  for (const harness::MemSetup setup :
       {harness::MemSetup::Scratchpad, harness::MemSetup::Cache})
    ASSERT_TRUE(
        engine.sweep(api::SweepRequest::make({"adpcm"}, setup).value()).ok());
  EXPECT_EQ(engine.stats().image_artifacts.misses, 1u);
  EXPECT_GT(engine.stats().image_artifacts.hits, 0u);
}

TEST(RunMatrix, WcetDrivenSweepsShareTrialsOnOneCache) {
  // Concurrent sizes and programs of one batch price their greedy trials
  // through one shared placement memo: at every pool width the points are
  // the serial ones and the distinct placements priced are the same.
  const auto adpcm = workloads::make_adpcm(64);
  auto& registry = workloads::WorkloadRegistry::instance();
  const auto mixed1 = registry.benchmark("gen:mixed:1");
  const auto mixed2 = registry.benchmark("gen:mixed:2");
  const auto run = [&](unsigned jobs, harness::ArtifactCache& cache) {
    harness::SweepConfig cfg = config_for(harness::MemSetup::Scratchpad);
    cfg.wcet_driven_alloc = true;
    cfg.artifacts = &cache;
    return harness::run_matrix(
        {{&adpcm, cfg}, {mixed1.get(), cfg}, {mixed2.get(), cfg}}, jobs);
  };
  harness::ArtifactCache serial_cache;
  const auto serial = run(1, serial_cache);
  for (const unsigned jobs : {2u, 8u}) {
    harness::ArtifactCache cache;
    const auto parallel = run(jobs, cache);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t r = 0; r < serial.size(); ++r)
      expect_identical_points(parallel[r], serial[r],
                              "wcet-driven request " + std::to_string(r) +
                                  " jobs=" + std::to_string(jobs));
    EXPECT_EQ(cache.placement_stats().misses,
              serial_cache.placement_stats().misses)
        << "jobs=" << jobs;
  }
}

} // namespace
} // namespace spmwcet
