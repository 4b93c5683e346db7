// Parity tests for the parallel sweep engine: a parallel run must produce a
// report that is byte-identical to the serial path, and the artifact-cached
// and memoized-registry pipelines must be byte-identical to the uncached
// seed pipeline, for every paper benchmark, both memory setups, and several
// pool widths. Reports are compared as strings and points field by field
// (doubles with exact equality), so any divergence — reordered rows, a
// different point value, even a formatting change — fails loudly.
#include <gtest/gtest.h>

#include <sstream>

#include "harness/artifact_cache.h"
#include "harness/experiment.h"
#include "harness/sweep_runner.h"
#include "link/layout.h"
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

class SweepRunnerParity
    : public ::testing::TestWithParam<std::tuple<std::string, harness::MemSetup>> {
protected:
  static workloads::WorkloadInfo make(const std::string& name) {
    if (name == "g721") return workloads::make_g721(16);
    if (name == "adpcm") return workloads::make_adpcm(64);
    return workloads::make_multisort(24);
  }
};

TEST_P(SweepRunnerParity, ParallelReportMatchesSerial) {
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

TEST_P(SweepRunnerParity, CachedProfileMatchesUncachedSeedPath) {
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

TEST_P(SweepRunnerParity, MemoizedRegistryMatchesFreshFactory) {
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
    PaperBenchmarks, SweepRunnerParity,
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

TEST(SweepRunner, BatchKeepsJobOrderAndCapturesErrors) {
  const auto wl = workloads::make_multisort(24);
  harness::SweepConfig cfg = config_for(harness::MemSetup::Cache);

  // A mixed batch: a bad job (null workload) between two good ones must not
  // disturb its neighbors and must carry its own diagnostic.
  std::vector<harness::SweepJob> batch = harness::make_sweep_jobs(wl, cfg);
  ASSERT_EQ(batch.size(), 3u);
  batch[1].workload = nullptr;

  const harness::SweepRunner runner(harness::SweepRunnerOptions{4});
  const auto outcomes = runner.run(batch);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok());
  EXPECT_FALSE(outcomes[1].ok());
  EXPECT_NE(outcomes[1].error.find("no workload"), std::string::npos);
  EXPECT_TRUE(outcomes[2].ok());
  EXPECT_EQ(outcomes[0].point.size_bytes, 64u);
  EXPECT_EQ(outcomes[2].point.size_bytes, 1024u);
}

TEST(SweepRunner, MatrixBatchesWorkloadsAndSetups) {
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

TEST(SweepRunner, ZeroJobsPicksHardwareConcurrency) {
  const harness::SweepRunner runner(harness::SweepRunnerOptions{0});
  EXPECT_GE(runner.jobs(), 1u);
}

TEST(SweepRunner, SharedRunnerPersistsAcrossBatches) {
  // The process-wide runner is created once per worker count; embedding
  // sweeps in a loop reuses the same pool instead of spinning up threads.
  harness::SweepRunner& first = harness::shared_runner(2);
  harness::SweepRunner& second = harness::shared_runner(2);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(first.jobs(), 2u);
  EXPECT_NE(&first, &harness::shared_runner(3));

  // Back-to-back batches on the persistent pool stay deterministic.
  const auto wl = workloads::make_adpcm(64);
  const auto cfg = config_for(harness::MemSetup::Scratchpad);
  const auto once = first.run_matrix({{&wl, cfg}});
  const auto twice = first.run_matrix({{&wl, cfg}});
  expect_identical_points(once.front(), twice.front(), "persistent pool");
}

TEST(SweepRunner, MatrixSharesOneProfilePerWorkload) {
  // The batch-scoped ArtifactCache must collapse the profiling simulation
  // to one run per workload: all but the first SPM point hit the cache.
  const auto wl = workloads::make_adpcm(64);
  harness::SweepConfig cfg = config_for(harness::MemSetup::Scratchpad);
  harness::ArtifactCache cache;
  cfg.artifacts = &cache;

  const harness::SweepRunner runner(harness::SweepRunnerOptions{4});
  const auto outcomes = runner.run(harness::make_sweep_jobs(wl, cfg));
  for (const auto& o : outcomes) EXPECT_TRUE(o.ok()) << o.error;

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, cfg.sizes.size() - 1);
}

TEST(SweepRunner, CacheBranchSharesOneImagePerWorkload) {
  // The cache branch simulates the same no-assignment image at every cache
  // size; with a batch cache the link runs once and every point shares it.
  const auto wl = workloads::make_adpcm(64);
  harness::SweepConfig cfg = config_for(harness::MemSetup::Cache);
  harness::ArtifactCache cache;
  cfg.artifacts = &cache;

  const harness::SweepRunner runner(harness::SweepRunnerOptions{4});
  const auto outcomes = runner.run(harness::make_sweep_jobs(wl, cfg));
  for (const auto& o : outcomes) EXPECT_TRUE(o.ok()) << o.error;

  const auto stats = cache.image_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, cfg.sizes.size() - 1);

  // Direct unit check: the second image() call serves the first's object.
  harness::ArtifactCache unit;
  const auto first =
      unit.image(wl, [&] { return link::link_program(wl.module, {}, {}); });
  const auto second =
      unit.image(wl, [&] { return link::link_program(wl.module, {}, {}); });
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(unit.image_stats().misses, 1u);
}

} // namespace
} // namespace spmwcet
