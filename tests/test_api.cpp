// Engine API v1: request validation, Result/ApiError semantics, Engine
// execution parity against the historical harness free functions (which are
// now shims over the Engine — these tests pin that the two surfaces cannot
// drift), cross-request artifact amortization, and response caching.
#include <gtest/gtest.h>

#include <sstream>

#include "api/engine.h"
#include "api/render.h"
#include "harness/report.h"
#include "harness/sweep_runner.h"
#include "workloads/workload.h"

namespace spmwcet {
namespace {

using api::EngineOptions;
using api::ErrorCode;
using api::EvalRequest;
using api::ExperimentOptions;
using api::PointRequest;
using api::SimBenchRequest;
using api::SweepRequest;
using api::WcetBenchRequest;
using harness::MemSetup;

void expect_points_eq(const harness::SweepPoint& a,
                      const harness::SweepPoint& b) {
  EXPECT_EQ(a.size_bytes, b.size_bytes);
  EXPECT_EQ(a.sim_cycles, b.sim_cycles);
  EXPECT_EQ(a.wcet_cycles, b.wcet_cycles);
  EXPECT_DOUBLE_EQ(a.ratio, b.ratio);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.spm_used_bytes, b.spm_used_bytes);
  EXPECT_DOUBLE_EQ(a.energy_nj, b.energy_nj);
}

// ---- request validation ---------------------------------------------------

TEST(ApiRequest, UnknownWorkloadIsTyped) {
  const auto req = PointRequest::make("nope", MemSetup::Scratchpad, 1024);
  ASSERT_FALSE(req.ok());
  EXPECT_EQ(req.error().code, ErrorCode::UnknownWorkload);
  EXPECT_EQ(req.error().context, "workload");
}

TEST(ApiRequest, SizeRangeIsEnforced) {
  EXPECT_EQ(PointRequest::make("g721", MemSetup::Scratchpad, 0).error().code,
            ErrorCode::OutOfRange);
  EXPECT_EQ(PointRequest::make("g721", MemSetup::Scratchpad,
                               api::kMaxMemBytes + 1)
                .error()
                .code,
            ErrorCode::OutOfRange);
  // SPM capacities need not be powers of two…
  EXPECT_TRUE(PointRequest::make("g721", MemSetup::Scratchpad, 1000).ok());
  // …but cache geometries do.
  EXPECT_EQ(PointRequest::make("g721", MemSetup::Cache, 1000).error().code,
            ErrorCode::OutOfRange);
}

TEST(ApiRequest, CacheGeometryIsValidated) {
  ExperimentOptions opts;
  opts.cache_assoc = 3;
  EXPECT_EQ(
      PointRequest::make("g721", MemSetup::Cache, 1024, opts).error().code,
      ErrorCode::InvalidArgument);
  opts.cache_assoc = 8; // 8 ways x 16-byte lines = 128 B > 64 B capacity
  EXPECT_EQ(
      PointRequest::make("g721", MemSetup::Cache, 64, opts).error().code,
      ErrorCode::OutOfRange);
  opts.cache_assoc = 2;
  EXPECT_TRUE(PointRequest::make("g721", MemSetup::Cache, 1024, opts).ok());
}

TEST(ApiRequest, CacheAssociativityIsBounded) {
  // 128 ways is the largest associativity the cache analysis' byte-wide
  // ages support; beyond it every cache request is a typed out_of_range on
  // "assoc", never an internal check or a wrapped age.
  ExperimentOptions opts;
  opts.cache_assoc = api::kMaxCacheAssoc;
  EXPECT_TRUE(PointRequest::make("adpcm", MemSetup::Cache, 8192, opts).ok());
  opts.cache_assoc = 256;
  for (const bool persistence : {false, true}) {
    opts.with_persistence = persistence;
    const auto req = PointRequest::make("adpcm", MemSetup::Cache, 8192, opts);
    ASSERT_FALSE(req.ok());
    EXPECT_EQ(req.error().code, ErrorCode::OutOfRange);
    EXPECT_EQ(req.error().context, "assoc");
    EXPECT_EQ(req.error().message,
              "cache associativity 256 exceeds the supported maximum of 128");
  }
  EXPECT_EQ(
      SweepRequest::make({"adpcm"}, MemSetup::Cache, {8192}, opts).error().code,
      ErrorCode::OutOfRange);
  EXPECT_EQ(EvalRequest::make({"adpcm"}, {8192}, opts).error().code,
            ErrorCode::OutOfRange);
  // Scratchpad requests carry no cache geometry.
  EXPECT_TRUE(
      PointRequest::make("adpcm", MemSetup::Scratchpad, 8192, opts).ok());
}

TEST(ApiRequest, SweepDefaultsToPaperSizes) {
  const auto req = SweepRequest::make({"adpcm"}, MemSetup::Scratchpad);
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req.value().sizes(), harness::SweepConfig{}.sizes);
  EXPECT_EQ(SweepRequest::make({}, MemSetup::Scratchpad).error().code,
            ErrorCode::InvalidArgument);
  EXPECT_EQ(SweepRequest::make({"adpcm", "nope"}, MemSetup::Scratchpad)
                .error()
                .code,
            ErrorCode::UnknownWorkload);
}

TEST(ApiRequest, EvalDefaultsToPaperSet) {
  const auto req = EvalRequest::make();
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req.value().workloads(), workloads::paper_benchmark_names());
}

TEST(ApiRequest, SimBenchRepeatRange) {
  EXPECT_EQ(SimBenchRequest::make(0).error().code, ErrorCode::OutOfRange);
  EXPECT_EQ(SimBenchRequest::make(api::kMaxRepeat + 1).error().code,
            ErrorCode::OutOfRange);
  EXPECT_TRUE(SimBenchRequest::make(1).ok());
}

TEST(ApiRequest, KeysDistinguishOptions) {
  ExperimentOptions pers;
  pers.with_persistence = true;
  const auto a = PointRequest::make("g721", MemSetup::Cache, 512);
  const auto b = PointRequest::make("g721", MemSetup::Cache, 512, pers);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value().key(), b.value().key());
  EXPECT_EQ(a.value().key(),
            PointRequest::make("g721", MemSetup::Cache, 512).value().key());
}

// ---- Engine execution parity ----------------------------------------------

TEST(ApiEngine, PointMatchesExecutePoint) {
  api::Engine engine;
  for (const MemSetup setup : {MemSetup::Scratchpad, MemSetup::Cache}) {
    const auto result =
        engine.point(PointRequest::make("adpcm", setup, 512).value());
    ASSERT_TRUE(result.ok());
    harness::SweepConfig cfg;
    cfg.setup = setup;
    const auto expected = harness::detail::execute_point(
        *workloads::WorkloadRegistry::instance().benchmark("adpcm"), setup,
        512, cfg);
    expect_points_eq(result.value().point, expected);
  }
}

TEST(ApiEngine, SweepMatchesHarnessRunMatrix) {
  api::Engine engine;
  const auto request =
      SweepRequest::make({"multisort"}, MemSetup::Cache, {64, 256});
  const auto result = engine.sweep(request.value());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().series.size(), 1u);

  harness::SweepConfig cfg;
  cfg.setup = MemSetup::Cache;
  cfg.sizes = {64, 256};
  const auto expected =
      harness::run_matrix(
          {{workloads::WorkloadRegistry::instance().benchmark("multisort").get(),
            cfg}},
          1)
          .front();
  ASSERT_EQ(result.value().series[0].points.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    expect_points_eq(result.value().series[0].points[i], expected[i]);
}

TEST(ApiEngine, EvalRendersIdenticallyToFullEvaluation) {
  api::Engine engine;
  const auto request = EvalRequest::make({"adpcm"}, {64, 128});
  const auto result = engine.eval(request.value());
  ASSERT_TRUE(result.ok());

  // The same evaluation assembled from the two setups' sweeps.
  harness::SweepConfig spm;
  spm.sizes = {64, 128};
  harness::SweepConfig cache = spm;
  cache.setup = MemSetup::Cache;
  const auto wl = workloads::WorkloadRegistry::instance().benchmark("adpcm");
  auto sweeps = harness::run_matrix({{wl.get(), spm}, {wl.get(), cache}}, 1);
  const std::vector<harness::EvaluationResult> expected = {
      {wl, std::move(sweeps[0]), std::move(sweeps[1])}};

  std::ostringstream got, want;
  api::render_eval(result.value(), got);
  harness::render_evaluation(expected, want);
  EXPECT_EQ(want.str(), got.str());

  std::ostringstream got_csv, want_csv;
  api::render_eval(result.value(), got_csv, /*csv=*/true);
  harness::render_evaluation(expected, want_csv, /*csv=*/true);
  EXPECT_EQ(want_csv.str(), got_csv.str());
}

TEST(ApiEngine, ErrorsAreResultsNotExceptions) {
  api::Engine engine;
  // A validated request can still fail at resolution time if the registry
  // vocabulary drifts; simulate with a direct bad name through the wire
  // factory path instead: the factory already refuses, so point() can only
  // be reached with a valid name — assert the factory's typed error.
  const auto bad = PointRequest::make("bogus", MemSetup::Cache, 64);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(std::string(api::to_string(bad.error().code)),
            "unknown_workload");
  EXPECT_NO_THROW({
    const auto ok =
        engine.point(PointRequest::make("adpcm", MemSetup::Cache, 64).value());
    ASSERT_TRUE(ok.ok());
  });
}

// ---- amortization ---------------------------------------------------------

TEST(ApiEngine, ArtifactsAmortizeAcrossRequests) {
  api::Engine engine;
  ASSERT_TRUE(
      engine
          .point(PointRequest::make("adpcm", MemSetup::Scratchpad, 64).value())
          .ok());
  const auto cold = engine.stats();
  // A different size is a different response, but the allocation profile is
  // size-independent and must be served from the session cache.
  ASSERT_TRUE(
      engine
          .point(
              PointRequest::make("adpcm", MemSetup::Scratchpad, 128).value())
          .ok());
  const auto warm = engine.stats();
  EXPECT_EQ(warm.response_hits, cold.response_hits);
  EXPECT_GT(warm.profile_artifacts.hits, cold.profile_artifacts.hits);
  EXPECT_EQ(warm.profile_artifacts.misses, cold.profile_artifacts.misses);
}

TEST(ApiEngine, PlacedRunsAreSharedAcrossRepeatedPoints) {
  // With the response cache off, a repeated point reaches the pipeline and
  // reuses its placed run.
  EngineOptions eopts;
  eopts.cache_responses = false;
  api::Engine engine(eopts);
  const auto point = [&] {
    const auto result = engine.point(
        PointRequest::make("adpcm", MemSetup::Scratchpad, 1024).value());
    EXPECT_TRUE(result.ok());
    return result.value().point;
  };
  const harness::SweepPoint reference = point();
  expect_points_eq(point(), reference);
  EXPECT_EQ(engine.stats().placement_artifacts.misses, 1u);
  EXPECT_EQ(engine.stats().placement_artifacts.hits, 1u);
}

TEST(ApiEngine, IdenticalRequestsServeFromResponseCache) {
  api::Engine engine;
  const auto request = PointRequest::make("adpcm", MemSetup::Cache, 128);
  const auto first = engine.point(request.value());
  const auto second = engine.point(request.value());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  expect_points_eq(first.value().point, second.value().point);
  EXPECT_EQ(engine.stats().response_hits, 1u);
  EXPECT_EQ(engine.stats().requests, 2u);
}

TEST(ApiEngine, ResponseCachingCanBeDisabled) {
  EngineOptions opts;
  opts.cache_responses = false;
  api::Engine engine(opts);
  const auto request = PointRequest::make("adpcm", MemSetup::Cache, 128);
  const auto first = engine.point(request.value());
  const auto second = engine.point(request.value());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  expect_points_eq(first.value().point, second.value().point);
  EXPECT_EQ(engine.stats().response_hits, 0u);
}

// ---- simbench -------------------------------------------------------------

TEST(ApiEngine, SimBenchTimesTheCanonicalRunOfEveryWorkload) {
  api::Engine engine;
  const auto result = engine.simbench(SimBenchRequest::make(1).value());
  ASSERT_TRUE(result.ok());
  const auto& rows = result.value().rows;
  // One row per simbench workload (the paper set plus the generated
  // members), each the canonical image's profiled run.
  ASSERT_EQ(rows.size(), workloads::simbench_names().size());
  for (const auto& row : rows) {
    EXPECT_GT(row.instructions, 0u) << row.benchmark;
    EXPECT_GT(row.instr_per_second, 0.0) << row.benchmark;
    // The layout passes the stack-window proof ...
    EXPECT_TRUE(row.stack_window) << row.benchmark;
    // ... and runs entirely in compiled blocks.
    EXPECT_EQ(row.fallback_instructions, 0u) << row.benchmark;
  }
  EXPECT_GT(result.value().aggregate_ips, 0.0);
  EXPECT_EQ(SimBenchRequest::make(1).value().key(), "simbench|r=1");
}

// ---- wcetbench ---------------------------------------------------------------

TEST(ApiRequest, WcetBenchRepeatRangeAndKeys) {
  EXPECT_EQ(WcetBenchRequest::make(0).error().code, ErrorCode::OutOfRange);
  EXPECT_EQ(WcetBenchRequest::make(api::kMaxRepeat + 1).error().code,
            ErrorCode::OutOfRange);
  ASSERT_TRUE(WcetBenchRequest::make(1).ok());
  EXPECT_EQ(WcetBenchRequest::make(3).value().key(), "wcetbench|r=3");
}

TEST(ApiEngine, WcetBenchMeasuresAllSetupsPerWorkload) {
  api::Engine engine;
  const auto result = engine.wcetbench(WcetBenchRequest::make(1).value());
  ASSERT_TRUE(result.ok());
  const auto& rows = result.value().rows;
  const std::vector<std::string> setups{"spm", "cache", "cache+pers",
                                        "cache-warm"};
  ASSERT_EQ(rows.size(),
            setups.size() * workloads::paper_benchmark_names().size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].setup, setups[i % setups.size()]);
    EXPECT_EQ(rows[i].benchmark, rows[i - i % setups.size()].benchmark);
    EXPECT_EQ(rows[i].analyses, 8u);
    EXPECT_GT(rows[i].analyses_per_second, 0.0);
  }
  EXPECT_GT(result.value().aggregate_aps, 0.0);
}

// ---- response-cache capacity -----------------------------------------------

TEST(ApiEngine, ResponseCacheCapacityEvictsOldResponses) {
  api::EngineOptions opts;
  opts.response_cache_capacity = 2;
  api::Engine engine(opts);
  const auto req = [](uint32_t size) {
    return PointRequest::make("adpcm", MemSetup::Scratchpad, size).value();
  };
  ASSERT_TRUE(engine.point(req(64)).ok());
  ASSERT_TRUE(engine.point(req(128)).ok());
  ASSERT_TRUE(engine.point(req(256)).ok()); // evicts the size-64 response
  EXPECT_GE(engine.stats().response_evictions, 1u);
  // The evicted request re-executes (no hit) but still answers correctly.
  const uint64_t hits_before = engine.stats().response_hits;
  const auto again = engine.point(req(64));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(engine.stats().response_hits, hits_before);
  // A still-resident response is served from cache.
  const auto resident = engine.point(req(256));
  ASSERT_TRUE(resident.ok());
  EXPECT_EQ(engine.stats().response_hits, hits_before + 1);
}

} // namespace
} // namespace spmwcet
