// The generated workload family (src/workloads/generated.h): name grammar,
// typed rejection of every malformed class, determinism, functional
// correctness against the reference interpreter, registry identity — and
// the population parity suite, which runs a corpus of 100 generated
// programs across all five shapes through the real pipeline and asserts
// parity with the reference implementations plus WCET soundness on every
// member (the paper-benchmark parity gates, generalized to programs
// nobody hand-picked). The simulator-tier and artifact-sharing parity
// cases run the paper trio plus a gen:mixed slice.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>

#include "alloc/allocator.h"
#include "api/engine.h"
#include "api/request.h"
#include "harness/artifact_cache.h"
#include "link/layout.h"
#include "minic/codegen.h"
#include "reference/seed_frontend.h"
#include "sim/simulator.h"
#include "wcet/analyzer.h"
#include "wcet/dump.h"
#include "workloads/generated.h"

namespace spmwcet {
namespace {

using workloads::GenParseStatus;
using workloads::GenShape;
using workloads::GenSpec;

TEST(GenName, RoundTripsEveryShapeAndSeed) {
  for (const std::string& shape : workloads::gen_shape_names()) {
    for (const uint32_t seed : {0u, 1u, 42u, 4294967295u}) {
      const std::string name = "gen:" + shape + ":" + std::to_string(seed);
      const workloads::GenParseResult r = workloads::parse_gen_name(name);
      ASSERT_EQ(r.status, GenParseStatus::Ok) << name << ": " << r.message;
      EXPECT_EQ(r.spec.seed, seed) << name;
      EXPECT_EQ(workloads::gen_shape_name(r.spec.shape), shape) << name;
      EXPECT_EQ(workloads::gen_name(r.spec), name);
    }
  }
}

TEST(GenName, RejectsEveryMalformedClass) {
  const auto status = [](const std::string& name) {
    return workloads::parse_gen_name(name).status;
  };
  // Outside the namespace: hand them to the benchmark vocabulary instead.
  EXPECT_EQ(status(""), GenParseStatus::NotGenName);
  EXPECT_EQ(status("g721"), GenParseStatus::NotGenName);
  EXPECT_EQ(status("gently"), GenParseStatus::NotGenName);
  EXPECT_EQ(status("gen"), GenParseStatus::NotGenName);
  // Syntax: field count, empty fields, non-canonical seeds.
  EXPECT_EQ(status("gen:"), GenParseStatus::MalformedSyntax);
  EXPECT_EQ(status("gen:tiny"), GenParseStatus::MalformedSyntax);
  EXPECT_EQ(status("gen:tiny:"), GenParseStatus::MalformedSyntax);
  EXPECT_EQ(status("gen::7"), GenParseStatus::MalformedSyntax);
  EXPECT_EQ(status("gen:tiny:7:8"), GenParseStatus::MalformedSyntax);
  EXPECT_EQ(status("gen:tiny:-1"), GenParseStatus::MalformedSyntax);
  EXPECT_EQ(status("gen:tiny:1x"), GenParseStatus::MalformedSyntax);
  EXPECT_EQ(status("gen:tiny:0x10"), GenParseStatus::MalformedSyntax);
  EXPECT_EQ(status("gen:tiny:01"), GenParseStatus::MalformedSyntax);
  // Shape vocabulary (case-sensitive, exact).
  EXPECT_EQ(status("gen:huge:1"), GenParseStatus::UnknownShape);
  EXPECT_EQ(status("gen:Tiny:1"), GenParseStatus::UnknownShape);
  // Seed range: canonical decimal beyond uint32.
  EXPECT_EQ(status("gen:tiny:4294967296"), GenParseStatus::SeedOutOfRange);
  EXPECT_EQ(status("gen:tiny:99999999999"), GenParseStatus::SeedOutOfRange);
}

TEST(GenRequests, PointRequestMapsFailureClassesToTypedErrors) {
  const auto code =
      [](const std::string& name) -> std::optional<api::ErrorCode> {
    const auto r =
        api::PointRequest::make(name, harness::MemSetup::Scratchpad, 1024);
    if (r.ok()) return std::nullopt;
    return r.error().code;
  };
  EXPECT_EQ(code("gen:tiny:7"), std::nullopt);
  EXPECT_EQ(code("gen:callheavy:1"), std::nullopt);
  EXPECT_EQ(code("gen:huge:1"), api::ErrorCode::UnknownWorkload);
  EXPECT_EQ(code("gen:tiny:01"), api::ErrorCode::InvalidArgument);
  EXPECT_EQ(code("gen:tiny:"), api::ErrorCode::InvalidArgument);
  EXPECT_EQ(code("gen:tiny:4294967296"), api::ErrorCode::OutOfRange);
}

TEST(GenRequests, CorpusRequestValidatesShapeCountAndSeedRange) {
  using harness::MemSetup;
  const auto ok = api::CorpusRequest::make("mixed", 1, 100,
                                           MemSetup::Scratchpad);
  ASSERT_TRUE(ok.ok());
  const std::vector<std::string> names = ok.value().workload_names();
  ASSERT_EQ(names.size(), 100u);
  EXPECT_EQ(names.front(), "gen:mixed:1");
  EXPECT_EQ(names.back(), "gen:mixed:100");

  const auto bad_shape =
      api::CorpusRequest::make("huge", 1, 10, MemSetup::Scratchpad);
  ASSERT_FALSE(bad_shape.ok());
  EXPECT_EQ(bad_shape.error().code, api::ErrorCode::UnknownWorkload);

  const auto zero = api::CorpusRequest::make("mixed", 1, 0,
                                             MemSetup::Scratchpad);
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.error().code, api::ErrorCode::OutOfRange);

  const auto too_many = api::CorpusRequest::make(
      "mixed", 1, api::kMaxCorpusCount + 1, MemSetup::Scratchpad);
  ASSERT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.error().code, api::ErrorCode::OutOfRange);

  // base + count - 1 must stay a uint32 seed.
  const auto overflow =
      api::CorpusRequest::make("mixed", 4294967295u, 2, MemSetup::Scratchpad);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.error().code, api::ErrorCode::OutOfRange);
  const auto edge =
      api::CorpusRequest::make("mixed", 4294967295u, 1, MemSetup::Scratchpad);
  EXPECT_TRUE(edge.ok());

  // Distinct corpora must have distinct response-cache identities.
  const auto other = api::CorpusRequest::make("mixed", 2, 100,
                                              MemSetup::Scratchpad);
  ASSERT_TRUE(other.ok());
  EXPECT_NE(ok.value().key(), other.value().key());
}

TEST(GeneratedProgram, SameSpecIsByteIdenticalPerShape) {
  // Two independent derivations of the same spec must produce the same
  // machine code down to the byte — checked via the disassembly of the
  // linked image, the strongest observable the toolchain exposes.
  for (const std::string& shape : workloads::gen_shape_names()) {
    const GenSpec spec = workloads::parse_gen_name("gen:" + shape + ":7")
                             .spec;
    const auto disasm = [&] {
      const link::Image img =
          link::link_program(minic::compile(workloads::generate_program(spec)));
      std::ostringstream os;
      wcet::disassemble_program(img, os);
      return os.str();
    };
    const std::string first = disasm();
    const std::string second = disasm();
    ASSERT_FALSE(first.empty()) << shape;
    EXPECT_EQ(first, second) << shape;
  }
}

TEST(GeneratedWorkload, SimulatorReproducesInterpreterExpectations) {
  // make_generated packages interpreter-computed expected outputs; the
  // simulated execution of the lowered module must reproduce them exactly
  // (the same validation every harness point applies).
  for (const std::string& shape : workloads::gen_shape_names()) {
    for (const uint32_t seed : {1u, 5u}) {
      const GenSpec spec =
          workloads::parse_gen_name("gen:" + shape + ":" +
                                    std::to_string(seed))
              .spec;
      const workloads::WorkloadInfo wl = workloads::make_generated(spec);
      ASSERT_FALSE(wl.expected.empty()) << wl.name;
      sim::Simulator s(link::link_program(wl.module, {}, {}), {});
      s.run();
      for (const workloads::ExpectedGlobal& g : wl.expected)
        for (std::size_t i = 0; i < g.values.size(); ++i)
          ASSERT_EQ(s.read_global(g.name, static_cast<uint32_t>(i)),
                    g.values[i])
              << wl.name << ": " << g.name << "[" << i << "]";
    }
  }
}

TEST(GeneratedWorkload, RegistryMemoizesUnderTheCanonicalName) {
  const auto a = workloads::cached_generated({11, GenShape::Loopy});
  const auto b =
      workloads::WorkloadRegistry::instance().benchmark("gen:loopy:11");
  EXPECT_EQ(a.get(), b.get()); // one lowering per process, shared
  EXPECT_EQ(a->name, "gen:loopy:11");
  EXPECT_TRUE(workloads::is_known_benchmark("gen:loopy:11"));
  EXPECT_FALSE(workloads::is_known_benchmark("gen:loopy:x"));
}

// The population parity suite: 100 generated programs across all five
// shapes, each run through the real pipeline. Per member:
//   * the block-tier and fast simulators must be field-identical to the
//     seed simulator (SimConfig::fast_path unset);
//   * the pipeline point must be reproduced by the reference path on the
//     same placement: the seed simulator and the seed analyzer front end
//     with from-scratch IPET;
//   * the WCET bound must dominate the simulated execution.
// Every point also validates the member's outputs against the interpreter
// expectations inside execute_point, so functional correctness rides along.
TEST(GeneratedPopulation, ParityAndSoundnessAcross100Programs) {
  struct ShapePlan {
    GenShape shape;
    uint32_t seeds;
  };
  // CallHeavy members are ~10x the paper benchmarks' symbol counts; a few
  // suffice to cover the population-scale allocator and analyzer paths.
  const ShapePlan plan[] = {{GenShape::Tiny, 30},
                            {GenShape::Mixed, 30},
                            {GenShape::Loopy, 20},
                            {GenShape::Branchy, 15},
                            {GenShape::CallHeavy, 5}};
  api::Engine engine;
  int members = 0;
  for (const ShapePlan& p : plan) {
    for (uint32_t seed = 1; seed <= p.seeds; ++seed, ++members) {
      const GenSpec spec{seed, p.shape};
      const std::string name = workloads::gen_name(spec);
      const auto wl = workloads::cached_generated(spec);

      // Simulator three-way parity on the plain image: block-tier and
      // per-instruction fast path against the seed simulator.
      const link::Image img = link::link_program(wl->module, {}, {});
      sim::SimConfig tier_cfg;
      tier_cfg.collect_profile = true;
      sim::SimConfig fast_cfg = tier_cfg;
      fast_cfg.block_tier = false;
      sim::SimConfig legacy_cfg = fast_cfg;
      legacy_cfg.fast_path = false;
      const auto tier = sim::simulate(img, tier_cfg);
      const auto fast = sim::simulate(img, fast_cfg);
      const auto legacy = sim::simulate(img, legacy_cfg);
      ASSERT_EQ(tier.cycles, legacy.cycles) << name;
      ASSERT_EQ(tier.instructions, legacy.instructions) << name;
      ASSERT_TRUE(tier.profile == legacy.profile) << name;
      ASSERT_EQ(fast.cycles, legacy.cycles) << name;
      ASSERT_EQ(fast.instructions, legacy.instructions) << name;
      ASSERT_TRUE(fast.profile == legacy.profile) << name;

      // The pipeline point at one SPM capacity against the reference path
      // on the placement the paper's allocation flow picks.
      constexpr uint32_t kSpm = 512;
      const auto req =
          api::PointRequest::make(name, harness::MemSetup::Scratchpad, kSpm);
      ASSERT_TRUE(req.ok()) << name;
      const auto res = engine.point(req.value());
      ASSERT_TRUE(res.ok()) << name << ": " << res.error().message;
      const harness::SweepPoint pt = res.value().point;
      const auto alloc =
          alloc::allocate_energy_optimal(wl->module, legacy.profile, kSpm);
      link::LinkOptions opts;
      opts.spm_size = kSpm;
      const link::Image placed =
          link::link_program(wl->module, opts, alloc.assignment);
      ASSERT_EQ(pt.sim_cycles, sim::simulate(placed, legacy_cfg).cycles)
          << name;
      ASSERT_EQ(pt.wcet_cycles,
                wcet::analyze_wcet(reference::seed_view(placed), {}).wcet)
          << name;
      ASSERT_EQ(pt.spm_used_bytes, alloc.used_bytes) << name;

      // Soundness: the analyzed bound dominates the simulated execution.
      ASSERT_GE(pt.wcet_cycles, pt.sim_cycles) << name;
    }
  }
  ASSERT_GE(members, 100);
}

/// The paper trio plus a slice of the gen:mixed corpus.
std::vector<std::string> trio_and_mixed_slice() {
  std::vector<std::string> names = workloads::paper_benchmark_names();
  for (uint32_t seed = 1; seed <= 8; ++seed)
    names.push_back("gen:mixed:" + std::to_string(seed));
  return names;
}

void expect_same_run(const sim::SimResult& a, const sim::SimResult& b,
                     const std::string& what) {
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << what;
  EXPECT_EQ(a.cache_misses, b.cache_misses) << what;
  EXPECT_EQ(a.output, b.output) << what;
  EXPECT_TRUE(a.profile == b.profile) << what;
}

// The superblock tier against the per-instruction path below it, on the
// canonical layout and an SPM placement: both runs are field-identical,
// and the tier engaged on exactly one side.
TEST(ModeParity, BlockTierMatchesPerInstructionPathOnTrioAndMixedSlice) {
  for (const std::string& name : trio_and_mixed_slice()) {
    const auto wl = workloads::WorkloadRegistry::instance().benchmark(name);
    const link::Image canonical = link::link_program(wl->module, {}, {});
    sim::SimConfig tier_cfg;
    tier_cfg.collect_profile = true;
    const auto profile = sim::simulate(canonical, tier_cfg).profile;
    link::LinkOptions opts;
    opts.spm_size = 1024;
    const link::Image placed = link::link_program(
        wl->module, opts,
        alloc::allocate_energy_optimal(wl->module, profile, 1024).assignment);
    for (const link::Image* img : {&canonical, &placed}) {
      const std::string what =
          name + (img == &canonical ? " canonical" : " spm1024");
      sim::SimConfig step_cfg = tier_cfg;
      step_cfg.block_tier = false;
      sim::Simulator tier(*img, tier_cfg);
      sim::Simulator step(*img, step_cfg);
      EXPECT_TRUE(tier.block_tier_active()) << what;
      EXPECT_FALSE(step.block_tier_active()) << what;
      expect_same_run(tier.run(), step.run(), what);
    }
  }
}

void expect_same_point(const harness::SweepPoint& a,
                       const harness::SweepPoint& b, const std::string& what) {
  EXPECT_EQ(a.size_bytes, b.size_bytes) << what;
  EXPECT_EQ(a.sim_cycles, b.sim_cycles) << what;
  EXPECT_EQ(a.wcet_cycles, b.wcet_cycles) << what;
  EXPECT_EQ(a.ratio, b.ratio) << what;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << what;
  EXPECT_EQ(a.cache_misses, b.cache_misses) << what;
  EXPECT_EQ(a.spm_used_bytes, b.spm_used_bytes) << what;
  EXPECT_EQ(a.energy_nj, b.energy_nj) << what;
}

// Points that share one ArtifactCache against points that each derive
// everything in a point-local cache, over both setups and every paper
// size: field-identical, and the shared side actually reused placed runs,
// shapes, views and IPET skeletons.
TEST(ModeParity, SharedArtifactsMatchPointLocalOnTrioAndMixedSlice) {
  harness::ArtifactCache shared;
  for (const std::string& name : trio_and_mixed_slice()) {
    const auto wl = workloads::WorkloadRegistry::instance().benchmark(name);
    for (const auto setup :
         {harness::MemSetup::Scratchpad, harness::MemSetup::Cache}) {
      harness::SweepConfig local_cfg;
      local_cfg.setup = setup;
      harness::SweepConfig shared_cfg = local_cfg;
      shared_cfg.artifacts = &shared;
      for (const uint32_t size : local_cfg.sizes)
        expect_same_point(
            harness::detail::execute_point(*wl, setup, size, shared_cfg),
            harness::detail::execute_point(*wl, setup, size, local_cfg),
            name + (setup == harness::MemSetup::Cache ? " cache " : " spm ") +
                std::to_string(size));
    }
  }
  EXPECT_GT(shared.placement_stats().hits, 0u);
  EXPECT_GT(shared.shape_stats().hits, 0u);
  EXPECT_GT(shared.view_stats().hits, 0u);
  EXPECT_GT(shared.ipet_skeleton_stats().hits, 0u);
  EXPECT_EQ(shared.ipet_skeleton_stats().fallbacks, 0u);
}

} // namespace
} // namespace spmwcet
