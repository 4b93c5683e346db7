// Cache soundness matrix as a population property: for generated programs
// of every shape, the analyzed WCET bound must dominate the simulated
// (typical-input) cycles at every paper cache size, associativity 1/2/4,
// unified and instruction-only, with persistence analysis on and off.
// The simulation side of each point is a reuse-table lookup, so the matrix
// costs one observed run per program plus the analyses. The same matrix
// pins the per-site classification against the reference map analysis
// (tests/reference/) and the skeleton IPET against the from-scratch solve.
#include <gtest/gtest.h>

#include <memory>

#include "harness/artifact_cache.h"
#include "harness/sweep_runner.h"
#include "link/layout.h"
#include "program/decoded_image.h"
#include "reference/map_cache_analysis.h"
#include "sim/simulator.h"
#include "support/diag.h"
#include "wcet/analyzer.h"
#include "wcet/cache_analysis.h"
#include "wcet/frontend.h"
#include "wcet/ipet.h"
#include "workloads/generated.h"

namespace spmwcet {
namespace {

TEST(CacheSoundness, WcetDominatesSimulationAcrossTheCacheMatrix) {
  constexpr uint32_t kProgramsPerShape = 8;
  std::size_t checked = 0;
  for (const std::string& shape : workloads::gen_shape_names())
    for (uint32_t seed = 1; seed <= kProgramsPerShape; ++seed) {
      const std::string name = "gen:" + shape + ":" + std::to_string(seed);
      const auto wl = workloads::WorkloadRegistry::instance().benchmark(name);
      // One batch cache per program: one observed run, one bound view and
      // one IPET skeleton store serve all of its configurations.
      harness::ArtifactCache artifacts;
      std::vector<harness::MatrixRequest> requests;
      for (const uint32_t assoc : {1u, 2u, 4u})
        for (const bool unified : {true, false})
          for (const bool persistence : {false, true}) {
            harness::SweepConfig cfg;
            cfg.setup = harness::MemSetup::Cache;
            cfg.cache_assoc = assoc;
            cfg.cache_unified = unified;
            cfg.with_persistence = persistence;
            cfg.artifacts = &artifacts;
            requests.push_back({wl.get(), cfg});
          }
      const auto sweeps = harness::run_matrix(requests, 2);
      for (std::size_t r = 0; r < requests.size(); ++r) {
        const harness::SweepConfig& cfg = requests[r].config;
        for (const harness::SweepPoint& pt : sweeps[r]) {
          ASSERT_GE(pt.wcet_cycles, pt.sim_cycles)
              << name << " size " << pt.size_bytes << " assoc "
              << cfg.cache_assoc << (cfg.cache_unified ? " unified" : " icache")
              << (cfg.with_persistence ? " persistence" : "");
          ++checked;
        }
      }
    }
  // 5 shapes x 8 programs x 12 configurations x 8 paper sizes.
  EXPECT_EQ(checked, std::size_t{5 * kProgramsPerShape * 12 * 8});
}

TEST(CacheSoundness, EveryStackFitsTheAnalysisStackWindow) {
  // The cache analysis assumes every stack access lies within
  // wcet::kAnalysisStackBytes below the initial stack pointer. Linked with a
  // stack region of exactly that size, a deeper access is unmapped and
  // traps, so the paper trio and every program of the matrix must run
  // clean. A 16-byte region makes each of them trap: the probe can fail.
  auto programs = workloads::cached_paper_benchmarks();
  for (const std::string& shape : workloads::gen_shape_names())
    for (uint32_t seed = 1; seed <= 8; ++seed)
      programs.push_back(workloads::WorkloadRegistry::instance().benchmark(
          "gen:" + shape + ":" + std::to_string(seed)));
  for (const auto& wl : programs) {
    link::LinkOptions opts;
    opts.stack_reserve = wcet::kAnalysisStackBytes;
    EXPECT_NO_THROW(sim::simulate(link::link_program(wl->module, opts, {})))
        << wl->name;
    opts.stack_reserve = 16;
    EXPECT_THROW(sim::simulate(link::link_program(wl->module, opts, {})),
                 SimulationError)
        << wl->name;
  }
}

TEST(CacheSoundness, PerSiteClassificationMatchesSeedAcrossTheMatrix) {
  // Over the same matrix, the flat analysis' per-site outcome bytes must be
  // the reference map analysis' address sets brought to per-site form
  // (to_sites), and the WcetReport solved through the IPET skeletons must
  // equal the one solved from scratch on the same bound view.
  constexpr uint32_t kProgramsPerShape = 8;
  std::size_t checked = 0, persistent = 0;
  const uint64_t map_runs = reference::map_analysis_runs();
  wcet::IpetCacheStats skeletons;
  for (const std::string& shape : workloads::gen_shape_names())
    for (uint32_t seed = 1; seed <= kProgramsPerShape; ++seed) {
      const std::string name = "gen:" + shape + ":" + std::to_string(seed);
      const auto wl = workloads::WorkloadRegistry::instance().benchmark(name);
      const link::Image img = link::link_program(wl->module, {}, {});
      const program::DecodedImage dec(img);
      const wcet::ProgramView view =
          wcet::bind_view(std::make_shared<const wcet::ProgramShape>(
                              wcet::build_shape(img, dec)),
                          img, dec);
      const wcet::IpetCache ipet;
      for (const uint32_t size : harness::SweepConfig{}.sizes)
        for (const uint32_t assoc : {1u, 2u, 4u})
          for (const bool unified : {true, false})
            for (const bool pers : {false, true}) {
              const std::string what =
                  name + " size " + std::to_string(size) + " assoc " +
                  std::to_string(assoc) + (unified ? " unified" : " icache") +
                  (pers ? " persistence" : "");
              wcet::CacheAnalysisConfig ccfg;
              ccfg.cache.size_bytes = size;
              ccfg.cache.assoc = assoc;
              ccfg.cache.unified = unified;
              ccfg.with_persistence = pers;
              const wcet::SiteClassification flat =
                  wcet::analyze_cache_flat(img, view.cfgs, view.root, ccfg);
              const wcet::SiteClassification seed_sites = reference::to_sites(
                  view.cfgs,
                  reference::analyze_cache(img, view.cfgs, view.root, ccfg));
              ASSERT_EQ(flat.sites, seed_sites.sites) << what;
              ASSERT_EQ(flat.persistent_penalty_lines,
                        seed_sites.persistent_penalty_lines)
                  << what;
              persistent += !flat.persistent_penalty_lines.empty();

              wcet::AnalyzerConfig acfg;
              acfg.cache = ccfg.cache;
              acfg.with_persistence = pers;
              acfg.ipet_cache = &ipet;
              const wcet::WcetReport ir = wcet::analyze_wcet(view, acfg);
              acfg.ipet_cache = nullptr; // solve_ipet, same view
              const wcet::WcetReport sd = wcet::analyze_wcet(view, acfg);
              ASSERT_EQ(ir.fetch_sites, sd.fetch_sites) << what;
              ASSERT_EQ(ir.fetch_always_hit, sd.fetch_always_hit) << what;
              ASSERT_EQ(ir.load_sites, sd.load_sites) << what;
              ASSERT_EQ(ir.load_always_hit, sd.load_always_hit) << what;
              ASSERT_EQ(ir.persistent_sites, sd.persistent_sites) << what;
              ASSERT_EQ(ir.persistence_penalty_cycles,
                        sd.persistence_penalty_cycles)
                  << what;
              ASSERT_EQ(ir.wcet, sd.wcet) << what;
              ++checked;
            }
      const wcet::IpetCacheStats s = ipet.stats();
      skeletons.hits += s.hits;
      skeletons.fallbacks += s.fallbacks;
    }
  // 5 shapes x 8 programs x 8 paper sizes x 12 configurations.
  EXPECT_EQ(checked, std::size_t{5 * kProgramsPerShape * 8 * 12});
  EXPECT_GT(persistent, 0u); // the persistent outcome is exercised
  // Both sides of each comparison ran.
  EXPECT_EQ(reference::map_analysis_runs() - map_runs, checked);
  EXPECT_GT(skeletons.hits, 0u);
  EXPECT_EQ(skeletons.fallbacks, 0u);
}

} // namespace
} // namespace spmwcet
