// Cache soundness matrix as a population property: for generated programs
// of every shape, the analyzed WCET bound must dominate the simulated
// (typical-input) cycles at every paper cache size, associativity 1/2/4,
// unified and instruction-only, with persistence analysis on and off.
// The simulation side of each point is a reuse-table lookup, so the matrix
// costs one observed run per program plus the analyses.
#include <gtest/gtest.h>

#include "harness/artifact_cache.h"
#include "harness/sweep_runner.h"
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

} // namespace
} // namespace spmwcet
