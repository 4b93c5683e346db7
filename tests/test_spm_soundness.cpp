// Scratchpad soundness matrix as a population property: for generated
// programs of every shape, the analyzed WCET bound must dominate the
// simulated (typical-input) cycles at every paper scratchpad size, under
// the energy-optimal allocator and the WCET-driven greedy ablation.
// Every point relinks its placement, simulates it, and times its blocks
// from the memory facts resolved for that image — the SPM half of the
// soundness matrix test_cache_soundness covers for caches.
#include <gtest/gtest.h>

#include "harness/artifact_cache.h"
#include "harness/sweep_runner.h"
#include "workloads/generated.h"

namespace spmwcet {
namespace {

/// Whether program `seed` of `shape` also runs the WCET-driven allocator.
/// That greedy re-links and re-analyzes every candidate object at every
/// step, so its cost grows with the square of the object count: a
/// gen:callheavy member (~400 objects) takes 10-40 s over the ladder. That
/// shape keeps one member (seed 2, the cheapest of the first three); the
/// others keep four.
bool runs_wcet_driven(const std::string& shape, uint32_t seed) {
  return shape == "callheavy" ? seed == 2 : seed <= 4;
}

TEST(SpmSoundness, WcetDominatesSimulationAcrossTheScratchpadLadder) {
  constexpr uint32_t kProgramsPerShape = 8;
  std::size_t checked = 0;
  std::size_t expected = 0;
  for (const std::string& shape : workloads::gen_shape_names())
    for (uint32_t seed = 1; seed <= kProgramsPerShape; ++seed) {
      const std::string name = "gen:" + shape + ":" + std::to_string(seed);
      const auto wl = workloads::WorkloadRegistry::instance().benchmark(name);
      // One batch cache per program: one profile and one shape serve both
      // allocators at every size.
      harness::ArtifactCache artifacts;
      std::vector<harness::MatrixRequest> requests;
      for (const bool wcet_driven : {false, true}) {
        if (wcet_driven && !runs_wcet_driven(shape, seed)) continue;
        harness::SweepConfig cfg;
        cfg.setup = harness::MemSetup::Scratchpad;
        cfg.wcet_driven_alloc = wcet_driven;
        cfg.artifacts = &artifacts;
        requests.push_back({wl.get(), cfg});
        expected += cfg.sizes.size();
      }
      const auto sweeps = harness::run_matrix(requests, 2);
      for (std::size_t r = 0; r < requests.size(); ++r) {
        const harness::SweepConfig& cfg = requests[r].config;
        for (const harness::SweepPoint& pt : sweeps[r]) {
          ASSERT_GE(pt.wcet_cycles, pt.sim_cycles)
              << name << " spm " << pt.size_bytes
              << (cfg.wcet_driven_alloc ? " wcet-driven" : " energy");
          ++checked;
        }
      }
    }
  // Energy allocator: 5 shapes x 8 programs x 8 paper sizes; WCET-driven:
  // 4 programs of each shape but callheavy's 1, x 8 sizes.
  EXPECT_EQ(checked, expected);
  EXPECT_EQ(expected, std::size_t{(5 * kProgramsPerShape + 4 * 4 + 1) * 8});
}

} // namespace
} // namespace spmwcet
