// Calibration lock for the energy model against the paper's Table 1
// (AT91EB01-like board: memory access cycles, Steinke-style per-access
// energies). The constants themselves are representative rather than
// measured, so they are pinned with tolerances: the *ratios* are what drive
// the knapsack allocation and the paper's conclusions, and a silent change
// to any of them would skew every energy column in the evaluation.
#include <gtest/gtest.h>

#include "energy/energy_model.h"
#include "harness/experiment.h"
#include "isa/timing.h"
#include "workloads/workload.h"

namespace spmwcet {
namespace {

TEST(EnergyModel, Table1MemoryTimingIsExact) {
  // Paper Table 1 cycle counts — shared verbatim by simulator and analyzer,
  // so these are exact, not toleranced.
  EXPECT_EQ(isa::MemTiming::main_memory(1), 2u);
  EXPECT_EQ(isa::MemTiming::main_memory(2), 2u);
  EXPECT_EQ(isa::MemTiming::main_memory(4), 4u);
  EXPECT_EQ(isa::MemTiming::scratchpad(), 1u);
  EXPECT_EQ(isa::MemTiming::cache_hit(), 1u);
  // Miss: delivery + line fill of four 32-bit words without burst.
  EXPECT_EQ(isa::MemTiming::cache_miss(16), 17u);
}

TEST(EnergyModel, Table1EnergyConstantsAreLocked) {
  const energy::EnergyModel em;
  // Absolute values, pinned to the calibrated board numbers with a ±2%
  // band; retune the table and this test together if recalibrating.
  EXPECT_NEAR(em.cpu_cycle_nj, 0.9, 0.02 * 0.9);
  EXPECT_NEAR(em.main_8_nj, 15.5, 0.02 * 15.5);
  EXPECT_NEAR(em.main_16_nj, 24.5, 0.02 * 24.5);
  EXPECT_NEAR(em.main_32_nj, 49.3, 0.02 * 49.3);
  EXPECT_NEAR(em.spm_nj, 1.2, 0.02 * 1.2);
  EXPECT_NEAR(em.cache_hit_nj, 2.4, 0.02 * 2.4);
  // A miss pays the tag/array touch plus a full 4-word line fill.
  EXPECT_NEAR(em.cache_miss_nj, em.cache_hit_nj + 4 * em.main_32_nj, 1e-9);
}

TEST(EnergyModel, Table1RatiosDriveTheAllocation) {
  const energy::EnergyModel em;
  // The scratchpad costs roughly 1/20th of a 16-bit main-memory access.
  EXPECT_GT(em.main_16_nj / em.spm_nj, 18.0);
  EXPECT_LT(em.main_16_nj / em.spm_nj, 22.0);
  // A 32-bit access pays for two 16-bit bus transfers (within 5%).
  EXPECT_NEAR(em.main_32_nj, 2.0 * em.main_16_nj, 0.05 * em.main_32_nj);
  // Wider accesses cost strictly more in main memory; the SPM is flat.
  EXPECT_LT(em.main_8_nj, em.main_16_nj);
  EXPECT_LT(em.main_16_nj, em.main_32_nj);
  EXPECT_EQ(em.access_nj(isa::MemClass::Scratchpad, 1),
            em.access_nj(isa::MemClass::Scratchpad, 4));
}

TEST(EnergyModel, SpmBenefitIsPositiveAndMonotoneInWidth) {
  const energy::EnergyModel em;
  EXPECT_GT(em.spm_benefit_nj(1), 0.0);
  EXPECT_LT(em.spm_benefit_nj(1), em.spm_benefit_nj(2));
  EXPECT_LT(em.spm_benefit_nj(2), em.spm_benefit_nj(4));
}

TEST(EnergyModel, CachePointEnergyMatchesTheModelEndToEnd) {
  // Regression against the estimate the harness publishes: the cache-branch
  // energy must equal cycles·cpu + hits·hit + misses·miss exactly.
  const auto wl = workloads::make_adpcm(64);
  harness::SweepConfig cfg;
  cfg.setup = harness::MemSetup::Cache;
  const auto pt = harness::detail::execute_point(wl, harness::MemSetup::Cache, 512, cfg);

  const energy::EnergyModel em;
  const double expected =
      static_cast<double>(pt.sim_cycles) * em.cpu_cycle_nj +
      static_cast<double>(pt.cache_hits) * em.cache_hit_nj +
      static_cast<double>(pt.cache_misses) * em.cache_miss_nj;
  EXPECT_NEAR(pt.energy_nj, expected, 1e-6);
}

TEST(EnergyModel, SpmAllocationReducesEnergyMonotonically) {
  // The energy knapsack optimizes exactly this model, so growing the SPM
  // must never increase the estimated energy.
  const auto wl = workloads::make_adpcm(64);
  harness::SweepConfig cfg;
  cfg.setup = harness::MemSetup::Scratchpad;
  double prev = -1.0;
  for (const uint32_t size : {128u, 512u, 2048u}) {
    const auto pt =
        harness::detail::execute_point(wl, harness::MemSetup::Scratchpad, size, cfg);
    EXPECT_GT(pt.energy_nj, 0.0);
    if (prev >= 0.0) EXPECT_LE(pt.energy_nj, prev);
    prev = pt.energy_nj;
  }
}

} // namespace
} // namespace spmwcet
