// Scratchpad-allocation tests: the production DP knapsack against the ILP
// oracle (tests/reference/knapsack.h) — the same choice on every paper and
// generated candidate table, equal optima on random instances — and its
// edge cases, energy-benefit accounting, capacity respect, and the
// end-to-end monotonicity the paper's Figure 3a shows. The WCET-driven
// greedy runs against the cold link-and-analyze price and a fake one that
// pins each of its rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <random>
#include <set>

#include "alloc/allocator.h"
#include "harness/experiment.h"
#include "link/layout.h"
#include "reference/knapsack.h"
#include "sim/simulator.h"
#include "wcet/analyzer.h"
#include "workloads/generated.h"
#include "workloads/workload.h"

namespace spmwcet::alloc {
namespace {

std::vector<MemoryObject> random_objects(unsigned seed, int n) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<uint32_t> size_d(4, 600);
  std::uniform_real_distribution<double> benefit_d(0.0, 5000.0);
  std::vector<MemoryObject> objs;
  for (int i = 0; i < n; ++i) {
    MemoryObject o;
    o.name = "obj" + std::to_string(i);
    o.size_bytes = size_d(rng) & ~3u;
    if (o.size_bytes == 0) o.size_bytes = 4;
    o.benefit_nj = benefit_d(rng);
    objs.push_back(o);
  }
  return objs;
}

class KnapsackEquivalence : public ::testing::TestWithParam<unsigned> {};

// Random tables may hold equal-benefit alternatives, which the two solvers
// may resolve differently: only the optimum is compared.
TEST_P(KnapsackEquivalence, IlpMatchesDp) {
  const auto objs = random_objects(GetParam(), 4 + GetParam() % 10);
  for (const uint32_t cap : {64u, 512u, 2048u}) {
    const KnapsackResult ilp = reference::solve_knapsack_ilp(objs, cap);
    const KnapsackResult dp = solve_knapsack_dp(objs, cap);
    EXPECT_NEAR(ilp.benefit_nj, dp.benefit_nj, 1e-6)
        << "capacity " << cap;
    EXPECT_LE(ilp.used_bytes, cap);
    EXPECT_LE(dp.used_bytes, cap);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, KnapsackEquivalence, ::testing::Range(1u, 21u));

/// The allocation candidates of `name` as a sweep builds them: the profile
/// of one run of the canonical no-assignment image.
std::vector<MemoryObject> candidates_of(const std::string& name) {
  const auto wl = workloads::WorkloadRegistry::instance().benchmark(name);
  sim::SimConfig cfg;
  cfg.collect_profile = true;
  const sim::SimResult run =
      sim::simulate(link::link_program(wl->module, {}, {}), cfg);
  return collect_objects(wl->module, link::lay_out(wl->module).extents(),
                         run.profile, {});
}

/// (size, benefit bits) of each chosen object, sorted: two choices with
/// equal keys differ at most by interchangeable objects.
std::vector<std::pair<uint32_t, uint64_t>> chosen_keys(
    const std::vector<MemoryObject>& objs,
    const std::vector<std::size_t>& chosen) {
  std::vector<std::pair<uint32_t, uint64_t>> keys;
  for (const std::size_t i : chosen)
    keys.emplace_back(objs[i].size_bytes,
                      std::bit_cast<uint64_t>(objs[i].benefit_nj));
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Production allocates with the DP; the paper's ILP is its oracle. On the
// paper trio, gen:mixed:1..64 and 16 seeds of every other generated shape,
// at every paper size, both choose the same objects, bytes and bit-equal
// benefit. The one allowed difference is a tie between interchangeable
// objects (equal size and bit-equal benefit, e.g. two identically used
// generated globals), which the solvers may break either way; the paper
// trio has none. The ILP gets the whole table up to 100 objects; above
// that its branch and bound takes seconds per solve on the zero-benefit
// columns, so it gets the positive-benefit objects the DP considers.
TEST(KnapsackOracle, DpChoosesWhatTheIlpChooses) {
  const std::vector<std::string> trio = {"g721", "multisort", "adpcm"};
  std::vector<std::string> names = trio;
  for (const std::string& shape : workloads::gen_shape_names()) {
    const uint32_t count = shape == "mixed" ? 64 : 16;
    for (uint32_t seed = 1; seed <= count; ++seed)
      names.push_back("gen:" + shape + ":" + std::to_string(seed));
  }
  const uint64_t oracle_before = reference::knapsack_ilp_solves();
  uint64_t compared = 0, ties = 0;
  for (const std::string& name : names) {
    const std::vector<MemoryObject> objs = candidates_of(name);
    std::vector<MemoryObject> table;
    std::vector<std::size_t> index_of; // table index -> objs index
    for (std::size_t i = 0; i < objs.size(); ++i)
      if (objs.size() <= 100 || objs[i].benefit_nj > 0.0) {
        table.push_back(objs[i]);
        index_of.push_back(i);
      }
    const bool paper = std::count(trio.begin(), trio.end(), name) != 0;
    for (const uint32_t size : harness::SweepConfig{}.sizes) {
      const std::string what = name + " @" + std::to_string(size);
      const KnapsackResult ilp = reference::solve_knapsack_ilp(table, size);
      std::vector<std::size_t> ilp_chosen;
      for (const std::size_t k : ilp.chosen) ilp_chosen.push_back(index_of[k]);
      const AllocationResult dp = allocate_energy_optimal(objs, size);
      std::vector<std::string> dp_names, ilp_names;
      for (const MemoryObject& o : dp.chosen) dp_names.push_back(o.name);
      for (const std::size_t i : ilp_chosen) ilp_names.push_back(objs[i].name);
      if (dp_names != ilp_names) {
        ++ties;
        EXPECT_FALSE(paper) << what << ": the paper trio has no ties";
        EXPECT_EQ(chosen_keys(objs, solve_knapsack_dp(objs, size).chosen),
                  chosen_keys(objs, ilp_chosen))
            << what << ": the choices differ beyond interchangeable objects";
      }
      EXPECT_EQ(dp.used_bytes, ilp.used_bytes) << what;
      EXPECT_EQ(std::bit_cast<uint64_t>(dp.benefit_nj),
                std::bit_cast<uint64_t>(ilp.benefit_nj))
          << what << ": " << dp.benefit_nj << " vs " << ilp.benefit_nj;
      ++compared;
    }
  }
  EXPECT_EQ(reference::knapsack_ilp_solves() - oracle_before, compared);
  EXPECT_EQ(compared, names.size() * harness::SweepConfig{}.sizes.size());
  // Ties are rare: nearly every point agrees by name.
  EXPECT_LT(ties * 20, compared) << ties << " ties";
}

TEST(Knapsack, ZeroCapacityChoosesNothing) {
  const auto objs = random_objects(5, 6);
  for (const KnapsackResult& r : {solve_knapsack_dp(objs, 0),
                                  reference::solve_knapsack_ilp(objs, 0)}) {
    EXPECT_TRUE(r.chosen.empty());
    EXPECT_EQ(r.used_bytes, 0u);
    EXPECT_EQ(r.benefit_nj, 0.0);
  }
}

TEST(Knapsack, EverythingFitsTakesEveryPositiveObject) {
  auto objs = random_objects(11, 8);
  objs[3].benefit_nj = 0.0;
  uint32_t total = 0;
  for (const MemoryObject& o : objs) total += o.size_bytes;
  const KnapsackResult r = solve_knapsack_dp(objs, total);
  std::vector<std::size_t> want;
  double benefit = 0.0;
  uint32_t bytes = 0;
  for (std::size_t i = 0; i < objs.size(); ++i)
    if (i != 3) {
      want.push_back(i);
      benefit += objs[i].benefit_nj;
      bytes += objs[i].size_bytes;
    }
  EXPECT_EQ(r.chosen, want);
  EXPECT_EQ(r.benefit_nj, benefit) << "summed in ascending index order";
  EXPECT_EQ(r.used_bytes, bytes);
  EXPECT_EQ(reference::solve_knapsack_ilp(objs, total).chosen, want);
}

TEST(Knapsack, ObjectLargerThanCapacityIsNeverChosen) {
  std::vector<MemoryObject> objs = random_objects(13, 5);
  objs[1].size_bytes = 1024;
  objs[1].benefit_nj = 1e9; // the best object by far, but it cannot fit
  for (const uint32_t cap : {0u, 64u, 1020u}) {
    const KnapsackResult r = solve_knapsack_dp(objs, cap);
    EXPECT_EQ(std::count(r.chosen.begin(), r.chosen.end(), 1u), 0)
        << "capacity " << cap;
    EXPECT_LE(r.used_bytes, cap);
  }
  const KnapsackResult fits = solve_knapsack_dp(objs, 1024);
  EXPECT_EQ(fits.chosen, std::vector<std::size_t>{1});
}

TEST(Knapsack, ZeroBenefitObjectsAreNeverChosen) {
  std::vector<MemoryObject> objs = random_objects(17, 10);
  for (std::size_t i = 0; i < objs.size(); i += 2) objs[i].benefit_nj = 0.0;
  for (const uint32_t cap : {64u, 512u, 2048u, 1u << 20}) {
    const KnapsackResult r = solve_knapsack_dp(objs, cap);
    for (const std::size_t i : r.chosen)
      EXPECT_GT(objs[i].benefit_nj, 0.0) << "capacity " << cap;
    EXPECT_NEAR(r.benefit_nj, reference::solve_knapsack_ilp(objs, cap).benefit_nj,
                1e-6)
        << "capacity " << cap;
  }
}

TEST(Knapsack, BenefitIsMonotoneInCapacity) {
  const auto objs = random_objects(7, 12);
  double prev = -1.0;
  for (const uint32_t cap : {64u, 128u, 256u, 512u, 1024u, 4096u}) {
    const KnapsackResult r = solve_knapsack_dp(objs, cap);
    EXPECT_GE(r.benefit_nj, prev);
    prev = r.benefit_nj;
  }
}

TEST(EnergyModel, BenefitsArePositiveAndWidthOrdered) {
  const energy::EnergyModel em;
  EXPECT_GT(em.spm_benefit_nj(1), 0.0);
  EXPECT_GT(em.spm_benefit_nj(2), 0.0);
  EXPECT_GT(em.spm_benefit_nj(4), em.spm_benefit_nj(2))
      << "32-bit main-memory accesses must be the most expensive";
}

TEST(CollectObjects, CoversAllFunctionsAndGlobals) {
  const auto wl = workloads::make_adpcm(64);
  const link::Image img = link::link_program(wl.module, {}, {});
  sim::SimConfig cfg;
  cfg.collect_profile = true;
  sim::Simulator s(img, cfg);
  const auto run = s.run();
  const auto objs = collect_objects(
      wl.module, link::lay_out(wl.module).extents(), run.profile, {});
  EXPECT_EQ(objs.size(),
            wl.module.functions.size() + wl.module.globals.size());
  // Hot objects must have nonzero profiled benefit.
  for (const auto& o : objs) {
    if (o.name == "adpcm_coder" || o.name == "step_table") {
      EXPECT_GT(o.benefit_nj, 0.0) << o.name;
    }
    EXPECT_EQ(o.size_bytes % 4, 0u) << o.name << " size must be padded";
  }
}

TEST(Allocator, RespectsCapacityEndToEnd) {
  const auto wl = workloads::make_adpcm(64);
  const link::Image img = link::link_program(wl.module, {}, {});
  sim::SimConfig cfg;
  cfg.collect_profile = true;
  sim::Simulator s(img, cfg);
  const auto run = s.run();
  for (const uint32_t cap : {64u, 256u, 1024u, 4096u}) {
    const auto alloc = allocate_energy_optimal(wl.module, run.profile, cap);
    EXPECT_LE(alloc.used_bytes, cap);
    // Relink must succeed with the chosen assignment.
    link::LinkOptions opts;
    opts.spm_size = cap;
    EXPECT_NO_THROW(link::link_program(wl.module, opts, alloc.assignment));
  }
}

TEST(Allocator, LargerSpmNeverHurtsSimulatedTime) {
  const auto wl = workloads::make_adpcm(64);
  uint64_t prev = UINT64_MAX;
  for (const uint32_t cap : {64u, 256u, 1024u, 4096u, 16384u}) {
    const link::Image base = link::link_program(
        wl.module, link::LinkOptions{.spm_size = cap}, {});
    sim::SimConfig pcfg;
    pcfg.collect_profile = true;
    sim::Simulator profiler(base, pcfg);
    const auto profile_run = profiler.run();
    const auto alloc =
        allocate_energy_optimal(wl.module, profile_run.profile, cap);
    const link::Image img = link::link_program(
        wl.module, link::LinkOptions{.spm_size = cap}, alloc.assignment);
    const auto run = sim::simulate(img, {});
    EXPECT_LE(run.cycles, prev) << "capacity " << cap;
    prev = run.cycles;
  }
}

/// The cold trial price: link the trial at the capacity and analyze the
/// image from scratch (the harness answers the same from its placement
/// artifacts).
std::function<uint64_t(const link::SpmAssignment&)>
cold_wcet_of(const minic::ObjModule& mod, uint32_t cap) {
  return [&mod, cap](const link::SpmAssignment& trial) {
    return wcet::analyze_wcet(
               link::link_program(mod, link::LinkOptions{.spm_size = cap},
                                  trial))
        .wcet;
  };
}

TEST(Allocator, WcetDrivenBeatsOrMatchesEnergyDrivenOnWcet) {
  const auto wl = workloads::make_bubble_sort(16, workloads::SortInput::Random);
  const uint32_t cap = 512;

  // Energy-driven.
  const link::Image base = link::link_program(
      wl.module, link::LinkOptions{.spm_size = cap}, {});
  sim::SimConfig pcfg;
  pcfg.collect_profile = true;
  sim::Simulator profiler(base, pcfg);
  const auto profile_run = profiler.run();
  const auto ealloc =
      allocate_energy_optimal(wl.module, profile_run.profile, cap);
  const auto wcet_of = cold_wcet_of(wl.module, cap);

  // WCET-driven greedy over the same candidate table.
  const auto walloc = allocate_wcet_driven(
      collect_objects(wl.module, link::lay_out(wl.module).extents(),
                      profile_run.profile, {}),
      cap, wcet_of);

  EXPECT_LE(wcet_of(walloc.assignment), wcet_of(ealloc.assignment));
}

TEST(Allocator, WcetDrivenStopsWithinCapacity) {
  const auto wl = workloads::make_bubble_sort(12, workloads::SortInput::Random);
  const auto alloc = allocate_wcet_driven(
      collect_objects(wl.module, link::lay_out(wl.module).extents(), {}, {}),
      256, cold_wcet_of(wl.module, 256));
  EXPECT_LE(alloc.used_bytes, 256u);
}

TEST(Allocator, WcetDrivenGreedyFollowsItsRules) {
  // A fake price: each placed object takes its gain off a 1000-cycle bound,
  // and any trial placing "boom" is rejected as an overflowing link.
  struct Row {
    const char* name;
    bool is_function;
    uint32_t size;
    uint64_t gain;
  };
  const std::vector<Row> rows = {
      {"big", true, 16, 32},     // 2 cycles/byte, the largest gain but one
      {"dense", false, 4, 12},   // 3 cycles/byte: chosen first
      {"tie_a", true, 8, 8},     // 1 cycle/byte ...
      {"tie_b", false, 8, 8},    // ... the same: the lower index goes first
      {"boom", true, 4, 100},    // every trial throws ProgramError
      {"flat", false, 8, 0},     // never improves the bound
      {"slack", true, 45, 1000}, // 45 + 4 bytes of slack never fit in 48
  };
  constexpr uint32_t kCapacity = 48;
  std::vector<MemoryObject> objects;
  for (const Row& r : rows) {
    MemoryObject o;
    o.name = r.name;
    o.is_function = r.is_function;
    o.size_bytes = r.size;
    objects.push_back(o);
  }
  std::vector<link::SpmAssignment> trials;
  const auto wcet_of = [&](const link::SpmAssignment& a) -> uint64_t {
    trials.push_back(a);
    uint64_t wcet = 1000;
    for (const Row& r : rows)
      if ((r.is_function ? a.functions : a.globals).count(r.name) != 0) {
        if (std::string(r.name) == "boom")
          throw ProgramError("fake: scratchpad capacity exceeded");
        wcet -= r.gain;
      }
    return wcet;
  };

  const AllocationResult alloc =
      allocate_wcet_driven(objects, kCapacity, wcet_of);

  std::vector<std::string> chosen;
  for (const MemoryObject& o : alloc.chosen) chosen.push_back(o.name);
  EXPECT_EQ(chosen, (std::vector<std::string>{"dense", "big", "tie_a",
                                              "tie_b"}));
  EXPECT_EQ(alloc.assignment.functions,
            (std::set<std::string>{"big", "tie_a"}));
  EXPECT_EQ(alloc.assignment.globals,
            (std::set<std::string>{"dense", "tie_b"}));
  EXPECT_EQ(alloc.used_bytes, 36u);

  // The bare program, then each round's untaken objects that fit with the
  // slack: 6 + 5 + 4 + 3, and a last round of 2 that brings no improvement.
  // With 36 bytes used, "flat" (36 + 8 + 4 = 48) is still tried; "slack"
  // never is.
  ASSERT_EQ(trials.size(), 1u + 6 + 5 + 4 + 3 + 2);
  EXPECT_EQ(trials.front(), link::SpmAssignment{});
  EXPECT_EQ(trials.back().functions,
            (std::set<std::string>{"big", "tie_a"}));
  EXPECT_EQ(trials.back().globals,
            (std::set<std::string>{"dense", "flat", "tie_b"}));
  for (const link::SpmAssignment& t : trials)
    EXPECT_EQ(t.functions.count("slack"), 0u);
}

} // namespace
} // namespace spmwcet::alloc
