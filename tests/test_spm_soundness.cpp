// Scratchpad soundness matrix as a population property: for generated
// programs of every shape, the analyzed WCET bound must dominate the
// typical-input cycles at every paper scratchpad size, under the
// energy-optimal allocator and the WCET-driven greedy ablation. Every point
// prices its placement from the workload's canonical run and times its
// blocks from the memory facts resolved for the relinked image — the SPM
// half of the soundness matrix test_cache_soundness covers for caches.
//
// The WCET-driven greedy prices every trial as a placed point, so its
// sweeps cover every program but callheavy's, which keep one member.
//
// The oracles: on the paper trio and a subset of that matrix, every point's
// choice is recomputed, the WCET-driven one by the greedy over the cold
// price (link the trial, decode it, bind the placed image, analyze with
// from-scratch IPET), and every distinct chosen placement is linked,
// simulated and validated; the priced cycles and energy must equal the
// simulation's bit for bit. The placements production priced must be
// exactly the cold greedy's linked trials and the energy choices. Each of
// those links is also the oracle of production's bind from the relocatable
// program (wcet::bind_placement): the bound view's per-site memory facts,
// its site table and its report equal the placed image's, its scratchpad
// extent equals the link's, and a placement the link refuses fails the
// address assignment with the link's own message. The bound placements are
// exactly the priced ones.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <set>

#include "alloc/allocator.h"
#include "energy/energy_model.h"
#include "harness/artifact_cache.h"
#include "harness/sweep_runner.h"
#include "link/layout.h"
#include "program/decoded_image.h"
#include "sim/simulator.h"
#include "support/thread_pool.h"
#include "view_equality.h"
#include "wcet/analyzer.h"
#include "wcet/ipet.h"
#include "workloads/generated.h"

namespace spmwcet {
namespace {

/// Whether program `seed` of `shape` also runs the WCET-driven allocator.
/// Its trials cost one analysis per distinct placement, but their number
/// grows with the square of the object count: a gen:callheavy member (~400
/// objects) still takes seconds over the ladder, so that shape keeps one
/// member (seed 2, the cheapest of the first three).
bool runs_wcet_driven(const std::string& shape, uint32_t seed) {
  return shape != "callheavy" || seed == 2;
}

/// Whether the program's choices also go through the oracles. The cold
/// greedy re-links and re-analyzes from scratch every trial of every size,
/// ~5x production's cost on gen:callheavy:2, so the others keep four members.
bool runs_oracle(const std::string& shape, uint32_t seed) {
  return shape == "callheavy" ? seed == 2 : seed <= 4;
}

/// The placed-image oracle of production's bind, over one program's
/// placements (shared by the threads of the cold greedy).
class BindOracle {
public:
  BindOracle(const workloads::WorkloadInfo& wl,
             harness::ArtifactCache& artifacts)
      : wl_(wl), record_(harness::canonical_image(wl, artifacts)),
        relocatable_(harness::relocatable_program(wl, artifacts)),
        ipet_(artifacts.ipet(wl)) {}

  /// Links `assignment` at `opts`, holding the address assignment to the
  /// link's error when the link refuses it.
  link::Image link(const link::LinkOptions& opts,
                   const link::SpmAssignment& assignment,
                   const std::string& what) const {
    try {
      return link::link_program(wl_.module, opts, assignment);
    } catch (const ProgramError& e) {
      try {
        (void)link::assign_addresses(wl_.module, record_->extents, opts,
                                     assignment);
        ADD_FAILURE() << what << ": the address assignment accepted it";
      } catch (const ProgramError& assigned) {
        EXPECT_STREQ(assigned.what(), e.what()) << what;
      }
      throw;
    }
  }

  /// The cold WCET of the linked placement `img` (decode, bind, analyze
  /// with from-scratch IPET); production's bind of the same placement must
  /// agree with it in every memory fact, site and report field.
  uint64_t cold_wcet(const link::LinkOptions& opts,
                     const link::SpmAssignment& assignment,
                     const link::Image& img, const std::string& what) {
    const program::DecodedImage dec(img);
    const wcet::ProgramView oracle =
        wcet::bind_view(relocatable_->canonical->shape, img, dec);
    const wcet::WcetReport cold = wcet::analyze_wcet(oracle, {});

    const link::AddressMap addrs =
        link::assign_addresses(wl_.module, record_->extents, opts, assignment);
    EXPECT_EQ(addrs.spm_extent, img.spm_extent) << what;
    const wcet::PlacementBinding binding = wcet::bind_placement(
        *relocatable_, wl_.module, record_->extents, opts, addrs);
    std::size_t sites = 0;
    test::expect_same_view(binding.view, oracle, what, sites);
    wcet::AnalyzerConfig acfg;
    acfg.ipet_cache = ipet_.get();
    EXPECT_TRUE(wcet::analyze_wcet(binding.view, acfg) == cold) << what;
    compared_.fetch_add(1, std::memory_order_relaxed);
    sites_.fetch_add(sites, std::memory_order_relaxed);
    const std::lock_guard lock(mu_);
    bound_.insert(assignment);
    return cold.wcet;
  }

  /// Binds compared, their sites, and the distinct placements among them.
  std::size_t compared() const { return compared_.load(); }
  std::size_t sites() const { return sites_.load(); }
  const std::set<link::SpmAssignment>& bound() const { return bound_; }

private:
  const workloads::WorkloadInfo& wl_;
  std::shared_ptr<const harness::CanonicalImage> record_;
  std::shared_ptr<const wcet::RelocatableProgram> relocatable_;
  std::shared_ptr<const wcet::IpetCache> ipet_;
  std::atomic<std::size_t> compared_{0};
  std::atomic<std::size_t> sites_{0};
  std::mutex mu_;
  std::set<link::SpmAssignment> bound_;
};

/// The cold price of one greedy trial at capacity `size`, recording each
/// trial that linked in `linked`.
std::function<uint64_t(const link::SpmAssignment&)>
cold_wcet_of(uint32_t size, BindOracle& oracle,
             std::set<link::SpmAssignment>& linked, const std::string& what) {
  return [size, &oracle, &linked, what](const link::SpmAssignment& trial) {
    link::LinkOptions opts;
    opts.spm_size = size;
    const uint64_t wcet =
        oracle.cold_wcet(opts, trial, oracle.link(opts, trial, what), what);
    linked.insert(trial);
    return wcet;
  };
}

/// The energy estimate of a simulated run from its own profile: every
/// profiled access is charged by the memory class its symbol landed in, and
/// stack and anonymous traffic is main memory. price_placement must equal
/// it on the placed image's run, term for term.
double simulated_energy(const link::Image& img, const sim::SimResult& run) {
  const energy::EnergyModel em;
  double nj = static_cast<double>(run.cycles) * em.cpu_cycle_nj;
  auto charge = [&](const sim::AccessCounts& c, isa::MemClass cls) {
    nj += static_cast<double>(c.fetch) * em.access_nj(cls, 2);
    for (int w = 0; w < 3; ++w)
      nj += static_cast<double>(c.load[w] + c.store[w]) *
            em.access_nj(cls, 1u << w);
  };
  for (const auto& [name, counts] : run.profile.symbols) {
    const link::Symbol* sym = img.find_symbol(name);
    charge(counts, sym != nullptr ? img.regions.classify(sym->addr)
                                  : isa::MemClass::MainMemory);
  }
  charge(run.profile.stack, isa::MemClass::MainMemory);
  charge(run.profile.other, isa::MemClass::MainMemory);
  return nj;
}

/// What the placed image's own simulation gives for one placement.
struct PlacedSimulation {
  uint64_t cycles = 0;
  double energy_nj = 0.0;
};

/// Links `assignment` at capacity `size`, simulates it, validates its
/// outputs, and checks that only latencies moved: the instruction count,
/// the OUT stream and the access profile are the canonical run's. The link
/// is also the oracle of the placement's bind.
PlacedSimulation simulate_placement(const workloads::WorkloadInfo& wl,
                                    uint32_t size,
                                    const link::SpmAssignment& assignment,
                                    const sim::SimResult& canonical,
                                    BindOracle& oracle,
                                    const std::string& what) {
  link::LinkOptions opts;
  opts.spm_size = size;
  const link::Image img = oracle.link(opts, assignment, what);
  (void)oracle.cold_wcet(opts, assignment, img, what);
  sim::SimConfig scfg;
  scfg.collect_profile = true;
  sim::Simulator s(img, scfg);
  const sim::SimResult run = s.run();
  for (const auto& exp : wl.expected)
    for (std::size_t i = 0; i < exp.values.size(); ++i)
      EXPECT_EQ(s.read_global(exp.name, static_cast<uint32_t>(i)),
                exp.values[i])
          << what << ": " << exp.name << "[" << i << "]";
  EXPECT_EQ(run.instructions, canonical.instructions) << what;
  EXPECT_EQ(run.output, canonical.output) << what;
  EXPECT_TRUE(run.profile == canonical.profile) << what;
  return {run.cycles, simulated_energy(img, run)};
}

/// The oracles over one program's batch: every point's placed artifact
/// (served from `artifacts`, where production stored it) must carry the
/// point's numbers, and those must equal the placed image's own simulation
/// bit for bit. Every chosen placement is simulated once, and production
/// priced exactly the cold greedy's linked trials and the energy choices.
/// Every placement linked here goes through `oracle`. Returns the number of
/// distinct chosen placements compared.
std::size_t expect_prices_match_simulation(
    const workloads::WorkloadInfo& wl,
    const std::vector<harness::MatrixRequest>& requests,
    const std::vector<std::vector<harness::SweepPoint>>& sweeps,
    harness::ArtifactCache& artifacts, BindOracle& oracle) {
  const auto canonical = harness::canonical_run(wl, artifacts);
  // The cold greedy's candidates carry no profile, as its choices need none.
  const std::vector<alloc::MemoryObject> objects = alloc::collect_objects(
      wl.module, harness::canonical_image(wl, artifacts)->extents, {}, {});
  std::map<link::SpmAssignment, PlacedSimulation> simulated;
  std::set<link::SpmAssignment> priced;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const harness::SweepConfig& cfg = requests[r].config;
    // Each point's assignment, recomputed from scratch (the cold greedy
    // dominates the cost, so sizes run in parallel, each with its own
    // record of linked trials).
    std::vector<link::SpmAssignment> chosen(cfg.sizes.size());
    std::vector<std::set<link::SpmAssignment>> linked(cfg.sizes.size());
    support::ThreadPool(2).for_each(chosen.size(), [&](std::size_t i) {
      chosen[i] =
          cfg.wcet_driven_alloc
              ? alloc::allocate_wcet_driven(
                    objects, cfg.sizes[i],
                    cold_wcet_of(cfg.sizes[i], oracle, linked[i],
                                 wl.name + " spm " +
                                     std::to_string(cfg.sizes[i]) +
                                     " trial"))
                    .assignment
              : alloc::allocate_energy_optimal(
                    wl.module, canonical->run.profile, cfg.sizes[i])
                    .assignment;
    });
    for (std::size_t i = 0; i < cfg.sizes.size(); ++i) {
      const std::string what =
          wl.name + " spm " + std::to_string(cfg.sizes[i]) +
          (cfg.wcet_driven_alloc ? " wcet-driven" : " energy");
      priced.insert(linked[i].begin(), linked[i].end());
      if (!cfg.wcet_driven_alloc) priced.insert(chosen[i]);
      const auto placed = artifacts.placement(
          {&wl, chosen[i]}, [&]() -> harness::PlacedRun {
            ADD_FAILURE() << what << ": production never priced it";
            return {};
          });
      EXPECT_EQ(sweeps[r][i].sim_cycles, placed->sim_cycles) << what;
      EXPECT_EQ(sweeps[r][i].energy_nj, placed->energy_nj) << what;
      auto it = simulated.find(chosen[i]);
      if (it == simulated.end())
        it = simulated
                 .emplace(chosen[i],
                          simulate_placement(wl, cfg.sizes[i], chosen[i],
                                             canonical->run, oracle, what))
                 .first;
      EXPECT_EQ(placed->sim_cycles, it->second.cycles) << what;
      EXPECT_EQ(placed->energy_nj, it->second.energy_nj) << what;
    }
  }
  // Production bound each priced placement once, and the oracle compared
  // exactly those placements' binds.
  EXPECT_EQ(artifacts.placement_stats().misses, priced.size()) << wl.name;
  EXPECT_TRUE(oracle.bound() == priced) << wl.name;
  return simulated.size();
}

/// Both allocators' scratchpad sweeps of one program on one batch cache.
std::vector<harness::MatrixRequest>
both_allocators(const workloads::WorkloadInfo& wl,
                harness::ArtifactCache& artifacts) {
  std::vector<harness::MatrixRequest> requests;
  for (const bool wcet_driven : {false, true}) {
    harness::SweepConfig cfg;
    cfg.setup = harness::MemSetup::Scratchpad;
    cfg.wcet_driven_alloc = wcet_driven;
    cfg.artifacts = &artifacts;
    requests.push_back({&wl, cfg});
  }
  return requests;
}

TEST(SpmSoundness, WcetDominatesSimulationAcrossTheScratchpadLadder) {
  // The oracle subset also checks its batch's choices and prices.
  constexpr uint32_t kProgramsPerShape = 8;
  std::size_t checked = 0;
  std::size_t expected = 0;
  std::size_t compared = 0;
  std::size_t binds_compared = 0;
  std::size_t sites_compared = 0;
  const auto sweep = [&](const std::string& name, bool wcet_driven,
                         bool with_oracle) {
    const auto wl = workloads::WorkloadRegistry::instance().benchmark(name);
    // One batch cache per program: one canonical run and one relocatable
    // program serve both allocators at every size.
    harness::ArtifactCache artifacts;
    std::vector<harness::MatrixRequest> requests =
        both_allocators(*wl, artifacts);
    if (!wcet_driven) requests.pop_back();
    for (const auto& request : requests)
      expected += request.config.sizes.size();
    const auto sweeps = harness::run_matrix(requests, 2);
    for (std::size_t r = 0; r < requests.size(); ++r) {
      const harness::SweepConfig& cfg = requests[r].config;
      for (const harness::SweepPoint& pt : sweeps[r]) {
        EXPECT_GE(pt.wcet_cycles, pt.sim_cycles)
            << name << " spm " << pt.size_bytes
            << (cfg.wcet_driven_alloc ? " wcet-driven" : " energy");
        ++checked;
      }
    }
    if (with_oracle) {
      BindOracle oracle(*wl, artifacts);
      compared += expect_prices_match_simulation(*wl, requests, sweeps,
                                                 artifacts, oracle);
      binds_compared += oracle.compared();
      sites_compared += oracle.sites();
    }
    return artifacts.bind_stats().reanalyzed;
  };
  for (const std::string& shape : workloads::gen_shape_names())
    for (uint32_t seed = 1; seed <= kProgramsPerShape; ++seed)
      sweep("gen:" + shape + ":" + std::to_string(seed),
            runs_wcet_driven(shape, seed), runs_oracle(shape, seed));
  // A program with a function the symbolic domain cannot express: every
  // placement analyzes that function at its addresses, under the oracle.
  EXPECT_GT(sweep("gen:branchy:9", /*wcet_driven=*/true, /*with_oracle=*/true),
            0u);
  // Energy allocator: 5 shapes x 8 programs x 8 paper sizes; WCET-driven:
  // 8 programs of each shape but callheavy's 1, x 8 sizes; gen:branchy:9
  // under both.
  EXPECT_EQ(checked, expected);
  EXPECT_EQ(expected,
            std::size_t{(5 * kProgramsPerShape + 4 * kProgramsPerShape + 1 +
                         2) *
                        8});
  EXPECT_GT(compared, std::size_t{4 * 4 + 1 + 1});
  // The bind oracle ran on every placement the subset bound.
  EXPECT_GT(binds_compared, compared);
  EXPECT_GT(sites_compared, binds_compared);
}

TEST(SpmPricing, PaperTrioPricesMatchTheirSimulationBitForBit) {
  std::size_t compared = 0;
  uint64_t reanalyzed = 0;
  for (const auto& wl : workloads::cached_paper_benchmarks()) {
    harness::ArtifactCache artifacts;
    const auto requests = both_allocators(*wl, artifacts);
    const auto sweeps = harness::run_matrix(requests, 2);
    BindOracle oracle(*wl, artifacts);
    compared += expect_prices_match_simulation(*wl, requests, sweeps,
                                               artifacts, oracle);
    EXPECT_GT(oracle.compared(), 0u) << wl->name;
    reanalyzed += artifacts.bind_stats().reanalyzed;
  }
  // Some trio placements flip the order of globals a hull joined (g721's
  // update_predictor), so the oracle also covers functions analyzed at
  // their placement.
  EXPECT_GT(reanalyzed, 0u);
  // The knapsack's 7/6/6 distinct placements plus the WCET-driven ones.
  EXPECT_GE(compared, std::size_t{7 + 6 + 6});
}

} // namespace
} // namespace spmwcet
