// The analyzer IR front end (wcet/frontend.h): layout-invariant shape
// building, per-image binding, and — the property everything rests on —
// field-exact parity between bind_view and the seed front end
// (reference::seed_view, tests/reference/) through the same back end,
// across every paper workload, setup, placement and cache geometry. The
// harness-level tests pin the shared shapes and relocatable programs of the
// sweep pipeline, and hold the relocatable program's canonical view and
// placements field-equal to bind_view on the images they stand for.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <optional>
#include <set>

#include "alloc/allocator.h"
#include "alloc/memory_objects.h"
#include "harness/artifact_cache.h"
#include "harness/experiment.h"
#include "harness/sweep_runner.h"
#include "link/layout.h"
#include "lp/branch_bound.h"
#include "lp/simplex.h"
#include "program/decoded_image.h"
#include "reference/block_timer.h"
#include "reference/knapsack.h"
#include "reference/map_cache_analysis.h"
#include "reference/seed_frontend.h"
#include "reference/simplex.h"
#include "sim/simulator.h"
#include "wcet/analyzer.h"
#include "wcet/block_timing.h"
#include "wcet/cache_analysis.h"
#include "wcet/frontend.h"
#include "view_equality.h"
#include "wcet/ipet.h"
#include "workloads/generated.h"
#include "workloads/workload.h"

namespace spmwcet {
namespace {

using wcet::AnalyzerConfig;
using wcet::WcetReport;

void expect_report_eq(const WcetReport& fast, const WcetReport& legacy,
                      const std::string& what) {
  EXPECT_EQ(fast.wcet, legacy.wcet) << what;
  EXPECT_EQ(fast.fetch_sites, legacy.fetch_sites) << what;
  EXPECT_EQ(fast.fetch_always_hit, legacy.fetch_always_hit) << what;
  EXPECT_EQ(fast.load_sites, legacy.load_sites) << what;
  EXPECT_EQ(fast.load_always_hit, legacy.load_always_hit) << what;
  EXPECT_EQ(fast.persistent_sites, legacy.persistent_sites) << what;
  EXPECT_EQ(fast.persistence_penalty_cycles, legacy.persistence_penalty_cycles)
      << what;
  ASSERT_EQ(fast.functions.size(), legacy.functions.size()) << what;
  for (const auto& [name, fl] : legacy.functions) {
    const auto it = fast.functions.find(name);
    ASSERT_NE(it, fast.functions.end()) << what << ": missing " << name;
    const wcet::FunctionWcet& ff = it->second;
    EXPECT_EQ(ff.wcet, fl.wcet) << what << "/" << name;
    EXPECT_EQ(ff.blocks, fl.blocks) << what << "/" << name;
    EXPECT_EQ(ff.loops, fl.loops) << what << "/" << name;
    ASSERT_EQ(ff.block_profile.size(), fl.block_profile.size())
        << what << "/" << name;
    for (std::size_t i = 0; i < ff.block_profile.size(); ++i) {
      EXPECT_EQ(ff.block_profile[i].addr, fl.block_profile[i].addr)
          << what << "/" << name << " block " << i;
      EXPECT_EQ(ff.block_profile[i].count, fl.block_profile[i].count)
          << what << "/" << name << " block " << i;
      EXPECT_EQ(ff.block_profile[i].cycles, fl.block_profile[i].cycles)
          << what << "/" << name << " block " << i;
    }
  }
}

/// The seed front end's report on `img`: reference::seed_view through the
/// production back end, IPET solved from scratch.
WcetReport seed_report(const link::Image& img, AnalyzerConfig cfg) {
  cfg.ipet_cache = nullptr;
  return wcet::analyze_wcet(reference::seed_view(img), cfg);
}

void expect_parity(const link::Image& img, const AnalyzerConfig& cfg,
                   const std::string& what) {
  expect_report_eq(wcet::analyze_wcet(img, cfg), seed_report(img, cfg), what);
}

/// The paper's allocation flow: profile the canonical image, solve the
/// knapsack at `size`, relink with the placement.
link::Image placed_image(const workloads::WorkloadInfo& wl,
                         const sim::AccessProfile& profile, uint32_t size) {
  link::LinkOptions opts;
  opts.spm_size = size;
  const auto alloc =
      alloc::allocate_energy_optimal(wl.module, profile, size);
  return link::link_program(wl.module, opts, alloc.assignment);
}

sim::AccessProfile profile_of(const link::Image& img) {
  sim::SimConfig pcfg;
  pcfg.collect_profile = true;
  sim::Simulator profiler(img, pcfg);
  return profiler.run().profile;
}

// ---- shape / bind structure -------------------------------------------------

TEST(ProgramShape, BindReproducesLegacyCfgsExactly) {
  for (const auto& wl : workloads::cached_paper_benchmarks()) {
    const link::Image img = link::link_program(wl->module, {}, {});
    const program::DecodedImage dec(img);
    const auto shape =
        std::make_shared<const wcet::ProgramShape>(wcet::build_shape(img, dec));
    const wcet::ProgramView view = wcet::bind_view(shape, img, dec);

    const auto funcs = wcet::reachable_functions(img, img.entry);
    ASSERT_EQ(view.cfgs.size(), funcs.size()) << wl->name;
    for (const uint32_t f : funcs) {
      const wcet::Cfg legacy = wcet::build_cfg(img, f);
      const auto it = view.cfgs.find(f);
      ASSERT_NE(it, view.cfgs.end()) << wl->name;
      const wcet::Cfg& bound = it->second;
      EXPECT_EQ(bound.name, legacy.name);
      EXPECT_EQ(bound.func_addr, legacy.func_addr);
      ASSERT_EQ(bound.blocks.size(), legacy.blocks.size()) << legacy.name;
      ASSERT_EQ(bound.edges.size(), legacy.edges.size()) << legacy.name;
      for (std::size_t e = 0; e < legacy.edges.size(); ++e) {
        EXPECT_EQ(bound.edges[e].from, legacy.edges[e].from);
        EXPECT_EQ(bound.edges[e].to, legacy.edges[e].to);
        EXPECT_EQ(bound.edges[e].kind, legacy.edges[e].kind);
      }
      for (std::size_t b = 0; b < legacy.blocks.size(); ++b) {
        const wcet::BasicBlock& lb = legacy.blocks[b];
        const wcet::BasicBlock& fb = bound.blocks[b];
        EXPECT_EQ(fb.id, lb.id);
        EXPECT_EQ(fb.first_addr, lb.first_addr) << legacy.name;
        EXPECT_EQ(fb.end_addr, lb.end_addr) << legacy.name;
        EXPECT_EQ(fb.call_target, lb.call_target) << legacy.name;
        EXPECT_EQ(fb.is_exit, lb.is_exit) << legacy.name;
        EXPECT_EQ(fb.out_edges, lb.out_edges) << legacy.name;
        EXPECT_EQ(fb.in_edges, lb.in_edges) << legacy.name;
        ASSERT_EQ(fb.instrs.size(), lb.instrs.size()) << legacy.name;
        for (std::size_t i = 0; i < lb.instrs.size(); ++i) {
          EXPECT_EQ(fb.instrs[i].addr, lb.instrs[i].addr);
          EXPECT_EQ(fb.instrs[i].size, lb.instrs[i].size);
          EXPECT_EQ(fb.instrs[i].ins, lb.instrs[i].ins);
          EXPECT_EQ(fb.instrs[i].bl_lo, lb.instrs[i].bl_lo);
        }
      }
    }
  }
}

TEST(ProgramShape, FingerprintInvariantAcrossPlacementsAndTiedToModule) {
  const auto benches = workloads::cached_paper_benchmarks();
  const auto& wl = *benches.front();
  const link::Image canonical = link::link_program(wl.module, {}, {});
  const sim::AccessProfile profile = profile_of(canonical);
  const link::Image placed = placed_image(wl, profile, 1024);
  // Relinking moves addresses, rewrites BL offsets and changes pool
  // contents, but never changes the module fingerprint.
  EXPECT_EQ(wcet::module_fingerprint(canonical,
                                     program::DecodedImage(canonical)),
            wcet::module_fingerprint(placed, program::DecodedImage(placed)));

  // A shape never binds against another module's image.
  const auto& other = *benches.back();
  ASSERT_NE(wl.name, other.name);
  const link::Image foreign = link::link_program(other.module, {}, {});
  const program::DecodedImage dec(canonical);
  const auto shape = std::make_shared<const wcet::ProgramShape>(
      wcet::build_shape(canonical, dec));
  const program::DecodedImage fdec(foreign);
  EXPECT_THROW(wcet::bind_view(shape, foreign, fdec), ProgramError);
}

/// The paper trio plus a slice of the gen:mixed corpus.
std::vector<std::string> trio_and_mixed_slice() {
  std::vector<std::string> names = workloads::paper_benchmark_names();
  for (uint32_t seed = 1; seed <= 6; ++seed)
    names.push_back("gen:mixed:" + std::to_string(seed));
  return names;
}

/// Accumulates a workload's IPET skeleton counters.
void add_stats(wcet::IpetCacheStats& sum, const wcet::IpetCache& ipet) {
  const wcet::IpetCacheStats s = ipet.stats();
  sum.hits += s.hits;
  sum.fallbacks += s.fallbacks;
}

TEST(ProgramShape, OneShapeServesEveryPlacement) {
  // The core layout-invariance claim: a shape built from the canonical
  // image binds to every paper SPM placement and reproduces the seed front
  // end field for field — with IPET solved through one skeleton store per
  // workload, as a batch solves it, against the seed view's from-scratch
  // solve. Both sides must have run: the skeletons served solves and none
  // fell back.
  wcet::IpetCacheStats skeletons;
  for (const std::string& name : trio_and_mixed_slice()) {
    const auto wl = workloads::WorkloadRegistry::instance().benchmark(name);
    const link::Image canonical = link::link_program(wl->module, {}, {});
    const program::DecodedImage cdec(canonical);
    const auto shape = std::make_shared<const wcet::ProgramShape>(
        wcet::build_shape(canonical, cdec));
    const wcet::IpetCache ipet;
    AnalyzerConfig cfg;
    cfg.ipet_cache = &ipet;
    const sim::AccessProfile profile = profile_of(canonical);
    for (const uint32_t size : harness::SweepConfig{}.sizes) {
      const link::Image img = placed_image(*wl, profile, size);
      const program::DecodedImage dec(img);
      const WcetReport fast =
          wcet::analyze_wcet(wcet::bind_view(shape, img, dec), cfg);
      expect_report_eq(fast, seed_report(img, {}),
                       name + "/spm" + std::to_string(size));
    }
    add_stats(skeletons, ipet);
  }
  EXPECT_GT(skeletons.hits, 0u);
  EXPECT_EQ(skeletons.fallbacks, 0u);
}

TEST(ProgramView, OneViewServesEveryCacheSize) {
  // One bound view and one seed view serve every paper cache size, MUST
  // only and with persistence: the reports agree, and so do the flat and
  // the reference map classifications site for site. Both sides of each
  // comparison must have run.
  const uint64_t map_runs = reference::map_analysis_runs();
  wcet::IpetCacheStats skeletons;
  for (const std::string& name : trio_and_mixed_slice()) {
    const auto wl = workloads::WorkloadRegistry::instance().benchmark(name);
    const link::Image img = link::link_program(wl->module, {}, {});
    const program::DecodedImage dec(img);
    const auto shape =
        std::make_shared<const wcet::ProgramShape>(wcet::build_shape(img, dec));
    const wcet::ProgramView view = wcet::bind_view(shape, img, dec);
    const wcet::ProgramView seed = reference::seed_view(img);
    const wcet::IpetCache ipet;
    for (const uint32_t size : harness::SweepConfig{}.sizes)
      for (const bool pers : {false, true}) {
        const std::string what =
            name + "/cache" + std::to_string(size) + (pers ? "+pers" : "");
        AnalyzerConfig cfg;
        cache::CacheConfig ccfg;
        ccfg.size_bytes = size;
        cfg.cache = ccfg;
        cfg.with_persistence = pers;
        const WcetReport legacy = wcet::analyze_wcet(seed, cfg);
        cfg.ipet_cache = &ipet;
        expect_report_eq(wcet::analyze_wcet(view, cfg), legacy, what);

        wcet::CacheAnalysisConfig cls;
        cls.cache = ccfg;
        cls.with_persistence = pers;
        const auto flat =
            wcet::analyze_cache_flat(img, view.cfgs, view.root, cls);
        const auto want = reference::to_sites(
            seed.cfgs, reference::analyze_cache(img, seed.cfgs, seed.root, cls));
        EXPECT_EQ(flat.sites, want.sites) << what;
        EXPECT_EQ(flat.persistent_penalty_lines, want.persistent_penalty_lines)
            << what;
      }
    add_stats(skeletons, ipet);
  }
  EXPECT_GT(reference::map_analysis_runs(), map_runs);
  EXPECT_GT(skeletons.hits, 0u);
  EXPECT_EQ(skeletons.fallbacks, 0u);
}

TEST(ProgramView, ScaffoldIsBuiltAtBindAndSurvivesCopies) {
  // bind_view builds the back end's view-constant scaffolding once: the
  // cache supergraph and the site table cover every block and site in
  // site order, and the bottom-up order lists every function after its
  // callees. The scaffold names CFGs by key order, so a copy of the view
  // analyzes identically after the original is gone.
  for (const std::string& name : trio_and_mixed_slice()) {
    const auto wl = workloads::WorkloadRegistry::instance().benchmark(name);
    const link::Image img = link::link_program(wl->module, {}, {});
    const program::DecodedImage dec(img);
    auto view = std::make_unique<wcet::ProgramView>(wcet::bind_view(
        std::make_shared<const wcet::ProgramShape>(wcet::build_shape(img, dec)),
        img, dec));
    const wcet::ViewScaffold& sc = view->scaffold;
    const wcet::CacheSupergraph& g = sc.supergraph;
    const wcet::SiteTable& t = sc.sites;
    ASSERT_FALSE(sc.recursive.has_value()) << name;
    ASSERT_EQ(g.func_addr.size(), view->cfgs.size()) << name;
    ASSERT_EQ(t.functions.size(), view->cfgs.size()) << name;
    std::size_t blocks = 0, sites = 0, func = 0;
    for (const auto& [f, cfg] : view->cfgs) {
      EXPECT_EQ(g.func_addr[func], f) << name;
      EXPECT_EQ(t.functions[func].first_block, blocks) << name;
      if (f == view->root) {
        EXPECT_EQ(g.root_node, blocks) << name;
      }
      ++func;
      for (const auto& b : cfg.blocks) {
        EXPECT_EQ(t.blocks[blocks].first_site, sites) << name;
        EXPECT_EQ(t.sites[sites].addr, b.first_addr) << name;
        ++blocks;
        sites += b.instrs.size();
      }
    }
    EXPECT_EQ(g.num_nodes(), blocks) << name;
    EXPECT_EQ(t.blocks.size(), blocks) << name;
    EXPECT_EQ(t.sites.size(), sites) << name;
    ASSERT_EQ(sc.bottom_up.size(), view->cfgs.size()) << name;
    std::set<uint32_t> seen;
    for (const uint32_t fi : sc.bottom_up) {
      const wcet::Cfg& cfg = view->cfgs.at(g.func_addr[fi]);
      for (const auto& b : cfg.blocks)
        if (b.call_target)
          EXPECT_TRUE(seen.count(*b.call_target)) << name << "/" << cfg.name;
      seen.insert(g.func_addr[fi]);
    }
    EXPECT_EQ(g.func_addr[sc.bottom_up.back()], view->root) << name;

    AnalyzerConfig cfg;
    cache::CacheConfig ccfg;
    ccfg.size_bytes = 1024;
    cfg.cache = ccfg;
    cfg.with_persistence = true;
    const WcetReport want = wcet::analyze_wcet(*view, cfg);
    const wcet::ProgramView copy = *view;
    view.reset();
    expect_report_eq(wcet::analyze_wcet(copy, cfg), want, name + " copy");
  }
}

// ---- simplex oracle on the paper's integer programs -------------------------

/// Each function's first site in site order (functions in key order), as
/// the per-instruction oracle's TimingInputs::first_site wants it.
std::vector<uint32_t> first_sites(const std::map<uint32_t, wcet::Cfg>& cfgs) {
  std::vector<uint32_t> out;
  uint32_t site = 0;
  for (const auto& [f, cfg] : cfgs) {
    out.push_back(site);
    for (const auto& b : cfg.blocks)
      site += static_cast<uint32_t>(b.instrs.size());
  }
  return out;
}

bool same_bits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Production and oracle solutions agree bit for bit.
void expect_same_solution(const lp::Solution& got, const lp::Solution& want,
                          const std::string& what) {
  ASSERT_EQ(got.status, want.status) << what;
  EXPECT_EQ(got.basis, want.basis) << what;
  EXPECT_TRUE(same_bits(got.objective, want.objective)) << what;
  ASSERT_EQ(got.values.size(), want.values.size()) << what;
  for (std::size_t j = 0; j < want.values.size(); ++j)
    EXPECT_TRUE(same_bits(got.values[j], want.values[j]))
        << what << " var " << j;
}

/// Runs production (carried reduced costs) and the reference simplex
/// (fresh pricing every pivot) side by side on one model: the cold solve,
/// the prepared phase-two solve the IPET skeletons use, and every node LP
/// of the branch-and-bound search. Counts what each side solved.
struct SimplexParity {
  uint64_t models = 0;
  uint64_t node_lps = 0;
  uint64_t oracle_solves = 0;

  lp::Solution check(const lp::Model& m, const std::string& what) {
    ++models;
    expect_same_solution(lp::solve_lp(m), reference::solve_lp(m),
                         what + " cold");
    expect_same_solution(
        lp::PreparedLp(m).solve(m.sense(), m.objective()),
        reference::PreparedLp(m).solve(m.sense(), m.objective()),
        what + " prepared");
    oracle_solves += 2;
    return lp::solve_milp(m, {}, [&](const lp::Model& node) {
      lp::Solution got = lp::solve_lp(node);
      expect_same_solution(got, reference::solve_lp(node),
                           what + " node " + std::to_string(node_lps));
      ++node_lps;
      ++oracle_solves;
      return got;
    });
  }

  /// Every function's IPET program at one analysis point of `view`, with
  /// the block times the analyzer derives for it. The integer optimum must
  /// be the WCET the production analyzer reported for the function.
  void check_view(const wcet::ProgramView& view, const AnalyzerConfig& acfg,
                  const std::string& what) {
    const WcetReport report = wcet::analyze_wcet(view, acfg);
    const wcet::CacheSupergraph& g = view.scaffold.supergraph;
    wcet::SiteClassification cls;
    if (acfg.cache) {
      wcet::CacheAnalysisConfig ccfg;
      ccfg.cache = *acfg.cache;
      ccfg.with_persistence = acfg.with_persistence;
      cls = wcet::analyze_cache_flat(*view.img, g, view.scaffold.sites, ccfg);
    }
    std::map<uint32_t, uint64_t> callee_wcet;
    for (const auto& [f, cfg] : view.cfgs)
      callee_wcet[f] = report.functions.at(cfg.name).wcet;
    const std::vector<uint32_t> site_of = first_sites(view.cfgs);
    for (std::size_t fi = 0; fi < g.func_addr.size(); ++fi) {
      const wcet::Cfg& cfg = view.cfgs.at(g.func_addr[fi]);
      reference::TimingInputs in;
      in.cache = acfg.cache;
      if (acfg.cache) {
        in.classification = &cls;
        in.first_site = site_of[fi];
      }
      in.callee_wcet = &callee_wcet;
      const lp::Model m =
          wcet::ipet_model(cfg, *view.loops.at(g.func_addr[fi]), view.ann,
                           reference::time_blocks(cfg, in));
      const lp::Solution sol = check(m, what + "/" + cfg.name);
      ASSERT_EQ(sol.status, lp::Status::Optimal) << what << "/" << cfg.name;
      EXPECT_EQ(static_cast<uint64_t>(std::llround(sol.objective)),
                report.functions.at(cfg.name).wcet)
          << what << "/" << cfg.name;
    }
  }
};

TEST(SimplexOracle, CarriedPricingMatchesFreshPricingOnPaperModels) {
  // Every IPET program of the paper trio and gen:mixed:1..6 — each paper
  // SPM placement, and each paper cache size MUST only and with
  // persistence — plus the knapsack ILP (the allocation oracle,
  // reference::knapsack_model) at each paper size with all its
  // branch-and-bound node LPs: production's status, basis, values and
  // objective equal the fresh-pricing oracle's bit for bit, so carrying the
  // reduced costs kept every pivot path.
  const uint64_t oracle_before = reference::simplex_solves();
  SimplexParity parity;
  uint64_t knapsack_models = 0, knapsack_nodes = 0;
  for (const std::string& name : trio_and_mixed_slice()) {
    const auto wl = workloads::WorkloadRegistry::instance().benchmark(name);
    const link::Image canonical = link::link_program(wl->module, {}, {});
    const program::DecodedImage cdec(canonical);
    const auto shape = std::make_shared<const wcet::ProgramShape>(
        wcet::build_shape(canonical, cdec));
    const sim::AccessProfile profile = profile_of(canonical);
    const std::vector<alloc::MemoryObject> objects =
        alloc::collect_objects(wl->module,
                               link::lay_out(wl->module).extents(), profile,
                               {});
    for (const uint32_t size : harness::SweepConfig{}.sizes) {
      const uint64_t nodes = parity.node_lps;
      parity.check(reference::knapsack_model(objects, size),
                   name + "/knapsack" + std::to_string(size));
      ++knapsack_models;
      knapsack_nodes += parity.node_lps - nodes;

      const link::Image img = placed_image(*wl, profile, size);
      const program::DecodedImage dec(img);
      parity.check_view(wcet::bind_view(shape, img, dec), {},
                        name + "/spm" + std::to_string(size));
    }
    const wcet::ProgramView view = wcet::bind_view(shape, canonical, cdec);
    for (const uint32_t size : harness::SweepConfig{}.sizes)
      for (const bool pers : {false, true}) {
        AnalyzerConfig cfg;
        cache::CacheConfig ccfg;
        ccfg.size_bytes = size;
        cfg.cache = ccfg;
        cfg.with_persistence = pers;
        parity.check_view(view, cfg,
                          name + "/cache" + std::to_string(size) +
                              (pers ? "+pers" : ""));
      }
  }
  // Both sides ran on every model, and the knapsack searches branched, so
  // bounded node LPs were compared too.
  EXPECT_GT(parity.models, knapsack_models);
  EXPECT_EQ(reference::simplex_solves() - oracle_before, parity.oracle_solves);
  EXPECT_GT(knapsack_nodes, knapsack_models);
}

// ---- site table and IPET memo over the paper and cache matrices ------------

/// Calls visit(view, cfg, ipet, what) at every analysis point of the
/// parity matrix: the paper trio and gen:mixed:1..6, each paper SPM
/// placement (no cache), and on the canonical image each paper cache size
/// under associativity 1/2/4, unified and instruction-only, persistence off
/// and on — the cache soundness matrix. One IPET store per program serves
/// all of its points, sizes innermost, as in a sweep.
template <class Visit>
void for_each_matrix_point(Visit&& visit) {
  for (const std::string& name : trio_and_mixed_slice()) {
    const auto wl = workloads::WorkloadRegistry::instance().benchmark(name);
    const link::Image canonical = link::link_program(wl->module, {}, {});
    const program::DecodedImage cdec(canonical);
    const auto shape = std::make_shared<const wcet::ProgramShape>(
        wcet::build_shape(canonical, cdec));
    const sim::AccessProfile profile = profile_of(canonical);
    const wcet::IpetCache ipet;
    for (const uint32_t size : harness::SweepConfig{}.sizes) {
      const link::Image img = placed_image(*wl, profile, size);
      const program::DecodedImage dec(img);
      visit(wcet::bind_view(shape, img, dec), AnalyzerConfig{}, ipet,
            name + "/spm" + std::to_string(size));
    }
    const wcet::ProgramView view = wcet::bind_view(shape, canonical, cdec);
    for (const uint32_t assoc : {1u, 2u, 4u})
      for (const bool unified : {true, false})
        for (const bool pers : {false, true})
          for (const uint32_t size : harness::SweepConfig{}.sizes) {
            AnalyzerConfig cfg;
            cache::CacheConfig ccfg;
            ccfg.size_bytes = size;
            ccfg.assoc = assoc;
            ccfg.unified = unified;
            cfg.cache = ccfg;
            cfg.with_persistence = pers;
            visit(view, cfg, ipet,
                  name + "/cache" + std::to_string(size) + " assoc " +
                      std::to_string(assoc) +
                      (unified ? " unified" : " icache") +
                      (pers ? " persistence" : ""));
          }
  }
}

/// The classification analyze_wcet(view, cfg) prices, empty without a
/// cache.
wcet::SiteClassification classification_of(const wcet::ProgramView& view,
                                            const AnalyzerConfig& cfg) {
  if (!cfg.cache) return {};
  wcet::CacheAnalysisConfig ccfg;
  ccfg.cache = *cfg.cache;
  ccfg.with_persistence = cfg.with_persistence;
  return wcet::analyze_cache_flat(*view.img, view.scaffold.supergraph,
                                  view.scaffold.sites, ccfg);
}

TEST(SiteTable, BlockTimesAndStatisticsMatchThePerInstructionOracle) {
  // For every function at every matrix point, the site-table timing's
  // block cycles and taken-edge cycles equal the per-instruction oracle's,
  // and the report's site statistics equal the oracle's statistics loop.
  const uint64_t oracle_before = reference::block_timer_runs();
  uint64_t functions = 0, points = 0, cached_points = 0;
  for_each_matrix_point([&](const wcet::ProgramView& view,
                            const AnalyzerConfig& acfg,
                            const wcet::IpetCache&, const std::string& what) {
    const WcetReport report = wcet::analyze_wcet(view, acfg);
    const wcet::SiteClassification cls = classification_of(view, acfg);
    const wcet::CacheSupergraph& g = view.scaffold.supergraph;
    // Callee WCETs as the report has them, for both sides.
    std::vector<uint64_t> func_wcet;
    std::map<uint32_t, uint64_t> callee_wcet;
    for (const auto& [f, cfg] : view.cfgs) {
      func_wcet.push_back(report.functions.at(cfg.name).wcet);
      callee_wcet[f] = func_wcet.back();
    }
    wcet::TimingInputs in;
    in.cache = acfg.cache;
    if (acfg.cache) in.classification = &cls;
    wcet::SiteStats stats;
    wcet::BlockTimes times;
    const std::vector<uint32_t> site_of = first_sites(view.cfgs);
    for (uint32_t fi = 0; fi < g.func_addr.size(); ++fi) {
      const wcet::Cfg& cfg = view.cfgs.at(g.func_addr[fi]);
      wcet::time_function(view.scaffold.sites, fi, in, func_wcet, times,
                          stats);
      reference::TimingInputs rin;
      rin.cache = acfg.cache;
      if (acfg.cache) {
        rin.classification = &cls;
        rin.first_site = site_of[fi];
      }
      rin.callee_wcet = &callee_wcet;
      const wcet::BlockTimes want = reference::time_blocks(cfg, rin);
      ASSERT_EQ(times.block_cycles, want.block_cycles) << what << "/"
                                                       << cfg.name;
      ASSERT_EQ(times.edge_cycles, want.edge_cycles) << what << "/"
                                                     << cfg.name;
      ++functions;
    }
    ++points;
    if (!acfg.cache) {
      EXPECT_EQ(report.fetch_sites + report.load_sites, 0u) << what;
      return;
    }
    ++cached_points;
    const reference::SiteStatistics want =
        reference::site_statistics(view.cfgs, cls);
    EXPECT_EQ(report.fetch_sites, want.fetch_sites) << what;
    EXPECT_EQ(report.load_sites, want.load_sites) << what;
    EXPECT_EQ(report.fetch_always_hit, want.fetch_always_hit) << what;
    EXPECT_EQ(report.load_always_hit, want.load_always_hit) << what;
    EXPECT_EQ(report.persistent_sites, want.persistent_sites) << what;
    EXPECT_EQ(stats.fetch_always_hit, want.fetch_always_hit) << what;
    EXPECT_EQ(stats.load_always_hit, want.load_always_hit) << what;
    EXPECT_EQ(stats.persistent_sites, want.persistent_sites) << what;
  });
  // 9 programs x (8 placements + 96 cache configurations).
  EXPECT_EQ(points, 9u * (8u + 96u));
  EXPECT_EQ(cached_points, 9u * 96u);
  // The oracle timed every function the production side timed.
  EXPECT_EQ(reference::block_timer_runs() - oracle_before, functions);
}

TEST(IpetMemo, AnswersEqualTheColdSolveAcrossTheMatrix) {
  // Through one IPET store per program, every function's answer at every
  // matrix point — re-solved or from the memo — equals solve_ipet's, block
  // counts included, and the memo answers a share of them.
  uint64_t solves = 0;
  wcet::IpetCacheStats sum;
  for_each_matrix_point([&](const wcet::ProgramView& view,
                            const AnalyzerConfig& acfg,
                            const wcet::IpetCache& ipet,
                            const std::string& what) {
    const wcet::IpetCacheStats before = ipet.stats();
    const wcet::SiteClassification cls = classification_of(view, acfg);
    const wcet::CacheSupergraph& g = view.scaffold.supergraph;
    wcet::TimingInputs in;
    in.cache = acfg.cache;
    if (acfg.cache) in.classification = &cls;
    std::vector<uint64_t> func_wcet(g.func_addr.size(), wcet::kNoWcet);
    wcet::SiteStats stats;
    wcet::BlockTimes times;
    for (const uint32_t fi : view.scaffold.bottom_up) {
      const uint32_t f = g.func_addr[fi];
      const wcet::Cfg& cfg = view.cfgs.at(f);
      const wcet::LoopInfo& loops = *view.loops.at(f);
      wcet::time_function(view.scaffold.sites, fi, in, func_wcet, times,
                          stats);
      const wcet::IpetResult want =
          wcet::solve_ipet(cfg, loops, view.ann, times);
      const wcet::IpetResult got =
          ipet.solve(view.func_index.at(f), cfg, loops, view.ann, times);
      ASSERT_EQ(got.wcet, want.wcet) << what << "/" << cfg.name;
      ASSERT_EQ(got.block_counts, want.block_counts) << what << "/"
                                                     << cfg.name;
      func_wcet[fi] = want.wcet;
      ++solves;
    }
    const wcet::IpetCacheStats after = ipet.stats();
    sum.builds += after.builds - before.builds;
    sum.hits += after.hits - before.hits;
    sum.memo_hits += after.memo_hits - before.memo_hits;
    sum.fallbacks += after.fallbacks - before.fallbacks;
  });
  EXPECT_EQ(sum.builds + sum.hits, solves);
  EXPECT_GT(sum.memo_hits, 0u);
  EXPECT_LT(sum.memo_hits, sum.hits); // re-solves ran too
  EXPECT_EQ(sum.fallbacks, 0u);
}

TEST(IpetMemo, OverriddenLoopBoundsAreNeverAnsweredFromTheMemo) {
  // A view of the same image whose annotations raise every loop bound
  // shares the skeletons' function indices but not their bounds: each
  // function with a loop falls back to the cold solve instead of the memo
  // its skeleton holds, and the report equals the from-scratch one.
  const auto wl = workloads::WorkloadRegistry::instance().benchmark("g721");
  const link::Image img = link::link_program(wl->module, {}, {});
  const program::DecodedImage dec(img);
  const auto shape = std::make_shared<const wcet::ProgramShape>(
      wcet::build_shape(img, dec));
  const wcet::ProgramView view = wcet::bind_view(shape, img, dec);
  wcet::Annotations raised = view.ann;
  for (const auto& [header, bound] : view.ann.loop_bounds())
    raised.set_loop_bound(header, bound + 1);
  const wcet::ProgramView overridden =
      wcet::bind_view(shape, img, dec, false, &raised);
  std::size_t with_loops = 0;
  for (const auto& [f, loops] : view.loops) with_loops += !loops->loops.empty();
  ASSERT_GT(with_loops, 0u);

  const wcet::IpetCache ipet;
  AnalyzerConfig cfg;
  cfg.cache = cache::CacheConfig{};
  cfg.ipet_cache = &ipet;
  const WcetReport base = wcet::analyze_wcet(view, cfg);
  (void)wcet::analyze_wcet(view, cfg); // every function from the memo
  const wcet::IpetCacheStats warm = ipet.stats();
  EXPECT_EQ(warm.memo_hits, view.cfgs.size());

  const WcetReport got = wcet::analyze_wcet(overridden, cfg);
  const wcet::IpetCacheStats after = ipet.stats();
  EXPECT_EQ(after.fallbacks - warm.fallbacks, with_loops);
  EXPECT_LE(after.memo_hits - warm.memo_hits, view.cfgs.size() - with_loops);
  cfg.ipet_cache = nullptr;
  expect_report_eq(got, wcet::analyze_wcet(overridden, cfg), "overridden");
  EXPECT_GT(got.wcet, base.wcet);
}

// ---- full-report parity over the paper matrix ------------------------------

TEST(AnalyzerParity, PlainAndSpmSetups) {
  for (const auto& wl : workloads::cached_paper_benchmarks()) {
    const link::Image canonical = link::link_program(wl->module, {}, {});
    expect_parity(canonical, {}, wl->name + "/plain");
    const sim::AccessProfile profile = profile_of(canonical);
    for (const uint32_t size : {64u, 256u, 2048u, 8192u})
      expect_parity(placed_image(*wl, profile, size), {},
                    wl->name + "/spm" + std::to_string(size));
  }
}

TEST(AnalyzerParity, CacheGeometriesIncludingAblations) {
  for (const auto& wl : workloads::cached_paper_benchmarks()) {
    const link::Image img = link::link_program(wl->module, {}, {});
    for (const uint32_t size : {64u, 256u, 8192u}) {
      for (const uint32_t assoc : {1u, 2u}) {
        if (static_cast<uint64_t>(assoc) * 16 > size) continue;
        for (const bool unified : {true, false}) {
          AnalyzerConfig cfg;
          cache::CacheConfig ccfg;
          ccfg.size_bytes = size;
          ccfg.assoc = assoc;
          ccfg.unified = unified;
          cfg.cache = ccfg;
          expect_parity(img, cfg,
                        wl->name + "/cache" + std::to_string(size) + "/a" +
                            std::to_string(assoc) + (unified ? "u" : "i"));
          cfg.with_persistence = true;
          expect_parity(img, cfg,
                        wl->name + "/cache-pers" + std::to_string(size));
        }
      }
    }
  }
}

TEST(AnalyzerParity, AutoLoopBoundsOnStrippedAnnotations) {
  // The auto-bound detection re-runs per bound image (it reads literal
  // pools); both front ends must agree on stripped binaries — same report
  // when every loop is detected, the same AnnotationError when one is not.
  for (const auto& wl : workloads::cached_paper_benchmarks()) {
    const link::Image img = link::link_program(wl->module, {}, {});
    // Keep access hints (value-analysis ranges) but strip every loop bound.
    wcet::Annotations hints_only;
    for (const auto& [addr, hint] : img.access_hints) {
      const link::Symbol* sym = img.find_symbol(hint);
      ASSERT_NE(sym, nullptr);
      hints_only.set_access_range(addr, sym->addr, sym->addr + sym->size - 1);
    }
    AnalyzerConfig cfg;
    cfg.auto_loop_bounds = true;
    const auto run = [&](bool fast) -> std::pair<bool, std::string> {
      try {
        const WcetReport report =
            fast ? wcet::analyze_wcet(img, cfg, &hints_only)
                 : wcet::analyze_wcet(
                       reference::seed_view(img, true, &hints_only), cfg);
        return {true, std::to_string(report.wcet)};
      } catch (const AnnotationError& e) {
        return {false, e.what()};
      }
    };
    const auto fast = run(true);
    const auto legacy = run(false);
    EXPECT_EQ(fast.first, legacy.first) << wl->name;
    EXPECT_EQ(fast.second, legacy.second) << wl->name;
  }
}

// ---- flat cache analysis directly ------------------------------------------

TEST(FlatCacheAnalysis, ClassificationMatchesSeedImplementation) {
  for (const auto& wl : workloads::cached_paper_benchmarks()) {
    const link::Image img = link::link_program(wl->module, {}, {});
    const wcet::Annotations ann = wcet::Annotations::from_image(img);
    std::map<uint32_t, wcet::Cfg> cfgs;
    for (const uint32_t f : wcet::reachable_functions(img, img.entry))
      wcet::resolve_memory(
          img, cfgs.emplace(f, wcet::build_cfg(img, f)).first->second, ann);
    for (const uint32_t size : {64u, 512u, 8192u}) {
      for (const uint32_t assoc : {1u, 4u}) {
        if (static_cast<uint64_t>(assoc) * 16 > size) continue;
        wcet::CacheAnalysisConfig ccfg;
        ccfg.cache.size_bytes = size;
        ccfg.cache.assoc = assoc;
        const auto seed =
            reference::analyze_cache(img, cfgs, img.entry, ccfg);
        const auto flat = wcet::analyze_cache_flat(img, cfgs, img.entry, ccfg);
        // Through the one adapter: the seed sets in per-site form.
        const auto want = reference::to_sites(cfgs, seed);
        EXPECT_EQ(flat.sites, want.sites)
            << wl->name << " size " << size << " assoc " << assoc;
        EXPECT_GT(std::count_if(flat.sites.begin(), flat.sites.end(),
                                [](uint8_t s) { return s != 0; }),
                  0)
            << wl->name << " size " << size << " assoc " << assoc;
        // MUST only: no outcome is Persistent (2 in any 2-bit field).
        for (const uint8_t s : flat.sites) EXPECT_EQ(s & 0x2a, 0);
        EXPECT_TRUE(flat.persistent_penalty_lines.empty());
      }
    }
  }
}

// ---- harness artifact sharing -----------------------------------------------

TEST(HarnessWcetParity, ArtifactCacheSharesShapesAndViews) {
  const auto& wl = *workloads::cached_paper_benchmarks().front();
  harness::ArtifactCache cache;
  harness::SweepConfig cfg;
  cfg.setup = harness::MemSetup::Cache;
  cfg.artifacts = &cache;
  const auto points = harness::run_matrix({{&wl, cfg}}, 1).front();
  ASSERT_EQ(points.size(), harness::SweepConfig{}.sizes.size());
  // All 8 cache sizes bind one shape and share one relocatable program
  // (whose canonical view they analyze) and one canonical record (image,
  // decode, block table).
  EXPECT_EQ(cache.shape_stats().misses, 1u);
  EXPECT_EQ(cache.relocatable_stats().misses, 1u);
  EXPECT_EQ(cache.relocatable_stats().hits, points.size() - 1);
  EXPECT_EQ(cache.image_stats().misses, 1u);

  // The SPM branch of the same batch binds its placements from the same
  // relocatable program: still one miss of each.
  harness::SweepConfig spm_cfg = cfg;
  spm_cfg.setup = harness::MemSetup::Scratchpad;
  (void)harness::run_matrix({{&wl, spm_cfg}}, 1);
  EXPECT_EQ(cache.shape_stats().misses, 1u);
  EXPECT_EQ(cache.relocatable_stats().misses, 1u);
}

// ---- placements bound from the class table ---------------------------------

/// adpcm with a global's address shifted left in a dead register at the
/// top of main: the program runs as before, but a concrete image's shifted
/// address depends on where the global lands.
workloads::WorkloadInfo adpcm_with_shifted_address() {
  workloads::WorkloadInfo wl = workloads::make_adpcm(32);
  wl.name = "adpcm-shifted-address";
  minic::ObjFunction& fn = *std::find_if(
      wl.module.functions.begin(), wl.module.functions.end(),
      [](const minic::ObjFunction& f) { return f.name == "main"; });
  minic::Literal lit;
  lit.is_symbol = true;
  lit.symbol = wl.module.globals.front().name;
  minic::ObjInstr load;
  load.ins = isa::Instr{.op = isa::Op::LDR_LIT, .rd = 0};
  load.literal = fn.add_literal(lit);
  minic::ObjInstr shift;
  shift.ins = isa::Instr{.op = isa::Op::SHIFTI,
                         .sub = static_cast<uint8_t>(isa::ShiftOp::LSL),
                         .rd = 0,
                         .imm = 1};
  fn.code.insert(fn.code.begin(), {load, shift});
  for (uint32_t& pos : fn.label_pos)
    if (pos != UINT32_MAX) pos += 2;
  for (minic::LoopMark& loop : fn.loops) loop.header += 2;
  return wl;
}

/// Binds every energy placement of `wl`'s paper sizes from its relocatable
/// program and holds each field-equal to bind_view on the linked placement
/// (CFGs, memory facts, sites, function order, report), and each sweep
/// point's WCET to the linked one. Returns the functions analyzed at their
/// placement.
uint64_t expect_placements_match_links(const workloads::WorkloadInfo& wl) {
  harness::ArtifactCache cache;
  const auto relocatable = harness::relocatable_program(wl, cache);
  const auto record = harness::canonical_image(wl, cache);
  const auto run = harness::canonical_run(wl, cache);
  harness::SweepConfig cfg;
  cfg.artifacts = &cache;
  const auto points = harness::run_matrix({{&wl, cfg}}, 1).front();
  if (points.size() != cfg.sizes.size()) {
    ADD_FAILURE() << wl.name << ": " << points.size() << " points";
    return 0;
  }
  uint64_t reanalyzed = 0;
  std::size_t sites = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const uint32_t size = cfg.sizes[i];
    link::LinkOptions opts;
    opts.spm_size = size;
    const link::SpmAssignment assignment =
        alloc::allocate_energy_optimal(run->candidates, size).assignment;
    const link::Image img = link::link_program(wl.module, opts, assignment);
    const link::AddressMap addrs =
        link::assign_addresses(wl.module, record->extents, opts, assignment);
    EXPECT_EQ(addrs.spm_extent, img.spm_extent) << size;
    const wcet::PlacementBinding bound = wcet::bind_placement(
        *relocatable, wl.module, record->extents, opts, addrs);
    reanalyzed += bound.reanalyzed;
    const program::DecodedImage dec(img);
    const wcet::ProgramView oracle =
        wcet::bind_view(relocatable->canonical->shape, img, dec);
    const std::string what = wl.name + " spm " + std::to_string(size);
    test::expect_same_view(bound.view, oracle, what, sites);
    const wcet::WcetReport want = wcet::analyze_wcet(oracle, {});
    EXPECT_TRUE(wcet::analyze_wcet(bound.view, {}) == want) << what;
    EXPECT_EQ(points[i].wcet_cycles, want.wcet) << what;
  }
  EXPECT_GT(sites, 0u);
  return reanalyzed;
}

TEST(RelocatableProgram, UnplaceableFunctionIsAnalyzedAtEveryPlacement) {
  // main's shifted address has no symbolic form, so main's facts come from
  // analyzing it at each placement's addresses; no placement links.
  const workloads::WorkloadInfo wl = adpcm_with_shifted_address();
  harness::ArtifactCache cache;
  const auto relocatable = harness::relocatable_program(wl, cache);
  EXPECT_EQ(std::count_if(relocatable->functions.begin(),
                          relocatable->functions.end(),
                          [](const auto& fn) { return !fn.facts; }),
            1);
  EXPECT_GE(expect_placements_match_links(wl),
            harness::SweepConfig{}.sizes.size());
}

TEST(RelocatableProgram, PlaceablePlacementsMatchTheLinkedImage) {
  // The unmodified program binds every placement from its symbolic facts,
  // with the same views and WCETs as the linked placements.
  const workloads::WorkloadInfo wl = workloads::make_adpcm(32);
  harness::ArtifactCache cache;
  const auto relocatable = harness::relocatable_program(wl, cache);
  for (const auto& fn : relocatable->functions)
    EXPECT_TRUE(fn.facts.has_value());
  EXPECT_EQ(expect_placements_match_links(wl), 0u);
}

/// The programs the canonical-view parity covers: the paper trio, seeds
/// 1..20 of every generated shape, the three generated programs with a
/// function the symbolic domain cannot express, and the shifted-address
/// fixture.
std::vector<std::shared_ptr<const workloads::WorkloadInfo>>
canonical_parity_programs() {
  std::vector<std::shared_ptr<const workloads::WorkloadInfo>> out;
  for (const auto& wl : workloads::cached_paper_benchmarks()) out.push_back(wl);
  std::vector<std::string> names;
  for (const std::string& shape : workloads::gen_shape_names())
    for (uint32_t seed = 1; seed <= 20; ++seed)
      names.push_back("gen:" + shape + ":" + std::to_string(seed));
  for (const char* name : {"gen:branchy:23", "gen:branchy:95"})
    names.push_back(name); // gen:branchy:9 is among the seeds above
  for (const std::string& name : names)
    out.push_back(workloads::WorkloadRegistry::instance().benchmark(name));
  out.push_back(std::make_shared<const workloads::WorkloadInfo>(
      adpcm_with_shifted_address()));
  return out;
}

TEST(RelocatableProgram, CanonicalViewEqualsTheBoundCanonicalImage) {
  // The canonical view the harness analyzes (symbolic facts placed at the
  // canonical addresses) against bind_view on the canonical image, in every
  // field and in the report uncached, at 1 KiB direct-mapped, and at 1 KiB
  // 2-way with persistence.
  std::vector<AnalyzerConfig> configs(3);
  configs[1].cache = cache::CacheConfig{};
  configs[1].cache->size_bytes = 1024;
  configs[1].cache->line_bytes = 16;
  configs[2].cache = configs[1].cache;
  configs[2].cache->assoc = 2;
  configs[2].with_persistence = true;
  std::size_t programs = 0, sites = 0, unexpressed = 0;
  for (const auto& wl : canonical_parity_programs()) {
    harness::ArtifactCache cache;
    const auto relocatable = harness::relocatable_program(*wl, cache);
    const auto record = harness::canonical_image(*wl, cache);
    const wcet::ProgramView oracle = wcet::bind_view(
        relocatable->canonical->shape, record->image, record->decoded);
    test::expect_same_view(*relocatable->canonical, oracle, wl->name, sites);
    for (std::size_t c = 0; c < configs.size(); ++c)
      EXPECT_TRUE(wcet::analyze_wcet(*relocatable->canonical, configs[c]) ==
                  wcet::analyze_wcet(oracle, configs[c]))
          << wl->name << " config " << c;
    for (const auto& fn : relocatable->functions)
      unexpressed += fn.facts ? 0 : 1;
    ++programs;
  }
  EXPECT_EQ(programs, 3 + 5 * 20 + 2 + 1);
  EXPECT_GT(sites, programs);
  // gen:branchy:9, 23 and 95 and the fixture each hold such a function.
  EXPECT_GE(unexpressed, 4u);
}

} // namespace
} // namespace spmwcet
