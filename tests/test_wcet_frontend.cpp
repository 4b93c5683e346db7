// The analyzer IR front end (wcet/frontend.h): layout-invariant shape
// building, per-image binding, and — the property everything rests on —
// field-exact parity between bind_view and the seed front end
// (reference::seed_view, tests/reference/) through the same back end,
// across every paper workload, setup, placement and cache geometry. The
// harness-level tests pin the shared shapes and views of the sweep
// pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "alloc/allocator.h"
#include "harness/artifact_cache.h"
#include "harness/experiment.h"
#include "harness/sweep_runner.h"
#include "link/layout.h"
#include "program/decoded_image.h"
#include "reference/map_cache_analysis.h"
#include "reference/seed_frontend.h"
#include "sim/simulator.h"
#include "wcet/analyzer.h"
#include "wcet/cache_analysis.h"
#include "wcet/frontend.h"
#include "wcet/ipet.h"
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
  // All 8 cache sizes bind one shape and share one view and one decode.
  EXPECT_EQ(cache.shape_stats().misses, 1u);
  EXPECT_EQ(cache.view_stats().misses, 1u);
  EXPECT_EQ(cache.view_stats().hits, points.size() - 1);
  EXPECT_EQ(cache.decoded_stats().misses, 1u);

  // The SPM branch of the same batch reuses the same shape: still one miss.
  harness::SweepConfig spm_cfg = cfg;
  spm_cfg.setup = harness::MemSetup::Scratchpad;
  (void)harness::run_matrix({{&wl, spm_cfg}}, 1);
  EXPECT_EQ(cache.shape_stats().misses, 1u);
}

} // namespace
} // namespace spmwcet
