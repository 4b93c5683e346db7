// The analyzer IR front end (wcet/frontend.h): layout-invariant shape
// building, per-image binding, and — the property everything rests on —
// field-exact parity between the IR analyzer and the seed (--legacy-wcet)
// analyzer across every paper workload, setup, placement and cache
// geometry. The harness-level tests pin the same parity through the sweep
// pipeline with cached shapes/views.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "alloc/allocator.h"
#include "harness/artifact_cache.h"
#include "harness/experiment.h"
#include "link/layout.h"
#include "program/decoded_image.h"
#include "sim/simulator.h"
#include "wcet/analyzer.h"
#include "wcet/cache_analysis.h"
#include "wcet/frontend.h"
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

void expect_parity(const link::Image& img, AnalyzerConfig cfg,
                   const std::string& what) {
  cfg.fast_path = true;
  const WcetReport fast = wcet::analyze_wcet(img, cfg);
  cfg.fast_path = false;
  const WcetReport legacy = wcet::analyze_wcet(img, cfg);
  expect_report_eq(fast, legacy, what);
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

TEST(ProgramShape, OneShapeServesEveryPlacement) {
  // The core layout-invariance claim: a shape built from the canonical
  // image binds to every SPM placement and reproduces the seed analyzer
  // field for field.
  for (const auto& wl : workloads::cached_paper_benchmarks()) {
    const link::Image canonical = link::link_program(wl->module, {}, {});
    const program::DecodedImage cdec(canonical);
    const auto shape = std::make_shared<const wcet::ProgramShape>(
        wcet::build_shape(canonical, cdec));
    const sim::AccessProfile profile = profile_of(canonical);
    for (const uint32_t size : {64u, 512u, 4096u}) {
      const link::Image img = placed_image(*wl, profile, size);
      const program::DecodedImage dec(img);
      const WcetReport fast =
          wcet::analyze_wcet(wcet::bind_view(shape, img, dec), {});
      AnalyzerConfig legacy_cfg;
      legacy_cfg.fast_path = false;
      const WcetReport legacy = wcet::analyze_wcet(img, legacy_cfg);
      expect_report_eq(fast, legacy,
                       wl->name + "/spm" + std::to_string(size));
    }
  }
}

TEST(ProgramView, OneViewServesEveryCacheSize) {
  for (const auto& wl : workloads::cached_paper_benchmarks()) {
    const link::Image img = link::link_program(wl->module, {}, {});
    const program::DecodedImage dec(img);
    const auto shape =
        std::make_shared<const wcet::ProgramShape>(wcet::build_shape(img, dec));
    const wcet::ProgramView view = wcet::bind_view(shape, img, dec);
    for (const uint32_t size : {64u, 1024u, 8192u}) {
      AnalyzerConfig cfg;
      cache::CacheConfig ccfg;
      ccfg.size_bytes = size;
      cfg.cache = ccfg;
      const WcetReport fast = wcet::analyze_wcet(view, cfg);
      cfg.fast_path = false;
      const WcetReport legacy = wcet::analyze_wcet(img, cfg);
      expect_report_eq(fast, legacy,
                       wl->name + "/cache" + std::to_string(size));
    }
  }
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
      cfg.fast_path = fast;
      try {
        const WcetReport report = wcet::analyze_wcet(img, cfg, &hints_only);
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
            wcet::analyze_cache(img, cfgs, img.entry, ccfg);
        const auto flat = wcet::analyze_cache_flat(img, cfgs, img.entry, ccfg);
        // Through the one adapter: the seed sets in per-site form.
        const auto want = wcet::to_sites(cfgs, seed);
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

// ---- harness pipeline parity (cached shapes/views included) ----------------

TEST(HarnessWcetParity, SweepPointsIdenticalWithLegacyAnalyzer) {
  for (const auto setup :
       {harness::MemSetup::Scratchpad, harness::MemSetup::Cache}) {
    for (const auto& wl : workloads::cached_paper_benchmarks()) {
      harness::SweepConfig fast_cfg;
      fast_cfg.setup = setup;
      fast_cfg.sizes = {128, 1024};
      harness::SweepConfig legacy_cfg = fast_cfg;
      legacy_cfg.fast_wcet = false;
      const auto fast = harness::run_sweep(*wl, fast_cfg);
      const auto legacy = harness::run_sweep(*wl, legacy_cfg);
      ASSERT_EQ(fast.size(), legacy.size());
      for (std::size_t i = 0; i < fast.size(); ++i) {
        EXPECT_EQ(fast[i].size_bytes, legacy[i].size_bytes);
        EXPECT_EQ(fast[i].sim_cycles, legacy[i].sim_cycles);
        EXPECT_EQ(fast[i].wcet_cycles, legacy[i].wcet_cycles);
        EXPECT_EQ(fast[i].ratio, legacy[i].ratio);
        EXPECT_EQ(fast[i].cache_hits, legacy[i].cache_hits);
        EXPECT_EQ(fast[i].cache_misses, legacy[i].cache_misses);
        EXPECT_EQ(fast[i].spm_used_bytes, legacy[i].spm_used_bytes);
        EXPECT_EQ(fast[i].energy_nj, legacy[i].energy_nj);
      }
    }
  }
}

TEST(HarnessWcetParity, ArtifactCacheSharesShapesAndViews) {
  const auto& wl = *workloads::cached_paper_benchmarks().front();
  harness::ArtifactCache cache;
  harness::SweepConfig cfg;
  cfg.setup = harness::MemSetup::Cache;
  cfg.artifacts = &cache;
  const auto points = harness::run_sweep(wl, cfg);
  ASSERT_EQ(points.size(), harness::SweepConfig{}.sizes.size());
  // All 8 cache sizes bind one shape and share one view and one decode.
  EXPECT_EQ(cache.shape_stats().misses, 1u);
  EXPECT_EQ(cache.view_stats().misses, 1u);
  EXPECT_EQ(cache.view_stats().hits, points.size() - 1);
  EXPECT_EQ(cache.decoded_stats().misses, 1u);

  // The SPM branch of the same batch reuses the same shape: still one miss.
  harness::SweepConfig spm_cfg = cfg;
  spm_cfg.setup = harness::MemSetup::Scratchpad;
  (void)harness::run_sweep(wl, spm_cfg);
  EXPECT_EQ(cache.shape_stats().misses, 1u);
}

} // namespace
} // namespace spmwcet
