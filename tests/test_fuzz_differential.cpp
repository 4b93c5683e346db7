// Differential fuzzing of the whole pipeline: random MiniC programs are
// executed by the reference interpreter (AST semantics) and by the real
// pipeline (codegen -> link -> cycle-accurate simulation); every global
// must match element for element. This hammers the code generator's
// register stack, spilling, short-circuit lowering, width handling, the
// linker's pools/relaxation, and the simulator's ALU in one property.
//
// The programs come from the shared generated-workload subsystem
// (src/workloads/generated.h) — the same deterministic generator behind
// the "gen:<shape>:<seed>" workload names — so every property proved here
// holds for exactly the corpus the corpus op and the population parity
// suite (tests/test_generated.cpp) run.
#include <gtest/gtest.h>

#include <memory>

#include "link/layout.h"
#include "minic/codegen.h"
#include "minic/interp.h"
#include "program/decoded_image.h"
#include "reference/map_cache_analysis.h"
#include "reference/seed_frontend.h"
#include "reference/simulator.h"
#include "sim/simulator.h"
#include "wcet/analyzer.h"
#include "wcet/cache_analysis.h"
#include "wcet/frontend.h"
#include "wcet/ipet.h"
#include "workloads/generated.h"

namespace spmwcet {
namespace {

using namespace minic;

/// One fuzz corpus member: the Mixed-shape generated program for `seed`
/// (guaranteed linkable — the generator owns the retry ladder that keeps
/// functions inside T16's pc-relative literal-pool range).
ProgramDef linkable_program(unsigned seed) {
  return workloads::generate_program(
      {static_cast<uint32_t>(seed), workloads::GenShape::Mixed});
}

void compare_globals(const ProgramDef& prog, const Interpreter& ref,
                     const sim::Simulator& s, const std::string& what) {
  for (const Global& g : prog.globals)
    for (uint32_t i = 0; i < g.count; ++i)
      ASSERT_EQ(s.read_global(g.name, i), ref.read_global(g.name, i))
          << what << ": " << g.name << "[" << i << "]";
}

class DifferentialFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(DifferentialFuzz, SimulatorMatchesInterpreter) {
  const ProgramDef prog = linkable_program(GetParam() * 2654435761u + 17u);

  Interpreter ref(prog);
  ref.run();

  const auto img = link::link_program(compile(prog));
  sim::Simulator s(img, {});
  s.run();
  compare_globals(prog, ref, s, "main-memory");
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz, ::testing::Range(1u, 81u));

class DifferentialFuzzSpm : public ::testing::TestWithParam<unsigned> {};

TEST_P(DifferentialFuzzSpm, PlacementAndCacheDontChangeSemantics) {
  const ProgramDef prog = linkable_program(GetParam() * 48271u + 3u);

  Interpreter ref(prog);
  ref.run();
  const auto mod = compile(prog);

  // Everything on the scratchpad.
  link::LinkOptions opts;
  opts.spm_size = 64 * 1024;
  link::SpmAssignment all;
  for (const auto& f : mod.functions) all.functions.insert(f.name);
  for (const auto& g : mod.globals) all.globals.insert(g.name);
  sim::Simulator spm_sim(link::link_program(mod, opts, all), {});
  spm_sim.run();
  compare_globals(prog, ref, spm_sim, "spm");

  // Tiny thrashing cache.
  sim::SimConfig ccfg;
  cache::CacheConfig cache_cfg;
  cache_cfg.size_bytes = 64;
  ccfg.cache = cache_cfg;
  sim::Simulator cache_sim(link::link_program(mod, {}, {}), ccfg);
  cache_sim.run();
  compare_globals(prog, ref, cache_sim, "cache");
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzzSpm, ::testing::Range(1u, 21u));

// WCET soundness property: for any program the analyzer accepts, the
// analyzed bound must dominate the cycle-accurate simulation — under a
// scratchpad placement and under a small direct-mapped cache alike. A
// violation means the analysis lost a path or mis-timed an access class,
// the one bug class this reproduction exists to rule out. Fixed seeds keep
// the run reproducible; 200 programs per configuration.
TEST(WcetSoundnessFuzz, BoundDominatesSimulationUnderSpmAndCache) {
  constexpr unsigned kPrograms = 200;
  for (unsigned seed = 1; seed <= kPrograms; ++seed) {
    const ProgramDef prog = linkable_program(seed * 69621u + 7u);
    const auto mod = compile(prog);

    // Scratchpad setup: every function and global placed on the SPM.
    {
      link::LinkOptions opts;
      opts.spm_size = 64 * 1024;
      link::SpmAssignment all;
      for (const auto& f : mod.functions) all.functions.insert(f.name);
      for (const auto& g : mod.globals) all.globals.insert(g.name);
      const auto img = link::link_program(mod, opts, all);
      sim::Simulator s(img, {});
      const auto run = s.run();
      const auto report = wcet::analyze_wcet(img, {});
      ASSERT_GE(report.wcet, run.cycles)
          << "seed " << seed << ": scratchpad WCET bound below simulation";
    }

    // Cache setup: a 256-byte unified direct-mapped cache, MUST analysis.
    {
      const auto img = link::link_program(mod, {}, {});
      cache::CacheConfig ccfg;
      ccfg.size_bytes = 256;
      sim::SimConfig scfg;
      scfg.cache = ccfg;
      sim::Simulator s(img, scfg);
      const auto run = s.run();
      wcet::AnalyzerConfig acfg;
      acfg.cache = ccfg;
      const auto report = wcet::analyze_wcet(img, acfg);
      ASSERT_GE(report.wcet, run.cycles)
          << "seed " << seed << ": cache WCET bound below simulation";
    }
  }
}

// Simulator parity property: the simulator must be indistinguishable from
// the seed simulator (reference::simulate) — cycles, instructions, cache
// stats, outputs and the full access profile — on arbitrary generated
// programs, not just the paper benchmarks. Covers the uncached profiling
// run and a small thrashing cache, whose hits and misses depend on the
// exact order of fetches and loads the compiled blocks report.
TEST(SimFastPathFuzz, SimulatorMatchesReferenceSimulator) {
  constexpr unsigned kPrograms = 100;
  const uint64_t runs = reference::simulator_runs();
  for (unsigned seed = 1; seed <= kPrograms; ++seed) {
    const ProgramDef prog = linkable_program(seed * 40503u + 11u);
    const auto img = link::link_program(compile(prog));
    for (const bool with_cache : {false, true}) {
      sim::SimConfig cfg;
      cfg.collect_profile = true;
      if (with_cache) {
        cache::CacheConfig ccfg;
        ccfg.size_bytes = 64;
        cfg.cache = ccfg;
      }
      const auto want = reference::simulate(img, cfg);
      sim::Simulator s(img, cfg);
      const auto got = s.run();
      const char* what = with_cache ? "64 B cache" : "uncached";
      ASSERT_EQ(got.cycles, want.cycles) << what << " seed " << seed;
      ASSERT_EQ(got.instructions, want.instructions)
          << what << " seed " << seed;
      ASSERT_EQ(got.cache_hits, want.cache_hits) << what << " seed " << seed;
      ASSERT_EQ(got.cache_misses, want.cache_misses)
          << what << " seed " << seed;
      ASSERT_EQ(got.output, want.output) << what << " seed " << seed;
      ASSERT_TRUE(got.profile == want.profile) << what << " seed " << seed;
      ASSERT_EQ(s.fallback_instructions(), 0u) << what << " seed " << seed;
    }
  }
  EXPECT_EQ(reference::simulator_runs(), runs + 2 * kPrograms);
}

// Analyzer front-end parity property: for arbitrary generated programs,
// the production front end (shared predecode + shape/bind) must produce
// the same report as the seed front end (reference::seed_view) through the
// same back end — under the plain
// layout, an everything-on-SPM placement, and a small unified cache. This
// is the generalization of the paper-workload parity suite in
// tests/test_wcet_frontend.cpp to programs nobody hand-picked.
TEST(WcetFrontendFuzz, IrAndLegacyAnalyzersAreFieldIdentical) {
  constexpr unsigned kPrograms = 60;
  for (unsigned seed = 1; seed <= kPrograms; ++seed) {
    const ProgramDef prog = linkable_program(seed * 83492791u + 5u);
    const auto mod = compile(prog);

    const auto compare = [&](const link::Image& img,
                             const wcet::AnalyzerConfig& acfg) {
      const auto fast = wcet::analyze_wcet(img, acfg);
      const auto legacy =
          wcet::analyze_wcet(reference::seed_view(img), acfg);
      ASSERT_EQ(fast.wcet, legacy.wcet) << "seed " << seed;
      ASSERT_EQ(fast.fetch_sites, legacy.fetch_sites) << "seed " << seed;
      ASSERT_EQ(fast.fetch_always_hit, legacy.fetch_always_hit)
          << "seed " << seed;
      ASSERT_EQ(fast.load_sites, legacy.load_sites) << "seed " << seed;
      ASSERT_EQ(fast.load_always_hit, legacy.load_always_hit)
          << "seed " << seed;
      ASSERT_EQ(fast.functions.size(), legacy.functions.size())
          << "seed " << seed;
      for (const auto& [name, fl] : legacy.functions) {
        const auto it = fast.functions.find(name);
        ASSERT_NE(it, fast.functions.end()) << "seed " << seed;
        ASSERT_EQ(it->second.wcet, fl.wcet) << "seed " << seed << " " << name;
        ASSERT_EQ(it->second.blocks, fl.blocks)
            << "seed " << seed << " " << name;
      }
    };

    compare(link::link_program(mod), {});

    link::LinkOptions opts;
    opts.spm_size = 64 * 1024;
    link::SpmAssignment all;
    for (const auto& f : mod.functions) all.functions.insert(f.name);
    for (const auto& g : mod.globals) all.globals.insert(g.name);
    compare(link::link_program(mod, opts, all), {});

    wcet::AnalyzerConfig acfg;
    cache::CacheConfig ccfg;
    ccfg.size_bytes = 256;
    acfg.cache = ccfg;
    compare(link::link_program(mod), acfg);
  }
}

/// Field-exact WcetReport comparison, down to each block of every
/// function's worst-case profile (IPET flow solutions are compared
/// exactly, not merely by objective value).
void expect_reports_identical(const wcet::WcetReport& a,
                              const wcet::WcetReport& b,
                              const std::string& what) {
  ASSERT_EQ(a.wcet, b.wcet) << what;
  ASSERT_EQ(a.fetch_sites, b.fetch_sites) << what;
  ASSERT_EQ(a.fetch_always_hit, b.fetch_always_hit) << what;
  ASSERT_EQ(a.load_sites, b.load_sites) << what;
  ASSERT_EQ(a.load_always_hit, b.load_always_hit) << what;
  ASSERT_EQ(a.persistent_sites, b.persistent_sites) << what;
  ASSERT_EQ(a.persistence_penalty_cycles, b.persistence_penalty_cycles)
      << what;
  ASSERT_EQ(a.functions.size(), b.functions.size()) << what;
  for (const auto& [name, fb] : b.functions) {
    const auto it = a.functions.find(name);
    ASSERT_NE(it, a.functions.end()) << what << " " << name;
    const wcet::FunctionWcet& fa = it->second;
    ASSERT_EQ(fa.wcet, fb.wcet) << what << " " << name;
    ASSERT_EQ(fa.blocks, fb.blocks) << what << " " << name;
    ASSERT_EQ(fa.loops, fb.loops) << what << " " << name;
    ASSERT_EQ(fa.block_profile.size(), fb.block_profile.size())
        << what << " " << name;
    for (std::size_t i = 0; i < fb.block_profile.size(); ++i) {
      ASSERT_EQ(fa.block_profile[i].addr, fb.block_profile[i].addr)
          << what << " " << name << " block " << i;
      ASSERT_EQ(fa.block_profile[i].count, fb.block_profile[i].count)
          << what << " " << name << " block " << i;
      ASSERT_EQ(fa.block_profile[i].cycles, fb.block_profile[i].cycles)
          << what << " " << name << " block " << i;
    }
  }
}

// Incremental-IPET parity property: solving a point through the cached
// LP skeleton (phase-1 tableau reuse + per-point objective rewrite) must
// be field-exact against the from-scratch solve — same WCET, same
// per-block flow solution — over the same 200-program seeded corpus the
// soundness fuzz uses, under the SPM-all and small-cache setups.
TEST(IncrementalIpetFuzz, CachedSkeletonMatchesFromScratchFieldExactly) {
  constexpr unsigned kPrograms = 200;
  wcet::IpetCacheStats skeletons;
  for (unsigned seed = 1; seed <= kPrograms; ++seed) {
    const ProgramDef prog = linkable_program(seed * 69621u + 7u);
    const auto mod = compile(prog);

    const auto compare = [&](const link::Image& img,
                             wcet::AnalyzerConfig acfg) {
      const program::DecodedImage dec(img);
      const auto shape = std::make_shared<const wcet::ProgramShape>(
          wcet::build_shape(img, dec));
      const wcet::ProgramView view = wcet::bind_view(shape, img, dec);

      const wcet::IpetCache ipet;
      acfg.ipet_cache = &ipet;
      const auto incr = wcet::analyze_wcet(view, acfg);
      // Re-run on the warm cache too: hits must be as exact as builds.
      const auto warm = wcet::analyze_wcet(view, acfg);

      acfg.ipet_cache = nullptr;
      const auto scratch = wcet::analyze_wcet(view, acfg);

      const std::string what = "seed " + std::to_string(seed);
      expect_reports_identical(incr, scratch, what + " cold");
      expect_reports_identical(warm, scratch, what + " warm");
      skeletons.hits += ipet.stats().hits;
      skeletons.fallbacks += ipet.stats().fallbacks;
    };

    {
      link::LinkOptions opts;
      opts.spm_size = 64 * 1024;
      link::SpmAssignment all;
      for (const auto& f : mod.functions) all.functions.insert(f.name);
      for (const auto& g : mod.globals) all.globals.insert(g.name);
      compare(link::link_program(mod, opts, all), {});
    }
    {
      wcet::AnalyzerConfig acfg;
      cache::CacheConfig ccfg;
      ccfg.size_bytes = 256;
      acfg.cache = ccfg;
      compare(link::link_program(mod, {}, {}), acfg);
    }
  }
  // The skeleton side served solves and never fell back to a cold solve.
  EXPECT_GT(skeletons.hits, 0u);
  EXPECT_EQ(skeletons.fallbacks, 0u);
}

// The same property on the paper trio plus a gen:mixed slice, solved the
// way a batch solves them: one skeleton store per workload shared by
// every placement and cache size, against the from-scratch solve of the
// same view.
TEST(IncrementalIpetFuzz, SharedSkeletonsMatchFromScratchOnTrioAndMixedSlice) {
  std::vector<std::string> names = workloads::paper_benchmark_names();
  for (uint32_t seed = 1; seed <= 8; ++seed)
    names.push_back("gen:mixed:" + std::to_string(seed));
  wcet::IpetCacheStats skeletons;
  for (const std::string& name : names) {
    const auto wl = workloads::WorkloadRegistry::instance().benchmark(name);
    const link::Image canonical = link::link_program(wl->module, {}, {});
    const program::DecodedImage cdec(canonical);
    const auto shape = std::make_shared<const wcet::ProgramShape>(
        wcet::build_shape(canonical, cdec));
    const wcet::IpetCache ipet;
    const auto compare = [&](const wcet::ProgramView& view,
                             wcet::AnalyzerConfig acfg,
                             const std::string& what) {
      acfg.ipet_cache = &ipet;
      const auto incr = wcet::analyze_wcet(view, acfg);
      acfg.ipet_cache = nullptr;
      expect_reports_identical(incr, wcet::analyze_wcet(view, acfg), what);
    };

    // Scratchpad: everything placed, then halves of the objects, so the
    // shared skeletons see several layouts of one shape.
    const auto& mod = wl->module;
    for (const uint32_t part : {0u, 1u, 2u}) {
      link::LinkOptions opts;
      opts.spm_size = 256 * 1024;
      link::SpmAssignment spm;
      std::size_t i = 0;
      for (const auto& f : mod.functions)
        if (part == 0 || i++ % 2 == part - 1) spm.functions.insert(f.name);
      for (const auto& g : mod.globals)
        if (part == 0 || i++ % 2 == part - 1) spm.globals.insert(g.name);
      const link::Image img = link::link_program(mod, opts, spm);
      const program::DecodedImage dec(img);
      compare(wcet::bind_view(shape, img, dec), {},
              name + " spm part " + std::to_string(part));
    }

    const wcet::ProgramView view = wcet::bind_view(shape, canonical, cdec);
    for (const uint32_t size : {64u, 512u, 4096u})
      for (const bool pers : {false, true}) {
        wcet::AnalyzerConfig acfg;
        cache::CacheConfig ccfg;
        ccfg.size_bytes = size;
        acfg.cache = ccfg;
        acfg.with_persistence = pers;
        compare(view, acfg,
                name + " cache " + std::to_string(size) +
                    (pers ? " persistence" : ""));
      }
    skeletons.hits += ipet.stats().hits;
    skeletons.fallbacks += ipet.stats().fallbacks;
  }
  EXPECT_GT(skeletons.hits, 0u);
  EXPECT_EQ(skeletons.fallbacks, 0u);
}

// Flat-persistence parity property: with persistence enabled, the flat
// tag/age analysis must classify every access exactly as the reference
// map-based analysis does, through the one seed-to-site adapter
// (to_sites), on arbitrary generated programs across cache geometries;
// and the production report must equal the seed front end's through the
// same back end.
TEST(FlatPersistenceFuzz, FlatAndMapPersistenceAreFieldIdentical) {
  constexpr unsigned kPrograms = 60;
  for (unsigned seed = 1; seed <= kPrograms; ++seed) {
    const ProgramDef prog = linkable_program(seed * 83492791u + 5u);
    const auto img = link::link_program(compile(prog), {}, {});
    const program::DecodedImage dec(img);
    const wcet::ProgramView view =
        wcet::bind_view(std::make_shared<const wcet::ProgramShape>(
                            wcet::build_shape(img, dec)),
                        img, dec);

    for (const uint32_t size : {64u, 256u, 1024u}) {
      for (const bool unified : {true, false}) {
        wcet::AnalyzerConfig acfg;
        cache::CacheConfig ccfg;
        ccfg.size_bytes = size;
        ccfg.unified = unified;
        acfg.cache = ccfg;
        acfg.with_persistence = true;

        const auto flat = wcet::analyze_wcet(img, acfg);
        const auto legacy =
            wcet::analyze_wcet(reference::seed_view(img), acfg);

        const std::string what = "seed " + std::to_string(seed) + " size " +
                                 std::to_string(size) +
                                 (unified ? " unified" : " icache");
        expect_reports_identical(flat, legacy, what + " flat-vs-legacy");

        wcet::CacheAnalysisConfig cls_cfg;
        cls_cfg.cache = ccfg;
        cls_cfg.with_persistence = true;
        const wcet::SiteClassification sites =
            wcet::analyze_cache_flat(img.initial_sp, view.structure->cfgs,
                                     view.facts, view.structure->root,
                                     cls_cfg);
        const wcet::SiteClassification seed_sites = reference::to_sites(
            view.structure->cfgs,
            reference::analyze_cache(img, view.structure->cfgs, view.facts,
                                     view.structure->root, cls_cfg));
        ASSERT_EQ(sites.sites, seed_sites.sites) << what;
        ASSERT_EQ(sites.persistent_penalty_lines,
                  seed_sites.persistent_penalty_lines)
            << what;
      }
    }
  }
}

TEST(Interpreter, MatchesSimulatorOnBenchSuite) {
  // The interpreter must also agree on the real G.721 program (strongest
  // single check of the shared semantics).
  // Rebuilding the AST here is cheap; reuse the multisort workload's
  // bubble variant via minic directly is not exposed, so assemble a small
  // fixed program instead.
  ProgramDef p;
  p.add_global({.name = "out", .type = ElemType::I32, .count = 4});
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  m.body->body.push_back(assign("acc", cst(0)));
  std::vector<StmtPtr> loop;
  loop.push_back(assign("acc", add(var("acc"), mul(var("i"), var("i")))));
  m.body->body.push_back(for_("i", cst(0), cst(10), 1, block(std::move(loop))));
  m.body->body.push_back(store("out", cst(0), var("acc")));
  m.body->body.push_back(store("out", cst(1), sdiv(var("acc"), cst(3))));
  m.body->body.push_back(store("out", cst(2), asr(neg(var("acc")), cst(2))));
  m.body->body.push_back(store("out", cst(3), bxor(var("acc"), cst(0xFF))));
  m.body->body.push_back(ret());

  Interpreter ref(p);
  ref.run();
  EXPECT_EQ(ref.read_global("out", 0), 285);

  sim::Simulator s(link::link_program(compile(p)), {});
  s.run();
  for (uint32_t i = 0; i < 4; ++i)
    EXPECT_EQ(s.read_global("out", i), ref.read_global("out", i));
}

} // namespace
} // namespace spmwcet
