// Interprocedural cache-analysis tests: MUST classification on crafted
// programs (straight-line hits, loop-header misses under MUST-only, callee
// clobbering, data clobbering) — the mechanisms behind the paper's
// flat-WCET-with-cache observation.
#include <gtest/gtest.h>

#include <algorithm>

#include "link/layout.h"
#include "minic/codegen.h"
#include "reference/map_cache_analysis.h"
#include "wcet/analyzer.h"
#include "wcet/site_table.h"
#include "wcet/cache_analysis.h"
#include "wcet/cfg.h"
#include "wcet/value_analysis.h"

namespace spmwcet::wcet {
namespace {

using namespace minic;
using reference::analyze_cache;
using reference::CacheClassification;
using reference::to_sites;

struct Classified {
  link::Image img;
  CacheClassification cls;
  std::map<uint32_t, Cfg> cfgs;
};

/// Every reachable function's CFG with this image's memory facts, through
/// the same resolution step the analyzer front ends use.
std::map<uint32_t, Cfg> resolved_cfgs(const link::Image& img) {
  const Annotations ann = Annotations::from_image(img);
  std::map<uint32_t, Cfg> cfgs;
  for (const uint32_t f : reachable_functions(img, img.entry))
    resolve_memory(img, cfgs.emplace(f, build_cfg(img, f)).first->second,
                   ann);
  return cfgs;
}

Classified classify(const minic::ObjModule& mod, uint32_t cache_bytes,
                    bool persistence = false) {
  Classified out{link::link_program(mod, {}, {}), {}, {}};
  out.cfgs = resolved_cfgs(out.img);
  CacheAnalysisConfig ccfg;
  ccfg.cache.size_bytes = cache_bytes;
  ccfg.with_persistence = persistence;
  out.cls = analyze_cache(out.img, out.cfgs, out.img.entry, ccfg);
  return out;
}

bool has(const AddrSet& s, uint32_t addr) {
  return std::binary_search(s.begin(), s.end(), addr);
}

/// True when the reference map analysis' sets, brought to per-site form
/// through the one adapter (to_sites), agree with the production analysis
/// site for site (the
/// MUST and persistence fixpoints have unique solutions, so any faithful
/// pair of implementations must classify every access alike, not merely
/// the same number of them).
void expect_equal(const std::map<uint32_t, Cfg>& cfgs,
                  const CacheClassification& seed,
                  const SiteClassification& flat) {
  const SiteClassification want = to_sites(cfgs, seed);
  EXPECT_EQ(want.sites, flat.sites);
  EXPECT_EQ(want.persistent_penalty_lines, flat.persistent_penalty_lines);
}

ProgramDef straight_line(int stmts_n) {
  ProgramDef p;
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  for (int i = 0; i < stmts_n; ++i)
    m.body->body.push_back(assign("x", cst(i % 200)));
  return p;
}

TEST(CacheAnalysis, SequentialFetchesHitWithinLines) {
  // Long straight-line code: after the first fetch of each 16-byte line
  // the remaining halfword fetches in that line must be always-hit —
  // unless a stack access in between clobbers the set (none here between
  // plain MOVIs).
  auto p = straight_line(40);
  const auto c = classify(compile(p), 8192);
  EXPECT_GT(c.cls.fetch_always_hit.size(), 20u)
      << "most sequential fetches share a line with their predecessor";
}

TEST(CacheAnalysis, MustOnlyCannotProveLoopBodyHits) {
  // The paper's key effect: with MUST-only analysis, a loop body's fetches
  // are never always-hit at the loop header (the entry path did not load
  // them), even though simulation hits every iteration after the first.
  ProgramDef p;
  p.add_global({.name = "r", .type = ElemType::I32, .count = 1});
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  m.body->body.push_back(assign("s", cst(0)));
  std::vector<StmtPtr> loop;
  loop.push_back(assign("s", add(var("s"), cst(1))));
  m.body->body.push_back(for_("i", cst(0), cst(100), 1, block(std::move(loop))));
  m.body->body.push_back(gassign("r", var("s")));
  m.body->body.push_back(ret());
  const auto mod = compile(p);

  const auto must_only = classify(mod, 8192, false);
  const auto with_pers = classify(mod, 8192, true);

  // The loop-header block's first fetch can never be always-hit under
  // MUST-only; persistence classifies additional accesses.
  EXPECT_GT(with_pers.cls.fetch_persistent.size(), 0u);
  EXPECT_GT(with_pers.cls.fetch_always_hit.size() +
                with_pers.cls.fetch_persistent.size(),
            must_only.cls.fetch_always_hit.size());
}

TEST(CacheAnalysis, UnknownAddressLoadClobbersGuarantees) {
  // A data-dependent array read between two identical scalar reads: the
  // second scalar read cannot be always-hit in a small cache (the array
  // range covers every set) but survives in a cache bigger than the range.
  ProgramDef p;
  p.add_global({.name = "big", .type = ElemType::I32, .count = 64});
  p.add_global({.name = "k", .type = ElemType::I32, .count = 1});
  p.add_global({.name = "r", .type = ElemType::I32, .count = 1});
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  m.body->body.push_back(assign("a", gld("k")));           // scalar load
  m.body->body.push_back(assign("b", idx("big", var("a")))); // unknown index
  m.body->body.push_back(assign("c", gld("k")));           // scalar again
  m.body->body.push_back(gassign("r", add(var("b"), var("c"))));
  m.body->body.push_back(ret());
  const auto mod = compile(p);

  // 64-byte cache: the 256-byte array range touches all 4 sets -> the
  // second load of k must NOT be always-hit.
  const auto small = classify(mod, 64);
  // Find the two exact loads of k.
  const link::Symbol* k = small.img.find_symbol("k");
  int k_loads = 0, k_hits = 0;
  for (const auto& [addr, sym] : small.img.access_hints) {
    if (sym != "k") continue;
    ++k_loads;
    if (has(small.cls.load_always_hit, addr)) ++k_hits;
  }
  ASSERT_EQ(k_loads, 2);
  EXPECT_EQ(k_hits, 0) << "tiny cache: array clobber kills both k loads";
  (void)k;

  // 8 KiB cache: the array maps to a fraction of the sets; whether k's set
  // survives depends on layout, but the analysis must classify at least as
  // many hits as in the tiny cache.
  const auto big = classify(mod, 8192);
  int k_hits_big = 0;
  for (const auto& [addr, sym] : big.img.access_hints)
    if (sym == "k" && has(big.cls.load_always_hit, addr)) ++k_hits_big;
  EXPECT_GE(k_hits_big, k_hits);
}

TEST(CacheAnalysis, CalleeEffectsPropagateToContinuation) {
  // A callee with a large body evicts the caller's line in a small cache:
  // fetches after the call must not claim always-hit just because the
  // caller's line was cached before the call.
  ProgramDef p;
  p.add_global({.name = "r", .type = ElemType::I32, .count = 1});
  auto& big = p.add_function("bigfn", {}, true);
  big.body = block({});
  for (int i = 0; i < 60; ++i)
    big.body->body.push_back(assign("x", cst(i % 100)));
  big.body->body.push_back(ret(cst(0)));
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  m.body->body.push_back(assign("a", cst(1)));
  m.body->body.push_back(assign("b", call("bigfn", {})));
  m.body->body.push_back(gassign("r", add(var("a"), var("b"))));
  m.body->body.push_back(ret());
  const auto mod = compile(p);

  // Cache smaller than bigfn's code: the continuation's fetches cannot be
  // guaranteed (bigfn swept the whole cache).
  const auto c = classify(mod, 64);
  const Cfg& main_cfg = [&]() -> const Cfg& {
    for (const auto& [f, cfg] : c.cfgs)
      if (cfg.name == "main") return cfg;
    throw std::logic_error("main not found");
  }();
  for (const auto& b : main_cfg.blocks) {
    bool after_call = false;
    for (const auto& ob : main_cfg.blocks)
      if (ob.call_target && ob.end_addr == b.first_addr) after_call = true;
    if (!after_call) continue;
    EXPECT_FALSE(has(c.cls.fetch_always_hit, b.first_addr))
        << "continuation fetch claimed always-hit through a clobbering call";
  }
}

TEST(CacheAnalysis, SpmCodeBypassesTheCache) {
  // A function placed on the scratchpad must contribute no fetch
  // classifications at all (its fetches never touch the cache).
  ProgramDef p;
  p.add_global({.name = "r", .type = ElemType::I32, .count = 1});
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  for (int i = 0; i < 10; ++i) m.body->body.push_back(assign("x", cst(i)));
  m.body->body.push_back(gassign("r", var("x")));
  m.body->body.push_back(ret());
  const auto mod = compile(p);

  link::LinkOptions opts;
  opts.spm_size = 4096;
  link::SpmAssignment spm;
  spm.functions.insert("main");
  const link::Image img = link::link_program(mod, opts, spm);
  const std::map<uint32_t, Cfg> cfgs = resolved_cfgs(img);
  CacheAnalysisConfig ccfg;
  ccfg.cache.size_bytes = 1024;
  const auto cls = analyze_cache(img, cfgs, img.entry, ccfg);
  const link::Symbol* mainsym = img.find_symbol("main");
  for (const uint32_t addr : cls.fetch_always_hit)
    EXPECT_FALSE(addr >= mainsym->addr && addr < mainsym->addr + mainsym->size)
        << "SPM fetches must not appear in cache classifications";
}

TEST(CacheAnalysis, ClassificationCountsAppearInReport) {
  auto p = straight_line(30);
  const auto img = link::link_program(compile(p), {}, {});
  wcet::AnalyzerConfig acfg;
  cache::CacheConfig ccfg;
  ccfg.size_bytes = 4096;
  acfg.cache = ccfg;
  const auto report = analyze_wcet(img, acfg);
  EXPECT_GT(report.fetch_sites, 0u);
  EXPECT_GT(report.fetch_always_hit, 0u);
  EXPECT_LE(report.fetch_always_hit, report.fetch_sites);
}

TEST(CacheAnalysis, UnresolvedCfgIsRefusedByTheBackEnd) {
  // A CFG that never went through resolve_memory carries default facts —
  // no data accesses, every fetch in main memory. The back end must refuse
  // it rather than analyze that fiction.
  const auto img = link::link_program(compile(straight_line(10)), {}, {});
  std::map<uint32_t, Cfg> unresolved;
  for (const uint32_t f : reachable_functions(img, img.entry))
    unresolved.emplace(f, build_cfg(img, f));
  CacheAnalysisConfig ccfg;
  ccfg.cache.size_bytes = 1024;
  EXPECT_THROW(analyze_cache_flat(img, unresolved, img.entry, ccfg),
               spmwcet::Error);
  EXPECT_THROW(analyze_cache(img, unresolved, img.entry, ccfg),
               spmwcet::Error);
  // Block timing reads the site table, which a view's scaffold builds.
  EXPECT_THROW(build_site_table(unresolved), spmwcet::Error);

  const std::map<uint32_t, Cfg> resolved = resolved_cfgs(img);
  EXPECT_NO_THROW(analyze_cache_flat(img, resolved, img.entry, ccfg));
  EXPECT_NO_THROW(build_site_table(resolved));
}

// ---- flat persistence domain -----------------------------------------------

/// A program that exercises the persistence domain beyond MUST: loops (the
/// case MUST cannot classify), global array traffic, and a call.
ProgramDef persistence_workout() {
  ProgramDef p;
  p.add_global({.name = "r", .type = ElemType::I32, .count = 1});
  p.add_global({.name = "tbl", .type = ElemType::I32, .count = 16});
  auto& helper = p.add_function("helper", {"k"}, true);
  helper.body = block({});
  helper.body->body.push_back(ret(add(var("k"), idx("tbl", cst(3)))));
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  m.body->body.push_back(assign("s", cst(0)));
  std::vector<StmtPtr> loop;
  loop.push_back(store("tbl", var("i"), var("s")));
  std::vector<ExprPtr> args;
  args.push_back(var("i"));
  loop.push_back(
      assign("s", add(var("s"), call("helper", std::move(args)))));
  m.body->body.push_back(
      for_("i", cst(0), cst(12), 1, block(std::move(loop))));
  m.body->body.push_back(gassign("r", var("s")));
  m.body->body.push_back(ret());
  return p;
}

TEST(CacheAnalysis, FlatPersistenceMatchesMapAnalysisAcrossGeometries) {
  // MUST only and with persistence, every paper cache size, direct-mapped
  // and set-associative, unified and instruction-only. The loop and the
  // call make the worklist revisit nodes, so the flat analysis' in-fixpoint
  // classification is checked where a node's earlier visits saw a state
  // that was not yet final.
  const auto mod = compile(persistence_workout());
  const link::Image img = link::link_program(mod, {}, {});
  const std::map<uint32_t, Cfg> cfgs = resolved_cfgs(img);
  const uint64_t map_runs = reference::map_analysis_runs();
  int classified = 0, persistent = 0;
  for (const bool persistence : {false, true}) {
    for (const uint32_t size : {64u, 128u, 256u, 512u, 1024u, 2048u, 4096u,
                                8192u}) {
      for (const uint32_t assoc : {1u, 2u, 4u}) {
        for (const bool unified : {true, false}) {
          CacheAnalysisConfig ccfg;
          ccfg.cache.size_bytes = size;
          ccfg.cache.assoc = assoc;
          ccfg.cache.unified = unified;
          ccfg.with_persistence = persistence;
          const auto map_cls = analyze_cache(img, cfgs, img.entry, ccfg);
          const auto flat_cls =
              analyze_cache_flat(img, cfgs, img.entry, ccfg);
          SCOPED_TRACE("persistence=" + std::to_string(persistence) +
                       " size=" + std::to_string(size) +
                       " assoc=" + std::to_string(assoc) +
                       " unified=" + std::to_string(unified));
          expect_equal(cfgs, map_cls, flat_cls);
          classified += std::any_of(flat_cls.sites.begin(),
                                    flat_cls.sites.end(),
                                    [](uint8_t b) { return b != 0; });
          persistent += !flat_cls.persistent_penalty_lines.empty();
        }
      }
    }
  }
  // Both sides ran, and the comparisons covered classified sites and
  // persistent lines, not only all-Miss results.
  EXPECT_EQ(reference::map_analysis_runs() - map_runs, 2u * 8 * 3 * 2);
  EXPECT_EQ(classified, 2 * 8 * 3 * 2);
  EXPECT_GT(persistent, 0);
}

TEST(CacheAnalysis, FlatPathActuallyRunsPersistenceAnalyses) {
  // With persistence enabled, the analyzer must run the flat persistence
  // analysis itself; the map analysis is a test oracle only.
  const auto mod = compile(persistence_workout());
  const link::Image img = link::link_program(mod, {}, {});
  wcet::AnalyzerConfig acfg;
  cache::CacheConfig ccfg;
  ccfg.size_bytes = 8192;
  acfg.cache = ccfg;
  acfg.with_persistence = true;

  reset_cache_analysis_counters();
  const uint64_t map_runs = reference::map_analysis_runs();
  const auto report = analyze_wcet(img, acfg);
  EXPECT_GT(cache_analysis_counters().flat_persistence_runs, 0u);
  EXPECT_EQ(reference::map_analysis_runs(), map_runs);
  EXPECT_GT(report.persistent_sites, 0u);
}

} // namespace
} // namespace spmwcet::wcet
