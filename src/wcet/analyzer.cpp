#include "wcet/analyzer.h"

#include <algorithm>
#include <set>
#include <vector>

#include "isa/timing.h"
#include "support/diag.h"
#include "wcet/block_timing.h"
#include "wcet/cache_analysis.h"
#include "wcet/cfg.h"
#include "wcet/ipet.h"
#include "wcet/loop_bounds.h"
#include "wcet/loops.h"
#include "wcet/value_analysis.h"

namespace spmwcet::wcet {

namespace {

/// Topological order of the call graph, callees before callers.
/// Throws ProgramError on recursion (unbounded WCET).
std::vector<uint32_t> bottom_up_order(const std::map<uint32_t, Cfg>& cfgs,
                                      uint32_t root) {
  std::vector<uint32_t> order;
  std::set<uint32_t> done;
  std::set<uint32_t> path;
  // Iterative DFS with an explicit visit state to detect cycles.
  struct Frame {
    uint32_t func;
    std::vector<uint32_t> callees;
    std::size_t next = 0;
  };
  std::vector<Frame> stack;
  auto push = [&](uint32_t f) {
    Frame fr;
    fr.func = f;
    for (const auto& b : cfgs.at(f).blocks)
      if (b.call_target) fr.callees.push_back(*b.call_target);
    stack.push_back(std::move(fr));
    path.insert(f);
  };
  push(root);
  while (!stack.empty()) {
    Frame& fr = stack.back();
    if (fr.next < fr.callees.size()) {
      const uint32_t callee = fr.callees[fr.next++];
      if (done.count(callee)) continue;
      if (path.count(callee))
        throw ProgramError("wcet: recursion detected at function " +
                           cfgs.at(callee).name);
      push(callee);
    } else {
      order.push_back(fr.func);
      done.insert(fr.func);
      path.erase(fr.func);
      stack.pop_back();
    }
  }
  return order;
}

/// The layout-dependent back end shared by both front ends: loop-bound
/// validation, optional cache analysis, block timing, and bottom-up IPET
/// over already-reconstructed program state whose memory facts are
/// resolved (CfgInstr::mem). `flat_cache` selects the flat cache analysis
/// (the IR pipeline) or the seed implementation (--legacy-wcet); the
/// classification is identical either way. With
/// `func_index` (shape function indices) and cfg.ipet_cache set, the IPET
/// stage solves through the cached per-shape skeletons, which is
/// bit-identical to the from-scratch solve by IpetCache's contract.
WcetReport analyze_backend(const link::Image& img, const AnalyzerConfig& cfg,
                           const Annotations& ann,
                           const std::map<uint32_t, Cfg>& cfgs,
                           const std::map<uint32_t, const LoopInfo*>& loops,
                           uint32_t root, bool flat_cache,
                           const std::map<uint32_t, std::size_t>* func_index) {
  // Pre-validate loop bounds for friendlier errors.
  for (const auto& [f, info] : loops) {
    for (const Loop& loop : info->loops) {
      const uint32_t header = cfgs.at(f)
                                  .blocks[static_cast<std::size_t>(loop.header)]
                                  .first_addr;
      if (!ann.loop_bound(header).has_value())
        throw AnnotationError("wcet: loop in " + cfgs.at(f).name +
                              " at address " + std::to_string(header) +
                              " has no bound annotation");
    }
  }

  // ---- microarchitectural analysis ------------------------------------------
  // The seed analysis' address sets are converted to per-site form here,
  // once, so block timing and the statistics below read site bytes on
  // either path.
  SiteClassification classification;
  std::map<uint32_t, uint32_t> first_site; // function address -> its site
  WcetReport report;
  if (cfg.cache) {
    CacheAnalysisConfig ccfg;
    ccfg.cache = *cfg.cache;
    ccfg.with_persistence = cfg.with_persistence;
    ccfg.stack_window = cfg.stack_window;
    // PR 5's fast path had no flat persistence domain and delegated
    // persistence-enabled runs to the map analysis; --no-incremental keeps
    // that exact behavior as the A/B baseline.
    const bool use_flat =
        flat_cache && (cfg.incremental || !cfg.with_persistence);
    classification =
        use_flat ? analyze_cache_flat(img, cfgs, root, ccfg)
                 : to_sites(cfgs, analyze_cache(img, cfgs, root, ccfg));

    // Static statistics, in site order.
    uint32_t site = 0;
    for (const auto& [f, fcfg] : cfgs) {
      first_site.emplace_hint(first_site.end(), f, site);
      for (const auto& b : fcfg.blocks) {
        for (const CfgInstr& ci : b.instrs) {
          report.fetch_sites += ci.size / 2;
          for (uint32_t half = 0; half < 2; ++half) {
            const Outcome o = classification.fetch(site, half);
            report.fetch_always_hit += o == Outcome::Hit;
            report.persistent_sites += o == Outcome::Persistent;
          }
          const Outcome load = classification.load(site++);
          report.persistent_sites += load == Outcome::Persistent;
          if (ci.mem.has_access && !ci.mem.access.is_store) {
            ++report.load_sites;
            report.load_always_hit += load == Outcome::Hit;
          }
        }
      }
    }
  }

  // ---- path analysis, bottom-up over the call graph --------------------------
  std::map<uint32_t, uint64_t> func_wcet;
  for (const uint32_t f : bottom_up_order(cfgs, root)) {
    const Cfg& fcfg = cfgs.at(f);
    TimingInputs inputs;
    inputs.cache = cfg.cache;
    if (cfg.cache) {
      inputs.classification = &classification;
      inputs.first_site = first_site.at(f);
    }
    inputs.callee_wcet = &func_wcet;
    const BlockTimes times = time_blocks(fcfg, inputs);
    const bool via_cache =
        cfg.incremental && cfg.ipet_cache != nullptr && func_index != nullptr;
    const IpetResult ipet =
        via_cache ? cfg.ipet_cache->solve(func_index->at(f), fcfg,
                                          *loops.at(f), ann, times)
                  : solve_ipet(fcfg, *loops.at(f), ann, times);
    func_wcet[f] = ipet.wcet;

    FunctionWcet fw;
    fw.name = fcfg.name;
    fw.wcet = ipet.wcet;
    fw.blocks = static_cast<uint32_t>(fcfg.blocks.size());
    fw.loops = static_cast<uint32_t>(loops.at(f)->loops.size());
    for (const auto& b : fcfg.blocks)
      fw.block_profile.push_back(BlockWcet{
          b.first_addr,
          ipet.block_counts[static_cast<std::size_t>(b.id)],
          times.block_cycles[static_cast<std::size_t>(b.id)]});
    report.functions.emplace(fw.name, fw);
  }

  report.wcet = func_wcet.at(root);

  // Persistence: each persistent line may miss once over the whole run.
  if (cfg.cache && cfg.with_persistence) {
    const uint64_t miss = isa::MemTiming::cache_miss(cfg.cache->line_bytes);
    const uint64_t extra =
        static_cast<uint64_t>(classification.persistent_penalty_lines.size()) *
        (miss - isa::MemTiming::cache_hit());
    report.persistence_penalty_cycles = extra;
    report.wcet += extra;
  }

  return report;
}

/// The seed front end, preserved operation for operation as the
/// --legacy-wcet baseline: decode straight from image bytes, CFGs built
/// twice (discovery + analysis), per-analysis loop/value reconstruction.
WcetReport analyze_legacy(const link::Image& img, const AnalyzerConfig& cfg,
                          const Annotations* overrides) {
  Annotations ann =
      overrides != nullptr ? *overrides : Annotations::from_image(img);

  // ---- reconstruction ------------------------------------------------------
  const uint32_t root = img.entry;
  std::map<uint32_t, Cfg> cfgs;
  for (const uint32_t f : reachable_functions(img, root))
    cfgs.emplace(f, build_cfg(img, f));

  std::map<uint32_t, LoopInfo> loops;
  for (auto& [f, fcfg] : cfgs) {
    loops.emplace(f, find_loops(fcfg));
    resolve_memory(img, fcfg, ann);
  }

  // Optional aiT-style automatic bounds for counted loops that carry no
  // annotation (stripped binaries).
  if (cfg.auto_loop_bounds) {
    for (const auto& [f, fcfg] : cfgs)
      for (const auto& [header, detected] :
           detect_loop_bounds(img, fcfg, loops.at(f)))
        if (!ann.loop_bound(header).has_value())
          ann.set_loop_bound(header, detected.bound);
  }

  std::map<uint32_t, const LoopInfo*> loop_ptrs;
  for (const auto& [f, info] : loops) loop_ptrs.emplace(f, &info);
  return analyze_backend(img, cfg, ann, cfgs, loop_ptrs, root,
                         /*flat_cache=*/false, /*func_index=*/nullptr);
}

} // namespace

WcetReport analyze_wcet(const link::Image& img, const AnalyzerConfig& cfg,
                        const Annotations* overrides) {
  if (!cfg.fast_path) return analyze_legacy(img, cfg, overrides);
  // Standalone fast analysis: decode once, build the shape, bind it to this
  // image. Harness callers cache the shape (and, for shared images, the
  // whole view) instead of rebuilding here per point.
  const program::DecodedImage dec(img);
  auto shape = std::make_shared<const ProgramShape>(build_shape(img, dec));
  const ProgramView view =
      bind_view(std::move(shape), img, dec, cfg.auto_loop_bounds, overrides);
  return analyze_wcet(view, cfg);
}

WcetReport analyze_wcet(const ProgramView& view, const AnalyzerConfig& cfg) {
  SPMWCET_CHECK(view.img != nullptr);
  return analyze_backend(*view.img, cfg, view.ann, view.cfgs, view.loops,
                         view.root,
                         /*flat_cache=*/cfg.fast_path, &view.func_index);
}

} // namespace spmwcet::wcet
