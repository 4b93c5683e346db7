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
#include "wcet/loops.h"

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

} // namespace

WcetReport analyze_wcet(const link::Image& img, const AnalyzerConfig& cfg,
                        const Annotations* overrides) {
  // Standalone analysis: decode once, build the shape, bind it to this
  // image. Harness callers cache the shape (and, for shared images, the
  // whole view) instead of rebuilding here per point.
  const program::DecodedImage dec(img);
  auto shape = std::make_shared<const ProgramShape>(build_shape(img, dec));
  const ProgramView view =
      bind_view(std::move(shape), img, dec, cfg.auto_loop_bounds, overrides);
  return analyze_wcet(view, cfg);
}

/// The layout-dependent back end: loop-bound validation, optional cache
/// analysis, block timing, and bottom-up IPET over the view's
/// reconstructed program state, whose memory facts are resolved
/// (CfgInstr::mem). With cfg.ipet_cache set, the IPET stage solves through
/// the cached per-shape skeletons (keyed by the view's func_index), which
/// is bit-identical to the from-scratch solve by IpetCache's contract.
WcetReport analyze_wcet(const ProgramView& view, const AnalyzerConfig& cfg) {
  SPMWCET_CHECK(view.img != nullptr);
  const link::Image& img = *view.img;
  const Annotations& ann = view.ann;
  const std::map<uint32_t, Cfg>& cfgs = view.cfgs;
  const std::map<uint32_t, const LoopInfo*>& loops = view.loops;
  const uint32_t root = view.root;
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
  SiteClassification classification;
  std::map<uint32_t, uint32_t> first_site; // function address -> its site
  WcetReport report;
  if (cfg.cache) {
    CacheAnalysisConfig ccfg;
    ccfg.cache = *cfg.cache;
    ccfg.with_persistence = cfg.with_persistence;
    ccfg.stack_window = cfg.stack_window;
    classification = analyze_cache_flat(img, cfgs, root, ccfg);

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
    const IpetResult ipet =
        cfg.ipet_cache != nullptr
            ? cfg.ipet_cache->solve(view.func_index.at(f), fcfg, *loops.at(f),
                                    ann, times)
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

} // namespace spmwcet::wcet
