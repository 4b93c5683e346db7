#include "wcet/analyzer.h"

#include <vector>

#include "isa/timing.h"
#include "support/diag.h"
#include "wcet/block_timing.h"
#include "wcet/cache_analysis.h"
#include "wcet/cfg.h"
#include "wcet/ipet.h"
#include "wcet/loops.h"

namespace spmwcet::wcet {

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
/// reconstructed program state. Block timing prices the view's site table
/// against this point's classification (wcet/block_timing.h). With
/// cfg.ipet_cache set, the IPET stage solves through the cached per-shape
/// skeletons (keyed by the view's func_index), which is bit-identical to
/// the from-scratch solve by IpetCache's contract.
WcetReport analyze_wcet(const ProgramView& view, const AnalyzerConfig& cfg) {
  SPMWCET_CHECK_MSG(view.structure != nullptr &&
                        view.structure->supergraph.num_nodes() != 0,
                    "analyze_wcet: the view has no scaffold (build_scaffold)");
  const ViewStructure& s = *view.structure;
  const Annotations& ann = s.ann;
  const CacheSupergraph& graph = s.supergraph;
  SPMWCET_CHECK(view.func_base.size() == graph.func_addr.size());
  // Pre-validate loop bounds for friendlier errors, naming each header at
  // its address in this view's layout.
  for (std::size_t func = 0; const auto& [f, fcfg] : s.cfgs) {
    const uint32_t delta = view.func_base[func++] - f;
    for (const Loop& loop : s.loops.at(f)->loops) {
      const uint32_t header =
          fcfg.blocks[static_cast<std::size_t>(loop.header)].first_addr;
      if (!ann.loop_bound(header).has_value())
        throw AnnotationError("wcet: loop in " + fcfg.name + " at address " +
                              std::to_string(header + delta) +
                              " has no bound annotation");
    }
  }

  // ---- microarchitectural analysis ------------------------------------------
  const SiteTable& table = view.sites;
  SiteClassification classification;
  WcetReport report;
  TimingInputs inputs;
  inputs.cache = cfg.cache;
  if (cfg.cache) {
    CacheAnalysisConfig ccfg;
    ccfg.cache = *cfg.cache;
    ccfg.with_persistence = cfg.with_persistence;
    classification = analyze_cache_flat(view.stack_top, graph, table, ccfg);
    inputs.classification = &classification;
    report.fetch_sites = table.fetch_sites;
    report.load_sites = table.load_sites;
  }

  // ---- path analysis, bottom-up over the call graph --------------------------
  if (s.recursive)
    throw ProgramError("wcet: recursion detected at function " +
                       s.cfgs.at(*s.recursive).name);
  // Every function is timed once, so the timing passes count every site.
  SPMWCET_CHECK(s.bottom_up.size() == graph.func_addr.size());
  std::vector<uint64_t> func_wcet(graph.func_addr.size(), kNoWcet);
  BlockTimes times;
  SiteStats stats;
  for (const uint32_t func : s.bottom_up) {
    const uint32_t f = graph.func_addr[func];
    const Cfg& fcfg = s.cfgs.at(f);
    const LoopInfo& floops = *s.loops.at(f);
    const uint32_t delta = view.func_base[func] - f;
    time_function(table, func, inputs, func_wcet, times, stats);
    const IpetResult ipet =
        cfg.ipet_cache != nullptr
            ? cfg.ipet_cache->solve(s.func_index.at(f), fcfg, floops, ann,
                                    times)
            : solve_ipet(fcfg, floops, ann, times);
    func_wcet[func] = ipet.wcet;

    FunctionWcet fw;
    fw.name = fcfg.name;
    fw.wcet = ipet.wcet;
    fw.blocks = static_cast<uint32_t>(fcfg.blocks.size());
    fw.loops = static_cast<uint32_t>(floops.loops.size());
    fw.block_profile.reserve(fcfg.blocks.size());
    for (std::size_t b = 0; b < fcfg.blocks.size(); ++b)
      fw.block_profile.push_back(BlockWcet{fcfg.blocks[b].first_addr + delta,
                                           ipet.block_counts[b],
                                           times.block_cycles[b]});
    report.functions.emplace(fcfg.name, std::move(fw));
  }
  if (cfg.cache) {
    report.fetch_always_hit = stats.fetch_always_hit;
    report.load_always_hit = stats.load_always_hit;
    report.persistent_sites = stats.persistent_sites;
  }

  report.wcet = func_wcet[graph.func_of(s.root)];

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
