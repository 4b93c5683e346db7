// The analyzer facade (the aiT stand-in): given a linked image, runs
//   CFG reconstruction -> loop detection -> value analysis ->
//   (optional) interprocedural cache analysis -> block timing ->
//   per-function IPET, bottom-up over the call graph
// and reports the program WCET from the image entry stub to HALT.
//
// The front end is the shared decode table (program::DecodedImage)
// feeding a layout-invariant ProgramShape that is bound to the image
// (wcet/frontend.h); harness callers reuse one shape across every point of
// a sweep and one bound ProgramView across all cache sizes. The cache
// stage runs the flat-state analysis (wcet/cache_analysis.h). The seed
// front end and the map-based cache analysis live on as test oracles in
// tests/reference/, compared against this pipeline at each layer.
//
// For scratchpad/main-memory-only configurations no microarchitectural
// state analysis runs at all — only the memory-region timing annotations
// are consulted, which is the paper's headline point: scratchpads add
// zero analysis cost.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cache/geometry.h"
#include "link/image.h"
#include "wcet/annotations.h"
#include "wcet/frontend.h"

namespace spmwcet::wcet {

class IpetCache;

struct AnalyzerConfig {
  /// Cache in front of main memory; nullopt = uncached (SPM study setup).
  std::optional<cache::CacheConfig> cache;
  /// Enables the persistence extension (paper future work; off = the
  /// MUST-only analysis used for the paper's numbers).
  bool with_persistence = false;
  /// Detect counted-loop bounds from the binary (aiT-style) and use them
  /// for loops that carry no annotation.
  bool auto_loop_bounds = false;
  /// Per-workload IPET skeleton store (wcet/ipet.h); borrowed, may be
  /// null. Set, every function's IPET is solved through its skeleton
  /// (keyed by the view's func_index); null, each is solved from scratch
  /// (solve_ipet). The two are bit-identical by IpetCache's contract.
  const IpetCache* ipet_cache = nullptr;
};

/// One basic block on the worst-case path profile.
struct BlockWcet {
  uint32_t addr = 0;      ///< block start address
  uint64_t count = 0;     ///< worst-case execution count (IPET flow)
  uint64_t cycles = 0;    ///< worst-case cycles per execution
  uint64_t contribution() const { return count * cycles; }
  bool operator==(const BlockWcet&) const = default;
};

struct FunctionWcet {
  std::string name;
  uint64_t wcet = 0;
  uint32_t blocks = 0;
  uint32_t loops = 0;
  /// Per-block worst-case profile (the critical path's flow solution).
  std::vector<BlockWcet> block_profile;
  bool operator==(const FunctionWcet&) const = default;
};

struct WcetReport {
  /// Program WCET in cycles, entry stub through HALT.
  uint64_t wcet = 0;
  /// Per-function standalone WCETs (callee WCETs included at call sites).
  std::map<std::string, FunctionWcet> functions;

  // Static cache-classification statistics (zero when no cache).
  uint64_t fetch_sites = 0;
  uint64_t fetch_always_hit = 0;
  uint64_t load_sites = 0;
  uint64_t load_always_hit = 0;
  uint64_t persistent_sites = 0;
  /// One-off line-fill penalties added for persistent lines.
  uint64_t persistence_penalty_cycles = 0;

  bool operator==(const WcetReport&) const = default;
};

/// Analyzes the whole program rooted at the image entry: decodes the image,
/// builds its shape and binds it, then runs analyze_wcet(view, cfg).
/// `overrides`, when given, replaces the image-derived annotations.
WcetReport analyze_wcet(const link::Image& img, const AnalyzerConfig& cfg = {},
                        const Annotations* overrides = nullptr);

/// Analyzes a pre-bound ProgramView (wcet/frontend.h): only the
/// layout-dependent passes run — loop-bound validation, optional cache
/// analysis, block timing, IPET — over the view's scaffold (the cache
/// supergraph and the bottom-up function order, built at bind). This is
/// what the sweep harness calls with cached views so CFG/loop/value
/// reconstruction amortizes across points.
/// The view's annotations and auto bounds are already baked in;
/// `cfg.auto_loop_bounds` is ignored here.
WcetReport analyze_wcet(const ProgramView& view, const AnalyzerConfig& cfg);

} // namespace spmwcet::wcet
