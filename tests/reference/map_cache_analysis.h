// The seed cache analysis, kept as a test oracle: the same interprocedural
// MUST (and optional persistence) fixpoint as wcet::analyze_cache_flat, over
// the map-based domains of reference/abstract_cache.h — one std::map per
// cache set and per (function, block) node. Its result is address sets;
// to_sites brings them to the per-site form the production analysis
// emits, so the two are compared byte for byte.
#pragma once

#include <cstdint>
#include <map>
#include <span>

#include "link/image.h"
#include "wcet/cache_analysis.h"
#include "wcet/cfg.h"

namespace spmwcet::reference {

using wcet::AddrSet;

/// The seed analysis' result: classified accesses as address sets.
struct CacheClassification {
  /// Halfword fetch addresses proven always-hit by MUST.
  AddrSet fetch_always_hit;
  /// Load instruction addresses (exact-address loads) proven always-hit.
  AddrSet load_always_hit;
  /// Accesses (by halfword fetch address / load instruction address) that
  /// are persistent: at most one miss over the whole run.
  AddrSet fetch_persistent;
  AddrSet load_persistent;
  /// Distinct memory lines underlying persistent-but-not-must accesses;
  /// each contributes one (miss - hit) penalty to the WCET.
  AddrSet persistent_penalty_lines;

  /// Sorts and deduplicates every list; an analysis appends as it
  /// classifies and normalizes once at the end.
  void normalize();
};

/// Converts the address sets to per-site form over the same CFGs, in one
/// forward merge per set (site order is address order). Refuses sets
/// holding an address that is no site of `cfgs`.
wcet::SiteClassification to_sites(const std::map<uint32_t, wcet::Cfg>& cfgs,
                                  const CacheClassification& sets);

/// Runs the fixpoint over all `cfgs` (keyed by function address) starting
/// from `root`. `facts` are this image's memory facts of every site of
/// `cfgs`, in site order (resolve_memory, wcet/value_analysis.h); facts that
/// do not cover every site are refused.
CacheClassification analyze_cache(const link::Image& img,
                                  const std::map<uint32_t, wcet::Cfg>& cfgs,
                                  std::span<const wcet::MemFacts> facts,
                                  uint32_t root,
                                  const wcet::CacheAnalysisConfig& cfg);

/// Process-wide count of analyze_cache runs; a parity test reads it to
/// show the oracle side actually ran.
uint64_t map_analysis_runs();

} // namespace spmwcet::reference
