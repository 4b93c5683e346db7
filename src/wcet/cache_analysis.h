// Interprocedural abstract cache analysis (aiT's microarchitectural cache
// stage). A supergraph over all reachable functions is built: call blocks
// feed the callee's entry state; callee return blocks feed every caller's
// continuation. The MUST domain classifies accesses as always-hit; with
// the (future-work) persistence extension, additional accesses become
// "at most one miss overall".
//
// The paper's experimental aiT for ARM7 uses only the MUST analysis; that
// is the default. Classification is per instruction address and context
// insensitive, like the paper's tool.
//
// The back end reads the classification per instruction site. Sites are
// numbered in one order fixed by the CFG map: functions in address (key)
// order, blocks in id order, instructions in block order. Block ids follow
// addresses, so site order is ascending address order, and a bound
// ProgramView fixes it once for every analysis of that image.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cache/geometry.h"
#include "link/image.h"
#include "wcet/cfg.h"

namespace spmwcet::wcet {

struct CacheAnalysisConfig {
  cache::CacheConfig cache;
  bool with_persistence = false;
  /// Window of possible stack addresses used for stack-relative accesses
  /// (bytes below the initial stack pointer).
  uint32_t stack_window = 0x1000;
};

/// A sorted, duplicate-free list of addresses or line numbers.
using AddrSet = std::vector<uint32_t>;

/// What the analysis proved about one access.
enum class Outcome : uint8_t {
  Miss = 0,       ///< not classified: charged a full line fill
  Hit = 1,        ///< MUST: always hit
  Persistent = 2, ///< at most one miss over the whole run
};

/// The classification the back end reads: one byte per instruction site
/// (see the site order above), packing three 2-bit outcomes — the fetch of
/// the first halfword, of the second halfword (32-bit instructions), and
/// the instruction's load. Accesses that bypass the cache or are never
/// classified read as Miss.
struct SiteClassification {
  enum Field : unsigned { kFetch0 = 0, kFetch1 = 2, kLoad = 4 };

  std::vector<uint8_t> sites;
  /// Distinct memory lines underlying persistent accesses, sorted and
  /// unique; empty unless persistence analysis ran.
  AddrSet persistent_penalty_lines;

  Outcome get(uint32_t site, Field f) const {
    return static_cast<Outcome>((sites[site] >> f) & 3u);
  }
  Outcome fetch(uint32_t site, uint32_t half) const {
    return get(site, half == 0 ? kFetch0 : kFetch1);
  }
  Outcome load(uint32_t site) const { return get(site, kLoad); }
  void set(uint32_t site, Field f, Outcome o) {
    sites[site] =
        static_cast<uint8_t>(sites[site] | static_cast<unsigned>(o) << f);
  }

  bool operator==(const SiteClassification&) const = default;
};

/// Runs the fixpoint over all `cfgs` (keyed by function address) starting
/// from `root`. Every CFG must carry this image's memory facts
/// (resolve_memory, wcet/value_analysis.h); an unresolved one is refused.
/// A MUST state is a sorted vector of its live (set, tag, age) entries, so
/// copying, joining, comparing and aging a state cost the lines it holds
/// rather than num_sets × assoc slots, and aging every set a range, the
/// stack window or an unknown address may touch is one pass over those
/// entries. Classification is fused with the transfer it observes and
/// written straight into the site bytes. The persistence domain stays
/// dense: its tag universe is precomputed from the program's exact-access
/// lines (the only lines the transfer functions ever insert), one byte per
/// (set, tag) slot, join = elementwise max. The MUST and persistence
/// fixpoints have unique solutions, so the map-based oracle in
/// tests/reference/ classifies every site identically.
SiteClassification analyze_cache_flat(const link::Image& img,
                                      const std::map<uint32_t, Cfg>& cfgs,
                                      uint32_t root,
                                      const CacheAnalysisConfig& cfg);

/// Process-wide run counters, one per analysis kind; tests and the
/// benchmark use them to assert which analysis actually ran.
struct CacheAnalysisCounters {
  uint64_t flat_must_runs = 0;        ///< analyze_cache_flat, MUST only
  uint64_t flat_persistence_runs = 0; ///< analyze_cache_flat + persistence
};

CacheAnalysisCounters cache_analysis_counters();
void reset_cache_analysis_counters();

} // namespace spmwcet::wcet
