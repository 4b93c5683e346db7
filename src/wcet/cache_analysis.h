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
// ProgramView fixes it — and the supergraph the analysis walks and the
// site table its transfer reads (wcet/site_table.h) — once for every
// analysis of that image.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "cache/geometry.h"
#include "wcet/cfg.h"
#include "wcet/site_table.h"

namespace spmwcet::wcet {

/// Window of possible stack addresses the cache analysis assumes for
/// stack-relative accesses: this many bytes below the initial stack
/// pointer. Sound only for programs whose stack fits in it; the tests run
/// the paper trio and the generated corpus with a stack reserve of this
/// size, where a deeper access traps.
inline constexpr uint32_t kAnalysisStackBytes = 0x1000;

struct CacheAnalysisConfig {
  cache::CacheConfig cache;
  bool with_persistence = false;
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

/// The part of the analysis that depends only on the program, not on the
/// cache: the interprocedural supergraph over a set of CFGs. Nodes are the
/// blocks in site order (functions in key order, blocks in id order), the
/// block order of the site table (wcet/site_table.h), which holds each
/// node's sites; a call block feeds its callee's entry node, an exit block
/// every continuation of a call to its function, any other block its CFG
/// successors. A bound view's structure holds it (ViewStructure), so every
/// cache size analyzed on the view shares it.
struct CacheSupergraph {
  /// Successors of node n: succs[succ_start[n] .. succ_start[n + 1]).
  std::vector<uint32_t> succ_start;
  std::vector<uint32_t> succs;
  std::vector<uint32_t> func_addr; ///< function ordinal -> entry address
  uint32_t root_node = 0;          ///< entry block of the root function

  uint32_t num_nodes() const {
    return succ_start.empty() ? 0
                              : static_cast<uint32_t>(succ_start.size() - 1);
  }
  /// Ordinal of the function entered at `addr`; refuses other addresses.
  uint32_t func_of(uint32_t addr) const;
};

/// Builds the supergraph of `cfgs` (keyed by function address) for the
/// program rooted at `root`.
CacheSupergraph build_supergraph(const std::map<uint32_t, Cfg>& cfgs,
                                 uint32_t root);

/// Runs the fixpoint over the supergraph `graph` with the accesses of the
/// site table `sites`, both built over the same CFGs (a bound view holds
/// the pair), for a program whose stack starts at `stack_top`. The site
/// table carries the view's memory facts, so only resolved sites reach the
/// analysis.
/// A MUST state is a sorted vector of its live (set, tag, age) entries, so
/// copying, joining, comparing and aging a state cost the lines it holds
/// rather than num_sets × assoc slots, and aging every set a range, the
/// stack window or an unknown address may touch is one pass over those
/// entries. The persistence domain stays dense: its tag universe is
/// precomputed from the program's exact-access lines (the only lines the
/// transfer functions ever insert), one byte per (set, tag) slot, join =
/// elementwise max.
/// Classification happens inside the fixpoint: each access is classified
/// by the transfer that performs it, against the state just before it, and
/// every visit of a node rewrites its site bytes. A node's last visit sees
/// its final in-state (a later change would queue it again), so the bytes
/// left when the worklist drains are the fixpoint's classification;
/// persistent_penalty_lines is then read back from them.
/// The MUST classification does not depend on the order the worklist
/// visits nodes in. The persistence classification does: another order
/// (a reverse-postorder worklist) reaches a different fixpoint on some
/// programs, so the worklist order — LIFO from the root's entry block,
/// successors pushed in supergraph order — is part of the persistence
/// result. The map-based oracle in tests/reference/ walks the same order
/// and classifies every site identically; which order, if either, gives a
/// sound persistence bound is an open question (ROADMAP).
SiteClassification analyze_cache_flat(uint32_t stack_top,
                                      const CacheSupergraph& graph,
                                      const SiteTable& sites,
                                      const CacheAnalysisConfig& cfg);

/// The same analysis on a supergraph and site table built for this one
/// call; for tests and benches that hold CFGs without a bound view.
/// `facts` are the CFGs' memory facts in site order (resolve_memory,
/// wcet/value_analysis.h); facts that do not cover every site are refused.
SiteClassification analyze_cache_flat(uint32_t stack_top,
                                      const std::map<uint32_t, Cfg>& cfgs,
                                      std::span<const MemFacts> facts,
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
