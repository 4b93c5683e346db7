// The per-view site table: everything the cache analysis and block timing
// need to know about a bound program's instruction sites that no cache
// geometry changes, built once per ProgramView (ViewScaffold) so a cache
// point does only the geometry-dependent work.
//
// Sites are numbered like the cache classification (wcet/cache_analysis.h):
// functions in address (key) order, blocks in id order, instructions in
// block order; blocks are numbered in the same order, so block n is node n
// of the view's cache supergraph. The table records
//   * per site, the accesses the cache transfer performs — the fetch
//     halfwords that come from main memory and the data access as a unified
//     cache sees it — which are also the outcome fields a cache classifies;
//   * per block, the cycles of every access the cache never classifies,
//     split by the memory configuration that prices them;
//   * per function, its block range and its taken-edge penalties.
// A cache point then prices a block as its base plus one pass over its
// site bytes (wcet/block_timing.h).
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "wcet/cfg.h"

namespace spmwcet::wcet {

/// Extra cycles charged on CFG edges: (edge index, cycles) pairs in
/// ascending edge order, each edge at most once.
using EdgeCycles = std::vector<std::pair<int, uint64_t>>;

struct SiteTable {
  /// What a unified cache's transfer does with an instruction's data
  /// access. Instruction-only caches ignore data accesses altogether.
  enum class Load : uint8_t {
    None,     ///< no access, a store, or an exact scratchpad address
    Exact,    ///< an exact main-memory load: accesses line_of(lo), classified
    Unmapped, ///< an exact load of an unmapped address: refused
    Range,    ///< one access somewhere in [lo, hi]: ages the touched sets
    Stack,    ///< `accesses` accesses within the stack window
    Unknown,  ///< an access anywhere: ages every set
  };

  /// Why timing a site must fail (the errors the per-instruction timing
  /// raised on reaching it).
  enum class Fault : uint8_t {
    None,
    Unmapped,     ///< exact access to an unmapped address (lo)
    OutsideMemory ///< access range touching no mapped memory
  };

  struct Site {
    uint32_t addr = 0; ///< instruction address; fetch lines of addr, addr + 2
    uint32_t lo = 0;   ///< data access: the exact address or the range bounds
    uint32_t hi = 0;
    uint8_t main_fetches = 0; ///< halfwords fetched from main memory (0..2)
    Load load = Load::None;
    uint8_t accesses = 1; ///< element accesses of the data access
    Fault fault = Fault::None;

    bool operator==(const Site&) const = default;
  };

  /// The cycles of one block that no cache classification decides, by the
  /// memory configuration that prices them. An instruction costs less than
  /// 256 cycles here and a block holds fewer than 2^24 instructions, so the
  /// sums fit 32 bits.
  struct Block {
    uint32_t first_site = 0;
    uint32_t end_site = 0;
    /// Compute extras, scratchpad fetches and the block's own control
    /// penalty (taken branch, call or return); callee WCETs are per point.
    uint32_t fixed = 0;
    /// Data cycles when data bypasses the cache (no cache, I-cache): every
    /// main-memory access at its uncached cost.
    uint32_t bypass_data = 0;
    /// Data cycles under a unified cache outside the line fills and the
    /// classified loads below: stores and scratchpad accesses.
    uint32_t unified_data = 0;
    /// Halfwords fetched from main memory: classified by any cache.
    uint32_t main_fetches = 0;
    /// Unified cache: load accesses never classified, each a line fill.
    uint32_t line_fills = 0;
    /// Unified cache: exact main-memory loads, classified.
    uint32_t cached_loads = 0;
    int32_t callee = -1; ///< ordinal of the called function, -1 = no call

    bool operator==(const Block&) const = default;
  };

  struct Function {
    uint32_t first_block = 0; ///< blocks [first_block, end_block)
    uint32_t end_block = 0;
    /// Site whose fault timing this function raises, -1 = none.
    int64_t fault_site = -1;
    /// Pipeline refill charged on each taken conditional edge.
    EdgeCycles edge_cycles;

    bool operator==(const Function&) const = default;
  };

  std::vector<Site> sites;
  std::vector<Block> blocks;       ///< cache supergraph node order
  std::vector<Function> functions; ///< function ordinal (key) order

  // Report statistics the view fixes.
  uint64_t fetch_sites = 0; ///< instruction halfwords
  uint64_t load_sites = 0;  ///< loads (data accesses that are not stores)

  bool operator==(const SiteTable&) const = default;
};

/// Builds the site table of `cfgs`, whose memory facts must have been
/// resolved (resolve_memory); an unresolved CFG is refused.
SiteTable build_site_table(const std::map<uint32_t, Cfg>& cfgs);

/// Raises the error timing raises at `site` (its fault must be set).
[[noreturn]] void raise_site_fault(const SiteTable::Site& site);

} // namespace spmwcet::wcet
