// Microarchitectural block timing: worst-case cycles of each basic block
// under the Table-1 memory model, with or without a cache.
//
// Everything about a block that no cache geometry changes sits in the
// view's site table (wcet/site_table.h), priced once at bind: compute
// extras, scratchpad accesses, store costs, control penalties, and the
// loads a cache never classifies, as a count of line fills. Timing a block
// at one cache point is that base, plus one pass over the block's site
// bytes (SiteClassification), plus the WCETs of its callees. Each
// classified access costs a line fill unless its byte proves otherwise:
// always-hit accesses cost one cycle, persistent accesses cost one cycle
// plus a global one-off miss penalty — the MUST-only discipline the
// paper's aiT build applies. The same pass counts the report's site
// statistics. Without a cache nothing is classified and timing is exact
// (the simulator uses the same constants): every main-memory access costs
// its uncached time.
//
// Branch-not-taken vs taken costs are split: the taken-branch pipeline
// penalty is attached to taken edges so IPET charges it exactly as the
// simulator does. The per-instruction timing this replaced lives on in
// tests/reference/ as the oracle for block times, edge cycles and site
// statistics.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/geometry.h"
#include "wcet/cache_analysis.h"
#include "wcet/site_table.h"

namespace spmwcet::wcet {

/// The memory configuration of one analysis point.
struct TimingInputs {
  /// Cache in front of main memory; nullopt = uncached (SPM study setup).
  std::optional<cache::CacheConfig> cache;
  /// The whole program's per-site classification; required with a cache.
  const SiteClassification* classification = nullptr;
};

struct BlockTimes {
  /// Worst-case cycles per block (index = block id), including callee WCETs
  /// for call blocks and unconditional control-transfer penalties.
  std::vector<uint64_t> block_cycles;
  /// Extra cycles charged on specific edges (taken conditional branches),
  /// as (edge index, cycles) pairs in ascending edge order.
  EdgeCycles edge_cycles;
};

/// Classification counts over the sites timed so far (a cache point only).
struct SiteStats {
  uint64_t fetch_always_hit = 0;
  uint64_t load_always_hit = 0;
  uint64_t persistent_sites = 0; ///< fetch halves and loads
};

/// WCET of a function not analyzed yet, in a per-ordinal WCET vector.
inline constexpr uint64_t kNoWcet = ~uint64_t{0};

/// Times every block of function `func` (ordinal in `table`) into `out`.
/// `func_wcet` holds the WCET of each function by ordinal; every callee's
/// must be set (bottom-up order). With a cache, adds the function's site
/// counts to `stats`. A site whose access cannot be timed (an unmapped
/// exact address, a range outside memory) raises its error before any
/// block of the function is timed.
void time_function(const SiteTable& table, uint32_t func,
                   const TimingInputs& inputs,
                   const std::vector<uint64_t>& func_wcet, BlockTimes& out,
                   SiteStats& stats);

} // namespace spmwcet::wcet
