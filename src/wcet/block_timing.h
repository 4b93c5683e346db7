// Microarchitectural block timing: worst-case cycles of each basic block
// under the Table-1 memory model, with or without a cache.
//
// Without a cache this is exact (the simulator uses the same constants):
// fetch cost from the instruction's memory class, data cost from the
// resolved address (worst over the possible classes for ranges), plus
// multiply/divide extras. Both come from the per-instruction MemFacts the
// value analysis resolved for this image (CfgInstr::mem). With a cache,
// each access reads its outcome from the instruction's site byte
// (SiteClassification): always-hit accesses cost one cycle, persistent
// accesses cost one cycle plus a global one-off miss penalty, and
// everything else is charged a full line-fill miss — the MUST-only
// discipline the paper's aiT build applies.
//
// Branch-not-taken vs taken costs are split: the taken-branch pipeline
// penalty is attached to taken edges so IPET charges it exactly as the
// simulator does.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "wcet/cache_analysis.h"
#include "wcet/cfg.h"

namespace spmwcet::wcet {

struct TimingInputs {
  /// The whole program's per-site classification; non-null when a cache is
  /// configured.
  const SiteClassification* classification = nullptr;
  /// Site of the timed CFG's first instruction in that classification.
  uint32_t first_site = 0;
  std::optional<cache::CacheConfig> cache;
  /// WCET of each callee, keyed by function address (bottom-up order).
  const std::map<uint32_t, uint64_t>* callee_wcet = nullptr;
};

struct BlockTimes {
  /// Worst-case cycles per block (index = block id), including callee WCETs
  /// for call blocks and unconditional control-transfer penalties.
  std::vector<uint64_t> block_cycles;
  /// Extra cycles charged on specific edges (taken conditional branches).
  std::map<int, uint64_t> edge_cycles;
};

/// Computes worst-case timing for every block of `cfg`, whose memory facts
/// must have been resolved (resolve_memory); an unresolved CFG is refused.
BlockTimes time_blocks(const Cfg& cfg, const TimingInputs& inputs);

} // namespace spmwcet::wcet
