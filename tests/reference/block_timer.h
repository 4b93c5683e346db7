// The per-instruction block timing, kept as a test oracle: it walks every
// instruction of a CFG and prices its fetches and data access from the
// instruction's MemFacts and the per-site classification, and counts the
// report's site statistics in a second loop over every site. Production
// timing (wcet::time_function) prices the view's site table instead; the
// parity tests compare block times, edge cycles and statistics.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "cache/geometry.h"
#include "wcet/block_timing.h"
#include "wcet/cache_analysis.h"
#include "wcet/cfg.h"

namespace spmwcet::reference {

struct TimingInputs {
  /// The whole program's per-site classification; non-null when a cache is
  /// configured.
  const wcet::SiteClassification* classification = nullptr;
  /// Site of the timed CFG's first instruction in that classification.
  uint32_t first_site = 0;
  std::optional<cache::CacheConfig> cache;
  /// WCET of each callee, keyed by function address (bottom-up order).
  const std::map<uint32_t, uint64_t>* callee_wcet = nullptr;
};

/// Computes worst-case timing for every block of `cfg`, whose memory facts
/// must have been resolved (resolve_memory); an unresolved CFG is refused.
wcet::BlockTimes time_blocks(const wcet::Cfg& cfg, const TimingInputs& inputs);

/// The report's static classification statistics over every site of
/// `cfgs`, in site order.
struct SiteStatistics {
  uint64_t fetch_sites = 0;
  uint64_t fetch_always_hit = 0;
  uint64_t load_sites = 0;
  uint64_t load_always_hit = 0;
  uint64_t persistent_sites = 0;
};
SiteStatistics site_statistics(const std::map<uint32_t, wcet::Cfg>& cfgs,
                               const wcet::SiteClassification& cls);

/// Process-wide count of time_blocks runs; a parity test reads it to show
/// the oracle side actually ran.
uint64_t block_timer_runs();

} // namespace spmwcet::reference
