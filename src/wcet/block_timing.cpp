#include "wcet/block_timing.h"

#include <array>

#include "isa/timing.h"
#include "support/diag.h"

namespace spmwcet::wcet {

using isa::MemTiming;

namespace {

/// What one site byte says, field by field: accesses that do not miss,
/// always-hit fetches, persistent accesses, and an always-hit load.
struct ByteCounts {
  uint8_t not_miss = 0;
  uint8_t fetch_hit = 0;
  uint8_t persistent = 0;
  uint8_t load_hit = 0;
};

constexpr std::array<ByteCounts, 64> make_byte_counts() {
  std::array<ByteCounts, 64> t{};
  for (unsigned v = 0; v < 64; ++v) {
    const unsigned f0 = (v >> SiteClassification::kFetch0) & 3u;
    const unsigned f1 = (v >> SiteClassification::kFetch1) & 3u;
    const unsigned ld = (v >> SiteClassification::kLoad) & 3u;
    constexpr auto hit = static_cast<unsigned>(Outcome::Hit);
    constexpr auto pers = static_cast<unsigned>(Outcome::Persistent);
    t[v].not_miss = static_cast<uint8_t>((f0 != 0) + (f1 != 0) + (ld != 0));
    t[v].fetch_hit = static_cast<uint8_t>((f0 == hit) + (f1 == hit));
    t[v].persistent =
        static_cast<uint8_t>((f0 == pers) + (f1 == pers) + (ld == pers));
    t[v].load_hit = static_cast<uint8_t>(ld == hit);
  }
  return t;
}

constexpr std::array<ByteCounts, 64> kByteCounts = make_byte_counts();

} // namespace

void time_function(const SiteTable& table, uint32_t func,
                   const TimingInputs& inputs,
                   const std::vector<uint64_t>& func_wcet, BlockTimes& out,
                   SiteStats& stats) {
  const SiteTable::Function& fn = table.functions[func];
  if (fn.fault_site >= 0)
    raise_site_fault(table.sites[static_cast<std::size_t>(fn.fault_site)]);
  const bool cached = inputs.cache.has_value();
  const bool unified = cached && inputs.cache->unified;
  const uint8_t* bytes = nullptr;
  uint64_t miss = 0;
  if (cached) {
    SPMWCET_CHECK_MSG(inputs.classification != nullptr,
                      "cache configured but no classification supplied");
    SPMWCET_CHECK_MSG(inputs.classification->sites.size() ==
                          table.sites.size(),
                      "block timing: classification of another program");
    bytes = inputs.classification->sites.data();
    miss = MemTiming::cache_miss(inputs.cache->line_bytes);
  }
  // A classified access that does not miss saves a line fill over a hit.
  const uint64_t saved = miss - MemTiming::cache_hit();

  out.block_cycles.resize(fn.end_block - fn.first_block);
  out.edge_cycles = fn.edge_cycles;
  uint64_t fetch_hit = 0, persistent = 0, load_hit = 0;
  for (uint32_t bi = fn.first_block; bi < fn.end_block; ++bi) {
    const SiteTable::Block& b = table.blocks[bi];
    uint64_t cycles = b.fixed;
    if (!cached) {
      cycles += b.main_fetches * uint64_t{MemTiming::main_memory(2)} +
                b.bypass_data;
    } else {
      uint64_t classified = b.main_fetches;
      if (unified) {
        cycles += b.unified_data + b.line_fills * miss;
        classified += b.cached_loads;
      } else {
        cycles += b.bypass_data;
      }
      uint64_t not_miss = 0;
      for (uint32_t s = b.first_site; s < b.end_site; ++s) {
        const ByteCounts& c = kByteCounts[bytes[s] & 63u];
        not_miss += c.not_miss;
        fetch_hit += c.fetch_hit;
        persistent += c.persistent;
        load_hit += c.load_hit;
      }
      cycles += classified * miss - not_miss * saved;
    }
    if (b.callee >= 0) {
      const uint64_t callee = func_wcet[static_cast<std::size_t>(b.callee)];
      SPMWCET_CHECK_MSG(callee != kNoWcet,
                        "missing callee WCET (call graph order broken)");
      cycles += callee;
    }
    out.block_cycles[bi - fn.first_block] = cycles;
  }
  stats.fetch_always_hit += fetch_hit;
  stats.persistent_sites += persistent;
  stats.load_always_hit += load_hit;
}

} // namespace spmwcet::wcet
