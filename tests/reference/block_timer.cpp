#include "reference/block_timer.h"

#include <algorithm>
#include <atomic>
#include <map>

#include "isa/timing.h"
#include "support/diag.h"

namespace spmwcet::reference {

using isa::ExecTiming;
using isa::MemClass;
using isa::MemTiming;
using isa::Op;

namespace {

class BlockTimer {
public:
  BlockTimer(const wcet::Cfg& cfg, const TimingInputs& in) : cfg_(cfg), in_(in) {
    if (in_.cache) miss_ = MemTiming::cache_miss(in_.cache->line_bytes);
  }

  wcet::BlockTimes run() {
    wcet::BlockTimes out;
    out.block_cycles.resize(cfg_.blocks.size(), 0);
    std::map<int, uint64_t> edge_cycles;
    uint32_t site = in_.first_site;
    for (const auto& b : cfg_.blocks) {
      uint64_t cycles = 0;
      for (const wcet::CfgInstr& ci : b.instrs) cycles += instr_cycles(ci, site++);
      const wcet::CfgInstr& last = b.instrs.back();
      if (last.ins.op == Op::B) {
        cycles += ExecTiming::taken_branch_penalty;
      } else if (last.ins.op == Op::BL_HI) {
        cycles += ExecTiming::call_penalty;
        SPMWCET_CHECK(b.call_target.has_value());
        SPMWCET_CHECK_MSG(in_.callee_wcet != nullptr &&
                              in_.callee_wcet->count(*b.call_target) != 0,
                          "missing callee WCET (call graph order broken)");
        cycles += in_.callee_wcet->at(*b.call_target);
      } else if (isa::is_return(last.ins)) {
        cycles += ExecTiming::return_penalty;
      } else if (last.ins.op == Op::BCC) {
        // Taken edge pays the refill penalty.
        for (const int e : b.out_edges)
          if (cfg_.edges[static_cast<std::size_t>(e)].kind == wcet::EdgeKind::Taken)
            edge_cycles[e] += ExecTiming::taken_branch_penalty;
      }
      out.block_cycles[static_cast<std::size_t>(b.id)] = cycles;
    }
    out.edge_cycles.assign(edge_cycles.begin(), edge_cycles.end());
    return out;
  }

private:
  bool cached() const { return in_.cache.has_value(); }
  bool unified() const { return cached() && in_.cache->unified; }

  /// Cycles of a classified cache access: hits and persistent accesses
  /// cost a hit (the persistent one-off penalty is charged globally).
  uint64_t cached_cycles(wcet::Outcome o) const {
    return o == wcet::Outcome::Miss ? miss_ : MemTiming::cache_hit();
  }

  uint64_t fetch_cycles(uint32_t site, uint32_t half) const {
    if (in_.facts[site].fetch_spm) return MemTiming::scratchpad();
    if (!cached()) return MemTiming::main_memory(2);
    return cached_cycles(in_.classification->fetch(site, half));
  }

  /// Worst-case cycles of one data access with facts `mem`.
  uint64_t data_cycles(uint32_t site, const wcet::MemFacts& mem) const {
    const wcet::AddrInfo& info = mem.access;
    const uint32_t width = info.width;
    uint64_t per_access = 0;
    switch (info.kind) {
      case wcet::AddrInfo::Kind::Exact: {
        if (mem.exact_class() == MemClass::Scratchpad) {
          per_access = MemTiming::scratchpad();
        } else if (info.is_store || !unified()) {
          per_access = MemTiming::main_memory(width);
        } else {
          per_access = cached_cycles(in_.classification->load(site));
        }
        break;
      }
      case wcet::AddrInfo::Kind::Range: {
        const bool in_main = mem.may_main;
        const bool in_spm = mem.may_spm;
        uint64_t worst = 0;
        if (in_spm) worst = std::max<uint64_t>(worst, MemTiming::scratchpad());
        if (in_main) {
          if (info.is_store || !unified())
            worst = std::max<uint64_t>(worst, MemTiming::main_memory(width));
          else
            worst = std::max<uint64_t>(worst, miss_); // not classified
        }
        SPMWCET_CHECK_MSG(in_main || in_spm,
                          "access range outside all mapped memory");
        per_access = worst;
        break;
      }
      case wcet::AddrInfo::Kind::Stack:
        if (info.is_store || !unified())
          per_access = MemTiming::main_memory(4);
        else
          per_access = miss_; // unknown stack address: never classified
        break;
      case wcet::AddrInfo::Kind::Unknown:
        if (info.is_store || !unified())
          per_access = MemTiming::main_memory(width);
        else
          per_access = miss_;
        break;
    }
    return per_access * info.accesses;
  }

  uint64_t instr_cycles(const wcet::CfgInstr& ci, uint32_t site) const {
    const wcet::MemFacts& mem = in_.facts[site];
    uint64_t cycles = fetch_cycles(site, 0);
    if (ci.size == 4) cycles += fetch_cycles(site, 1);
    cycles += ExecTiming::compute_extra(ci.ins);
    if (mem.has_access) cycles += data_cycles(site, mem);
    return cycles;
  }

  const wcet::Cfg& cfg_;
  const TimingInputs& in_;
  uint64_t miss_ = 0;
};

std::atomic<uint64_t> g_runs{0};

} // namespace

wcet::BlockTimes time_blocks(const wcet::Cfg& cfg, const TimingInputs& inputs) {
  uint64_t end = inputs.first_site;
  for (const auto& b : cfg.blocks) end += b.instrs.size();
  SPMWCET_CHECK_MSG(end <= inputs.facts.size(),
                    "block timing: memory facts of " + cfg.name +
                        " were never resolved (resolve_memory)");
  if (inputs.cache) {
    SPMWCET_CHECK_MSG(inputs.classification != nullptr,
                      "cache configured but no classification supplied");
    SPMWCET_CHECK_MSG(end <= inputs.classification->sites.size(),
                      "block timing: sites of " + cfg.name +
                          " lie outside the classification");
  }
  g_runs.fetch_add(1, std::memory_order_relaxed);
  return BlockTimer(cfg, inputs).run();
}

SiteStatistics site_statistics(const std::map<uint32_t, wcet::Cfg>& cfgs,
                               std::span<const wcet::MemFacts> facts,
                               const wcet::SiteClassification& cls) {
  using wcet::Outcome;
  SiteStatistics st;
  uint32_t site = 0;
  for (const auto& [f, fcfg] : cfgs) {
    for (const auto& b : fcfg.blocks) {
      for (const wcet::CfgInstr& ci : b.instrs) {
        st.fetch_sites += ci.size / 2;
        for (uint32_t half = 0; half < 2; ++half) {
          const Outcome o = cls.fetch(site, half);
          st.fetch_always_hit += o == Outcome::Hit;
          st.persistent_sites += o == Outcome::Persistent;
        }
        SPMWCET_CHECK(site < facts.size());
        const wcet::MemFacts& mem = facts[site];
        const Outcome load = cls.load(site++);
        st.persistent_sites += load == Outcome::Persistent;
        if (mem.has_access && !mem.access.is_store) {
          ++st.load_sites;
          st.load_always_hit += load == Outcome::Hit;
        }
      }
    }
  }
  return st;
}

uint64_t block_timer_runs() { return g_runs.load(std::memory_order_relaxed); }

} // namespace spmwcet::reference
