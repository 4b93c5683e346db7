#include "wcet/site_table.h"

#include <algorithm>
#include <string>

#include "isa/timing.h"
#include "support/diag.h"

namespace spmwcet::wcet {

using isa::ExecTiming;
using isa::MemTiming;
using isa::Op;

namespace {

/// Records one instruction's data access in its site and block. The
/// per-configuration costs are those of the per-instruction timing: a
/// store, or any access that bypasses the cache, costs its uncached
/// main-memory time; a unified cache classifies exact main-memory loads
/// and charges every other main-memory load a line fill.
void add_data_access(const MemFacts& mem, SiteTable::Site& site,
                     SiteTable::Block& block) {
  const AddrInfo& info = mem.access;
  site.accesses = info.accesses;
  site.lo = info.lo;
  site.hi = info.hi;
  const uint32_t n = info.accesses;
  using Load = SiteTable::Load;
  switch (info.kind) {
    case AddrInfo::Kind::Exact: {
      if (!mem.may_spm && !mem.may_main) { // unmapped (exact_class raises)
        site.fault = SiteTable::Fault::Unmapped;
        if (!info.is_store) site.load = Load::Unmapped;
        return;
      }
      if (mem.may_spm) {
        block.bypass_data += MemTiming::scratchpad() * n;
        block.unified_data += MemTiming::scratchpad() * n;
        return;
      }
      block.bypass_data += MemTiming::main_memory(info.width) * n;
      if (info.is_store) {
        block.unified_data += MemTiming::main_memory(info.width) * n;
        return;
      }
      SPMWCET_CHECK(n == 1); // one classification per exact load
      site.load = Load::Exact;
      ++block.cached_loads;
      return;
    }
    case AddrInfo::Kind::Range: {
      if (!mem.may_main && !mem.may_spm) {
        site.fault = SiteTable::Fault::OutsideMemory;
        return;
      }
      if (!info.is_store) site.load = Load::Range;
      // Worst over the classes the range touches; a line fill outranks a
      // scratchpad access.
      const uint32_t uncached =
          mem.may_main ? std::max(MemTiming::main_memory(info.width),
                                  MemTiming::scratchpad())
                       : MemTiming::scratchpad();
      block.bypass_data += uncached * n;
      if (info.is_store || !mem.may_main)
        block.unified_data += uncached * n;
      else
        block.line_fills += info.accesses;
      return;
    }
    case AddrInfo::Kind::Stack:
    case AddrInfo::Kind::Unknown: {
      const uint32_t width =
          info.kind == AddrInfo::Kind::Stack ? 4 : info.width;
      block.bypass_data += MemTiming::main_memory(width) * n;
      if (info.is_store) {
        block.unified_data += MemTiming::main_memory(width) * n;
        return;
      }
      site.load = info.kind == AddrInfo::Kind::Stack ? Load::Stack
                                                     : Load::Unknown;
      block.line_fills += info.accesses;
      return;
    }
  }
}

} // namespace

SiteTable build_site_table(const std::map<uint32_t, Cfg>& cfgs,
                           std::span<const MemFacts> facts,
                           std::span<const uint32_t> func_base) {
  static_assert(MemTiming::cache_miss(4) >= MemTiming::scratchpad(),
                "a line fill must outrank a scratchpad access");
  std::vector<uint32_t> func_addr; // function ordinal -> entry address
  func_addr.reserve(cfgs.size());
  std::size_t nblocks = 0, nsites = 0;
  for (const auto& [faddr, cfg] : cfgs) {
    func_addr.push_back(faddr);
    nblocks += cfg.blocks.size();
    for (const BasicBlock& b : cfg.blocks) nsites += b.instrs.size();
  }
  SPMWCET_CHECK_MSG(facts.size() == nsites,
                    "site table: " + std::to_string(facts.size()) +
                        " memory facts for " + std::to_string(nsites) +
                        " sites (resolve_memory)");
  SPMWCET_CHECK(func_base.empty() || func_base.size() == cfgs.size());
  SiteTable t;
  t.sites.resize(nsites);
  t.blocks.reserve(nblocks);
  t.functions.reserve(cfgs.size());
  uint32_t k = 0; // next site
  uint64_t fetch_sites = 0, load_sites = 0;
  for (const auto& [faddr, cfg] : cfgs) {
    const uint32_t delta =
        func_base.empty() ? 0 : func_base[t.functions.size()] - faddr;
    SiteTable::Function fn;
    fn.first_block = static_cast<uint32_t>(t.blocks.size());
    for (const BasicBlock& b : cfg.blocks) {
      SPMWCET_CHECK(b.instrs.size() < (std::size_t{1} << 24));
      SiteTable::Block block;
      block.first_site = k;
      for (const CfgInstr& ci : b.instrs) {
        SiteTable::Site& site = t.sites[k];
        const MemFacts& mem = facts[k];
        site.addr = ci.addr + delta;
        const uint32_t halves = ci.size / 2;
        const uint32_t main = mem.fetch_spm ? 0 : halves;
        fetch_sites += halves;
        site.main_fetches = static_cast<uint8_t>(main);
        block.main_fetches += main;
        block.fixed += MemTiming::scratchpad() * (halves - main);
        if (ci.ins.op == Op::ALU) // the only instructions with extras
          block.fixed += ExecTiming::compute_extra(ci.ins);
        if (mem.has_access) {
          load_sites += !mem.access.is_store;
          add_data_access(mem, site, block);
          if (site.fault != SiteTable::Fault::None && fn.fault_site < 0)
            fn.fault_site = k;
        }
        ++k;
      }
      block.end_site = k;

      const CfgInstr& last = b.instrs.back();
      if (last.ins.op == Op::B) {
        block.fixed += ExecTiming::taken_branch_penalty;
      } else if (last.ins.op == Op::BL_HI) {
        block.fixed += ExecTiming::call_penalty;
        SPMWCET_CHECK(b.call_target.has_value());
        const auto callee = std::lower_bound(
            func_addr.begin(), func_addr.end(), *b.call_target);
        SPMWCET_CHECK_MSG(callee != func_addr.end() &&
                              *callee == *b.call_target,
                          "site table: call to a function outside the view");
        block.callee = static_cast<int32_t>(callee - func_addr.begin());
      } else if (isa::is_return(last.ins)) {
        block.fixed += ExecTiming::return_penalty;
      } else if (last.ins.op == Op::BCC) {
        for (const int e : b.out_edges)
          if (cfg.edges[static_cast<std::size_t>(e)].kind == EdgeKind::Taken)
            fn.edge_cycles.emplace_back(e, ExecTiming::taken_branch_penalty);
      }
      t.blocks.push_back(block);
    }
    fn.end_block = static_cast<uint32_t>(t.blocks.size());
    // Each edge leaves one block, so it is listed once; order by edge.
    std::sort(fn.edge_cycles.begin(), fn.edge_cycles.end());
    t.functions.push_back(std::move(fn));
  }
  t.fetch_sites = fetch_sites;
  t.load_sites = load_sites;
  return t;
}

void raise_site_fault(const SiteTable::Site& site) {
  SPMWCET_CHECK(site.fault != SiteTable::Fault::None);
  if (site.fault == SiteTable::Fault::Unmapped) throw_unmapped(site.lo);
  detail::check_failed("in_main || in_spm", __FILE__, __LINE__,
                       "access range outside all mapped memory");
}

} // namespace spmwcet::wcet
