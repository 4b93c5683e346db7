// Field equality of two bound analyzer views (wcet::ProgramView): the
// check that holds a view bound from the relocatable program to bind_view
// on the linked image it stands for.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <iterator>
#include <string>
#include <vector>

#include "wcet/frontend.h"

namespace spmwcet::test {

/// A view's functions by ordinal (its structure's key order): each one's
/// ProgramShape index and first site, and the ordinal of each shape index.
struct ViewFunctions {
  std::vector<std::size_t> index;
  std::vector<uint32_t> first_site;
  std::vector<std::size_t> ordinal;

  explicit ViewFunctions(const wcet::ProgramView& view) {
    const wcet::ViewStructure& s = *view.structure;
    ordinal.resize(s.cfgs.size());
    uint32_t site = 0;
    for (const auto& [f, cfg] : s.cfgs) {
      ordinal.at(s.func_index.at(f)) = index.size();
      index.push_back(s.func_index.at(f));
      first_site.push_back(site);
      for (const wcet::BasicBlock& b : cfg.blocks)
        site += static_cast<uint32_t>(b.instrs.size());
    }
  }
};

/// Holds `bound` field-equal to `oracle` function by function, matched
/// through func_index (a placement keeps the canonical function order, a
/// linked image orders functions by address): each function's base, its
/// blocks and instructions at that base, call targets, loop bounds and
/// totals, per-site memory facts, sites (placed addresses), site-table
/// blocks and edge cycles; then the root, the stack top, the site
/// statistics and the bottom-up function order. Adds the sites compared to
/// `sites`.
inline void expect_same_view(const wcet::ProgramView& bound,
                             const wcet::ProgramView& oracle,
                             const std::string& what, std::size_t& sites) {
  const wcet::ViewStructure& bs = *bound.structure;
  const wcet::ViewStructure& os = *oracle.structure;
  ASSERT_EQ(bs.cfgs.size(), os.cfgs.size()) << what;
  ASSERT_EQ(bound.func_base.size(), bs.cfgs.size()) << what;
  ASSERT_EQ(oracle.func_base.size(), os.cfgs.size()) << what;
  ASSERT_EQ(bound.facts.size(), bound.sites.sites.size()) << what;
  ASSERT_EQ(oracle.facts.size(), oracle.sites.sites.size()) << what;
  const ViewFunctions bf(bound), of(oracle);
  // A site-table block or function with its sites, blocks and callee
  // relative to its own function.
  const auto block_of = [](const wcet::ProgramView& v, const ViewFunctions& vf,
                           uint32_t k, uint32_t first_site) {
    wcet::SiteTable::Block b = v.sites.blocks[k];
    b.first_site -= first_site;
    b.end_site -= first_site;
    if (b.callee >= 0)
      b.callee = static_cast<int32_t>(
          vf.index[static_cast<std::size_t>(b.callee)]);
    return b;
  };
  const auto function_of = [](const wcet::ProgramView& v, std::size_t ord,
                              uint32_t first_site) {
    wcet::SiteTable::Function fn = v.sites.functions[ord];
    const uint32_t first_block = fn.first_block;
    fn.first_block = 0;
    fn.end_block -= first_block;
    if (fn.fault_site >= 0) fn.fault_site -= first_site;
    return fn;
  };

  std::size_t bo = 0;
  for (auto b = bs.cfgs.begin(); b != bs.cfgs.end(); ++b, ++bo) {
    const std::size_t oo = of.ordinal.at(bf.index[bo]);
    const auto o = std::next(os.cfgs.begin(), static_cast<std::ptrdiff_t>(oo));
    const wcet::Cfg& bc = b->second;
    const wcet::Cfg& oc = o->second;
    const std::string fwhat = what + "/" + oc.name;
    ASSERT_EQ(bc.name, oc.name) << fwhat;
    EXPECT_EQ(bound.func_base[bo], oracle.func_base[oo]) << fwhat;
    const uint32_t bdelta = bound.func_base[bo] - bc.func_addr;
    const uint32_t odelta = oracle.func_base[oo] - oc.func_addr;
    ASSERT_EQ(bc.blocks.size(), oc.blocks.size()) << fwhat;
    for (std::size_t k = 0; k < bc.blocks.size(); ++k) {
      const wcet::BasicBlock& bb = bc.blocks[k];
      const wcet::BasicBlock& ob = oc.blocks[k];
      EXPECT_EQ(bb.first_addr + bdelta, ob.first_addr + odelta) << fwhat;
      ASSERT_EQ(bb.call_target.has_value(), ob.call_target.has_value())
          << fwhat;
      if (bb.call_target)
        EXPECT_EQ(bs.func_index.at(*bb.call_target),
                  os.func_index.at(*ob.call_target))
            << fwhat;
      ASSERT_EQ(bb.instrs.size(), ob.instrs.size()) << fwhat;
      for (std::size_t i = 0; i < bb.instrs.size(); ++i) {
        const wcet::CfgInstr& bi = bb.instrs[i];
        const wcet::CfgInstr& oi = ob.instrs[i];
        EXPECT_EQ(bi.addr + bdelta, oi.addr + odelta) << fwhat;
        // A call's offset is the only link-time field of the stream.
        EXPECT_TRUE(bi.ins.op == oi.ins.op &&
                    (bi.ins.op == isa::Op::BL_HI || bi.ins == oi.ins))
            << fwhat << " at " << oi.addr;
      }
    }
    for (const wcet::Loop& loop : bs.loops.at(b->first)->loops) {
      const std::size_t h = static_cast<std::size_t>(loop.header);
      const uint32_t bh = bc.blocks[h].first_addr;
      const uint32_t oh = oc.blocks[h].first_addr;
      EXPECT_EQ(bs.ann.loop_bound(bh), os.ann.loop_bound(oh)) << fwhat;
      EXPECT_EQ(bs.ann.loop_total(bh), os.ann.loop_total(oh)) << fwhat;
    }

    const uint32_t bsite = bf.first_site[bo], osite = of.first_site[oo];
    const wcet::SiteTable::Function bfn = function_of(bound, bo, bsite);
    const wcet::SiteTable::Function ofn = function_of(oracle, oo, osite);
    ASSERT_TRUE(bfn == ofn) << fwhat;
    const uint32_t bblock = bound.sites.functions[bo].first_block;
    const uint32_t oblock = oracle.sites.functions[oo].first_block;
    for (uint32_t k = 0; k < ofn.end_block; ++k)
      ASSERT_TRUE(block_of(bound, bf, bblock + k, bsite) ==
                  block_of(oracle, of, oblock + k, osite))
          << fwhat << " block " << k;
    const uint32_t nsites =
        oracle.sites.blocks[oblock + ofn.end_block - 1].end_site - osite;
    for (uint32_t k = 0; k < nsites; ++k, ++sites) {
      EXPECT_TRUE(bound.facts[bsite + k] == oracle.facts[osite + k])
          << fwhat << " site " << k;
      EXPECT_TRUE(bound.sites.sites[bsite + k] == oracle.sites.sites[osite + k])
          << fwhat << " site " << k;
    }
  }

  EXPECT_EQ(bs.func_index.at(bs.root), os.func_index.at(os.root)) << what;
  EXPECT_EQ(bound.stack_top, oracle.stack_top) << what;
  EXPECT_EQ(bound.sites.fetch_sites, oracle.sites.fetch_sites) << what;
  EXPECT_EQ(bound.sites.load_sites, oracle.sites.load_sites) << what;
  EXPECT_EQ(bs.recursive.has_value(), os.recursive.has_value()) << what;
  ASSERT_EQ(bs.bottom_up.size(), os.bottom_up.size()) << what;
  for (std::size_t k = 0; k < bs.bottom_up.size(); ++k)
    EXPECT_EQ(bf.index[bs.bottom_up[k]], of.index[os.bottom_up[k]]) << what;
}

} // namespace spmwcet::test
