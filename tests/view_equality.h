// Field equality of two bound analyzer views (wcet::ProgramView): the
// check that holds a view bound from the relocatable program to bind_view
// on the linked image it stands for.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "wcet/frontend.h"

namespace spmwcet::test {

/// Holds `bound` field-equal to `oracle` in its root, function indices, CFG
/// addresses, instructions, per-site memory facts, site table and bottom-up
/// function order; adds the sites compared to `sites`.
inline void expect_same_view(const wcet::ProgramView& bound,
                             const wcet::ProgramView& oracle,
                             const std::string& what, std::size_t& sites) {
  EXPECT_EQ(bound.root, oracle.root) << what;
  EXPECT_EQ(bound.func_index, oracle.func_index) << what;
  ASSERT_EQ(bound.cfgs.size(), oracle.cfgs.size()) << what;
  for (auto b = bound.cfgs.begin(), o = oracle.cfgs.begin();
       b != bound.cfgs.end(); ++b, ++o) {
    ASSERT_EQ(b->first, o->first) << what;
    ASSERT_EQ(b->second.blocks.size(), o->second.blocks.size()) << what;
    for (std::size_t k = 0; k < b->second.blocks.size(); ++k) {
      const wcet::BasicBlock& bb = b->second.blocks[k];
      const wcet::BasicBlock& ob = o->second.blocks[k];
      EXPECT_EQ(bb.first_addr, ob.first_addr) << what;
      EXPECT_EQ(bb.call_target, ob.call_target) << what;
      ASSERT_EQ(bb.instrs.size(), ob.instrs.size()) << what;
      for (std::size_t i = 0; i < bb.instrs.size(); ++i, ++sites) {
        const wcet::CfgInstr& bi = bb.instrs[i];
        const wcet::CfgInstr& oi = ob.instrs[i];
        EXPECT_EQ(bi.addr, oi.addr) << what;
        EXPECT_TRUE(bi.ins == oi.ins && bi.bl_lo == oi.bl_lo)
            << what << " at " << oi.addr;
        EXPECT_TRUE(bi.mem == oi.mem) << what << " at " << oi.addr;
      }
    }
  }
  EXPECT_TRUE(bound.scaffold.sites == oracle.scaffold.sites) << what;
  EXPECT_EQ(bound.scaffold.bottom_up, oracle.scaffold.bottom_up) << what;
}

} // namespace spmwcet::test
