// Value-analysis and annotation tests: address resolution of literal-pool
// loads, global scalars, array accesses (hint ranges), stack traffic, the
// per-instruction memory classes resolve_memory records, and annotation
// consistency checking.
#include <gtest/gtest.h>

#include <map>

#include "link/layout.h"
#include "minic/codegen.h"
#include "support/diag.h"
#include "wcet/annotations.h"
#include "wcet/cfg.h"
#include "wcet/value_analysis.h"

namespace spmwcet::wcet {
namespace {

using namespace minic;

struct Analyzed {
  link::Image img;
  /// main's resolved data accesses, keyed by instruction address.
  std::map<uint32_t, AddrInfo> addrs;
};

/// A function's CFG and its memory facts, one per instruction in site
/// order.
struct Resolved {
  Cfg cfg;
  std::vector<MemFacts> facts;
};

/// Resolves the memory facts of `func` in `img`.
Resolved resolved_cfg(const link::Image& img, const std::string& func) {
  Resolved r{build_cfg(img, img.find_symbol(func)->addr), {}};
  resolve_memory(img, r.cfg, Annotations::from_image(img), r.facts);
  return r;
}

Analyzed analyze_main(ProgramDef& p) {
  Analyzed a{link::link_program(compile(p)), {}};
  const Resolved r = resolved_cfg(a.img, "main");
  std::size_t site = 0;
  for (const BasicBlock& b : r.cfg.blocks)
    for (const CfgInstr& ci : b.instrs) {
      const MemFacts& mem = r.facts.at(site++);
      if (mem.has_access) a.addrs[ci.addr] = mem.access;
    }
  EXPECT_EQ(site, r.facts.size());
  return a;
}

int count_kind(const Analyzed& a, AddrInfo::Kind kind) {
  int n = 0;
  for (const auto& [addr, info] : a.addrs)
    if (info.kind == kind) ++n;
  return n;
}

TEST(ValueAnalysis, GlobalScalarResolvesExactly) {
  ProgramDef p;
  p.add_global({.name = "x", .type = ElemType::I32, .count = 1});
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  m.body->body.push_back(gassign("x", cst(42)));
  m.body->body.push_back(ret());
  const Analyzed a = analyze_main(p);

  const link::Symbol* x = a.img.find_symbol("x");
  bool found_exact_store = false;
  for (const auto& [addr, info] : a.addrs) {
    if (info.is_store && info.kind == AddrInfo::Kind::Exact)
      found_exact_store |= info.lo == x->addr;
  }
  EXPECT_TRUE(found_exact_store)
      << "store to a global scalar must resolve to its exact address";
}

TEST(ValueAnalysis, LiteralPoolLoadsAreExactWordAccesses) {
  ProgramDef p;
  p.add_global({.name = "x", .type = ElemType::I32, .count = 1});
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  m.body->body.push_back(gassign("x", cst(1234567))); // forces a pool entry
  m.body->body.push_back(ret());
  const Analyzed a = analyze_main(p);
  int pool_loads = 0;
  for (const auto& [addr, info] : a.addrs) {
    if (info.kind == AddrInfo::Kind::Exact && !info.is_store &&
        info.width == 4) {
      const link::Region* r = a.img.regions.find(info.lo);
      if (r != nullptr && r->kind == link::RegionKind::LiteralPool)
        ++pool_loads;
    }
  }
  EXPECT_GE(pool_loads, 1);
}

TEST(ValueAnalysis, DynamicArrayIndexGetsHintRange) {
  ProgramDef p;
  p.add_global({.name = "tab", .type = ElemType::I16, .count = 20});
  p.add_global({.name = "r", .type = ElemType::I32, .count = 1});
  p.add_global({.name = "k", .type = ElemType::I32, .count = 1});
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  // Index comes from memory: the analysis cannot know it, the hint can.
  m.body->body.push_back(gassign("r", idx("tab", gld("k"))));
  m.body->body.push_back(ret());
  const Analyzed a = analyze_main(p);

  const link::Symbol* tab = a.img.find_symbol("tab");
  bool found_range = false;
  for (const auto& [addr, info] : a.addrs) {
    if (info.kind == AddrInfo::Kind::Range && !info.is_store &&
        info.width == 2) {
      EXPECT_GE(info.lo, tab->addr);
      EXPECT_LE(info.hi, tab->addr + tab->size - 1);
      found_range = true;
    }
  }
  EXPECT_TRUE(found_range);
}

TEST(ValueAnalysis, StackAccessesClassifiedAsStack) {
  ProgramDef p;
  p.add_global({.name = "r", .type = ElemType::I32, .count = 1});
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  m.body->body.push_back(assign("x", cst(3)));
  m.body->body.push_back(gassign("r", add(var("x"), var("x"))));
  m.body->body.push_back(ret());
  const Analyzed a = analyze_main(p);
  EXPECT_GE(count_kind(a, AddrInfo::Kind::Stack), 3)
      << "locals and push/pop must be stack-classified";
  EXPECT_EQ(count_kind(a, AddrInfo::Kind::Unknown), 0)
      << "this program has no unresolvable accesses";
}

TEST(ValueAnalysis, PushPopAccountsTransferCount) {
  ProgramDef p;
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  m.body->body.push_back(ret());
  const Analyzed a = analyze_main(p);
  bool found_push = false;
  for (const auto& [addr, info] : a.addrs) {
    if (info.kind == AddrInfo::Kind::Stack && info.accesses == 5) {
      // prologue push {r4-r7, lr}
      found_push = true;
      EXPECT_EQ(info.width, 4u);
    }
  }
  EXPECT_TRUE(found_push);
}

TEST(ValueAnalysis, FactsRecordFetchAndAccessClasses) {
  // With main and one global on the scratchpad, main's fetches are SPM
  // fetches, the exact store to the SPM global may touch only the
  // scratchpad, and the store to the main-memory global only main memory.
  ProgramDef p;
  p.add_global({.name = "fast", .type = ElemType::I32, .count = 1});
  p.add_global({.name = "slow", .type = ElemType::I32, .count = 1});
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  m.body->body.push_back(gassign("fast", cst(1)));
  m.body->body.push_back(gassign("slow", cst(2)));
  m.body->body.push_back(ret());
  link::LinkOptions opts;
  opts.spm_size = 4096;
  link::SpmAssignment spm;
  spm.functions.insert("main");
  spm.globals.insert("fast");
  const link::Image img = link::link_program(compile(p), opts, spm);
  const Resolved r = resolved_cfg(img, "main");
  const uint32_t fast = img.find_symbol("fast")->addr;
  const uint32_t slow = img.find_symbol("slow")->addr;
  int fast_stores = 0, slow_stores = 0;
  for (const MemFacts& mem : r.facts) {
    EXPECT_TRUE(mem.fetch_spm) << "main sits on the scratchpad";
    const AddrInfo& info = mem.access;
    if (!mem.has_access || !info.is_store ||
        info.kind != AddrInfo::Kind::Exact)
      continue;
    if (info.lo == fast) {
      ++fast_stores;
      EXPECT_TRUE(mem.may_spm);
      EXPECT_FALSE(mem.may_main);
      EXPECT_EQ(mem.exact_class(), isa::MemClass::Scratchpad);
    } else if (info.lo == slow) {
      ++slow_stores;
      EXPECT_FALSE(mem.may_spm);
      EXPECT_TRUE(mem.may_main);
      EXPECT_EQ(mem.exact_class(), isa::MemClass::MainMemory);
    }
  }
  EXPECT_EQ(fast_stores, 1);
  EXPECT_EQ(slow_stores, 1);
}

TEST(Annotations, FromImageResolvesHintSymbols) {
  ProgramDef p;
  p.add_global({.name = "data", .type = ElemType::U8, .count = 7});
  p.add_global({.name = "r", .type = ElemType::I32, .count = 1});
  p.add_global({.name = "k", .type = ElemType::I32, .count = 1});
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  m.body->body.push_back(gassign("r", idx("data", gld("k"))));
  m.body->body.push_back(ret());
  const auto img = link::link_program(compile(p));
  const Annotations ann = Annotations::from_image(img);
  const link::Symbol* data = img.find_symbol("data");
  bool found = false;
  for (const auto& [addr, sym] : img.access_hints) {
    if (sym != "data") continue;
    const auto range = ann.access_range(addr);
    ASSERT_TRUE(range.has_value());
    EXPECT_EQ(range->lo, data->addr);
    EXPECT_EQ(range->hi, data->addr + data->size - 1);
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Annotations, ManualOverridesWin) {
  Annotations ann;
  ann.set_loop_bound(0x100, 7);
  ann.set_loop_bound(0x100, 9); // later write wins
  EXPECT_EQ(ann.loop_bound(0x100), 9);
  EXPECT_FALSE(ann.loop_bound(0x200).has_value());
  ann.set_loop_total(0x100, 40);
  EXPECT_EQ(ann.loop_total(0x100), 40);
  ann.set_access_range(0x40, 0x1000, 0x1010);
  const auto r = ann.access_range(0x40);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->lo, 0x1000u);
  EXPECT_EQ(r->hi, 0x1010u);
}

TEST(Annotations, ContradictoryHintIsRejected) {
  // Force a hint range that contradicts the analysis: the analyzer sees an
  // exact scalar address; a disjoint manual range must raise.
  ProgramDef p;
  p.add_global({.name = "x", .type = ElemType::I32, .count = 1});
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  m.body->body.push_back(gassign("x", cst(1)));
  m.body->body.push_back(ret());
  const auto img = link::link_program(compile(p));

  Annotations ann = Annotations::from_image(img);
  // Find the store instruction address through the existing hints.
  uint32_t store_addr = 0;
  for (const auto& [addr, sym] : img.access_hints)
    if (sym == "x") store_addr = addr;
  ASSERT_NE(store_addr, 0u);
  ann.set_access_range(store_addr, 0x1, 0x2); // contradicts the scalar's address

  const uint32_t main_addr = img.find_symbol("main")->addr;
  const Cfg cfg = build_cfg(img, main_addr);
  std::vector<MemFacts> facts;
  EXPECT_THROW(resolve_memory(img, cfg, ann, facts), spmwcet::AnnotationError);
}

} // namespace
} // namespace spmwcet::wcet
