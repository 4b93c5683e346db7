// Linker tests: placement, alignment, literal pools, branch relaxation,
// region maps, capacity checks, and annotation translation.
#include <gtest/gtest.h>

#include <sstream>

#include "link/layout.h"
#include "minic/codegen.h"
#include "sim/simulator.h"

namespace spmwcet {
namespace {

using namespace minic;

ProgramDef two_function_program() {
  ProgramDef p;
  p.add_global({.name = "g", .type = ElemType::I32, .count = 4});
  auto& h = p.add_function("helper", {"x"}, true);
  h.body = block({});
  h.body->body.push_back(ret(add(var("x"), cst(1000000))));
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  std::vector<ExprPtr> args;
  args.push_back(cst(1));
  m.body->body.push_back(store("g", cst(0), call("helper", std::move(args))));
  m.body->body.push_back(ret());
  return p;
}

TEST(Link, SymbolsAndAlignment) {
  const auto img = link::link_program(compile(two_function_program()));
  const link::Symbol* helper = img.find_symbol("helper");
  const link::Symbol* mainf = img.find_symbol("main");
  const link::Symbol* g = img.find_symbol("g");
  ASSERT_NE(helper, nullptr);
  ASSERT_NE(mainf, nullptr);
  ASSERT_NE(g, nullptr);
  EXPECT_TRUE(helper->is_function);
  EXPECT_FALSE(g->is_function);
  EXPECT_EQ(helper->addr % 4, 0u);
  EXPECT_EQ(mainf->addr % 4, 0u);
  EXPECT_EQ(g->size, 16u);
  EXPECT_EQ(img.symbol_at(helper->addr + 2), helper);
  EXPECT_EQ(img.symbol_at(g->addr + 5), g);
}

TEST(Link, LiteralPoolDeduplicates) {
  // Two uses of the same large constant must share one literal slot.
  ProgramDef p;
  p.add_global({.name = "r", .type = ElemType::I32, .count = 2});
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  m.body->body.push_back(store("r", cst(0), cst(123456789)));
  m.body->body.push_back(store("r", cst(1), cst(123456789)));
  m.body->body.push_back(ret());
  const auto mod = compile(p);
  const auto& fn = *mod.find_function("main");
  int count = 0;
  for (const auto& lit : fn.literals)
    if (!lit.is_symbol && lit.value == 123456789) ++count;
  EXPECT_EQ(count, 1);
}

TEST(Link, BranchRelaxationKeepsSemantics) {
  // An if-branch over a very large then-block forces BCC out of its
  // +/-256-byte range; the linker must relax it, and the program must
  // still compute the right answer.
  ProgramDef p;
  p.add_global({.name = "r", .type = ElemType::I32, .count = 1});
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  m.body->body.push_back(assign("x", cst(1)));
  std::vector<StmtPtr> big;
  for (int i = 0; i < 200; ++i)
    big.push_back(assign("x", add(var("x"), cst(1))));
  m.body->body.push_back(
      if_(eq(var("x"), cst(0)), block(std::move(big)))); // not taken
  m.body->body.push_back(gassign("r", var("x")));
  m.body->body.push_back(ret());

  const auto img = link::link_program(compile(p));
  sim::Simulator s(img, {});
  s.run();
  EXPECT_EQ(s.read_global("r"), 1); // the big block was skipped correctly
}

TEST(Link, BranchRelaxationTakenPath) {
  // Same shape but the condition holds: the relaxed branch pair must also
  // execute the big block correctly.
  ProgramDef p;
  p.add_global({.name = "r", .type = ElemType::I32, .count = 1});
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  m.body->body.push_back(assign("x", cst(0)));
  std::vector<StmtPtr> big;
  for (int i = 0; i < 200; ++i)
    big.push_back(assign("x", add(var("x"), cst(1))));
  m.body->body.push_back(if_(eq(var("x"), cst(0)), block(std::move(big))));
  m.body->body.push_back(gassign("r", var("x")));
  m.body->body.push_back(ret());

  const auto img = link::link_program(compile(p));
  sim::Simulator s(img, {});
  s.run();
  EXPECT_EQ(s.read_global("r"), 200);
}

TEST(Link, SpmCapacityIsEnforced) {
  link::LinkOptions opts;
  opts.spm_size = 8;
  link::SpmAssignment spm;
  spm.globals.insert("g"); // 16 bytes > 8
  EXPECT_THROW(
      link::link_program(compile(two_function_program()), opts, spm),
      ProgramError);
}

TEST(Link, UnknownSpmObjectIsRejected) {
  link::SpmAssignment spm;
  spm.functions.insert("nope");
  EXPECT_THROW(link::link_program(compile(two_function_program()), {}, spm),
               ProgramError);
}

TEST(Link, MeasureMatchesLinkedSizes) {
  const auto mod = compile(two_function_program());
  const std::vector<link::FunctionExtent> extents =
      link::lay_out(mod).extents();
  const auto img = link::link_program(mod);
  ASSERT_EQ(extents.size(), mod.functions.size());
  for (std::size_t i = 0; i < extents.size(); ++i)
    EXPECT_EQ(img.find_symbol(mod.functions[i].name)->size,
              extents[i].total_bytes)
        << mod.functions[i].name;
  for (const auto& g : mod.globals)
    EXPECT_EQ(img.find_symbol(g.name)->size, g.size_bytes()) << g.name;
}

TEST(Link, RegionMapCoversCodePoolsDataStack) {
  const auto img = link::link_program(compile(two_function_program()));
  bool has_code = false, has_pool = false, has_data = false, has_stack = false;
  for (const auto& r : img.regions.regions()) {
    has_code |= r.kind == link::RegionKind::MainCode;
    has_pool |= r.kind == link::RegionKind::LiteralPool;
    has_data |= r.kind == link::RegionKind::MainData;
    has_stack |= r.kind == link::RegionKind::Stack;
  }
  EXPECT_TRUE(has_code);
  EXPECT_TRUE(has_pool); // helper loads the constant 1000000 from a pool
  EXPECT_TRUE(has_data);
  EXPECT_TRUE(has_stack);
}

TEST(Link, AnnotationDumpHasFigure2Shape) {
  const auto img = link::link_program(compile(two_function_program()));
  std::ostringstream os;
  img.regions.dump_annotations(os);
  const std::string dump = os.str();
  EXPECT_NE(dump.find("MEMORY-AREA"), std::string::npos);
  EXPECT_NE(dump.find("READ-ONLY CODE-ONLY"), std::string::npos);
  EXPECT_NE(dump.find("# Main memory regions"), std::string::npos);
}

TEST(Link, SpmRegionsAppearWhenAssigned) {
  link::LinkOptions opts;
  opts.spm_size = 4096;
  link::SpmAssignment spm;
  spm.functions.insert("helper");
  spm.globals.insert("g");
  const auto img =
      link::link_program(compile(two_function_program()), opts, spm);
  bool spm_code = false, spm_data = false;
  for (const auto& r : img.regions.regions()) {
    spm_code |= r.kind == link::RegionKind::SpmCode;
    spm_data |= r.kind == link::RegionKind::SpmData;
  }
  EXPECT_TRUE(spm_code);
  EXPECT_TRUE(spm_data);
  EXPECT_GE(img.find_symbol("helper")->addr, opts.spm_base);
  EXPECT_GE(img.find_symbol("g")->addr, opts.spm_base);
}

TEST(Link, LoopAnnotationsLandOnBranchTargets) {
  ProgramDef p;
  p.add_global({.name = "r", .type = ElemType::I32, .count = 1});
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  m.body->body.push_back(assign("s", cst(0)));
  std::vector<StmtPtr> loop;
  loop.push_back(assign("s", add(var("s"), var("i"))));
  m.body->body.push_back(for_("i", cst(0), cst(12), 1, block(std::move(loop))));
  m.body->body.push_back(gassign("r", var("s")));
  m.body->body.push_back(ret());
  const auto img = link::link_program(compile(p));
  ASSERT_EQ(img.loop_bounds.size(), 1u);
  EXPECT_EQ(img.loop_bounds.begin()->second, 12);
  // The header address must lie inside main's code region.
  const link::Region* r = img.regions.find(img.loop_bounds.begin()->first);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->kind, link::RegionKind::MainCode);
}

TEST(Link, AccessHintsCoverGlobalAccesses) {
  const auto img = link::link_program(compile(two_function_program()));
  bool found_g = false;
  for (const auto& [addr, sym] : img.access_hints) found_g |= sym == "g";
  EXPECT_TRUE(found_g);
}

TEST(Image, ByteAccessorsAndBounds) {
  const auto img = link::link_program(compile(two_function_program()));
  EXPECT_TRUE(img.contains(img.entry));
  EXPECT_FALSE(img.contains(0xFFFFFFF0u));
  EXPECT_THROW(img.read32(0xFFFFFFF0u), SimulationError);
  // read16 must agree with read8 pairs (little endian).
  const uint32_t addr = img.entry;
  EXPECT_EQ(img.read16(addr),
            img.read8(addr) | (static_cast<uint16_t>(img.read8(addr + 1)) << 8));
}

} // namespace
} // namespace spmwcet
