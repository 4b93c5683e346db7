// Dump and trace surface tests: annotated disassembly, WCET report
// rendering (with the worst-case block profile), and the simulator's
// execution trace.
#include <gtest/gtest.h>

#include <sstream>

#include "link/layout.h"
#include "minic/codegen.h"
#include "reference/simulator.h"
#include "sim/simulator.h"
#include "wcet/analyzer.h"
#include "wcet/dump.h"
#include "workloads/workload.h"

namespace spmwcet {
namespace {

using namespace minic;

ProgramDef loop_program(int n) {
  ProgramDef p;
  p.add_global({.name = "r", .type = ElemType::I32, .count = 1});
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  m.body->body.push_back(assign("s", cst(0)));
  std::vector<StmtPtr> loop;
  loop.push_back(assign("s", add(var("s"), var("i"))));
  m.body->body.push_back(for_("i", cst(0), cst(n), 1, block(std::move(loop))));
  m.body->body.push_back(gassign("r", var("s")));
  m.body->body.push_back(ret());
  return p;
}

TEST(Dump, DisassemblyShowsBlocksBoundsAndHints) {
  auto p = loop_program(17);
  const auto img = link::link_program(compile(p));
  std::ostringstream os;
  wcet::disassemble_function(img, "main", os);
  const std::string s = os.str();
  EXPECT_NE(s.find("main:"), std::string::npos);
  EXPECT_NE(s.find(".L0"), std::string::npos);
  EXPECT_NE(s.find("loop header, bound 17"), std::string::npos);
  EXPECT_NE(s.find("accesses r"), std::string::npos);
  EXPECT_NE(s.find("push {r4,r5,r6,r7,lr}"), std::string::npos);
}

TEST(Dump, DisassemblyRejectsUnknownFunction) {
  auto p = loop_program(3);
  const auto img = link::link_program(compile(p));
  std::ostringstream os;
  EXPECT_THROW(wcet::disassemble_function(img, "nope", os), ProgramError);
}

TEST(Dump, ProgramDisassemblyCoversAllReachableFunctions) {
  ProgramDef p;
  p.add_global({.name = "r", .type = ElemType::I32, .count = 1});
  auto& h = p.add_function("helper", {}, true);
  h.body = block({});
  h.body->body.push_back(ret(cst(1)));
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  m.body->body.push_back(gassign("r", call("helper", {})));
  m.body->body.push_back(ret());
  const auto img = link::link_program(compile(p));
  std::ostringstream os;
  wcet::disassemble_program(img, os);
  const std::string s = os.str();
  EXPECT_NE(s.find("_start:"), std::string::npos);
  EXPECT_NE(s.find("main:"), std::string::npos);
  EXPECT_NE(s.find("helper:"), std::string::npos);
  EXPECT_NE(s.find("bl 0x"), std::string::npos);
}

TEST(Dump, ReportShowsTotalAndFunctions) {
  auto p = loop_program(9);
  const auto img = link::link_program(compile(p));
  const auto report = wcet::analyze_wcet(img, {});
  std::ostringstream os;
  wcet::render_report(report, os);
  const std::string s = os.str();
  EXPECT_NE(s.find("WCET: " + std::to_string(report.wcet)), std::string::npos);
  EXPECT_NE(s.find("main"), std::string::npos);
  EXPECT_NE(s.find("_start"), std::string::npos);
}

TEST(Dump, BlockProfileReflectsLoopBound) {
  const int n = 23;
  auto p = loop_program(n);
  const auto img = link::link_program(compile(p));
  const auto report = wcet::analyze_wcet(img, {});
  const auto& fw = report.functions.at("main");
  ASSERT_FALSE(fw.block_profile.empty());
  // Some block (the loop body) must execute exactly n times on the
  // critical path, and the header n+1 times.
  bool has_n = false, has_n1 = false;
  uint64_t total = 0;
  for (const auto& b : fw.block_profile) {
    has_n |= b.count == static_cast<uint64_t>(n);
    has_n1 |= b.count == static_cast<uint64_t>(n) + 1;
    total += b.contribution();
  }
  EXPECT_TRUE(has_n);
  EXPECT_TRUE(has_n1);
  // Block contributions plus edge penalties make up the function WCET;
  // the block part alone must not exceed it.
  EXPECT_LE(total, fw.wcet);
  EXPECT_GE(total, fw.wcet * 9 / 10) << "edge penalties are a small share";
}

TEST(Dump, VerboseReportListsHotBlocks) {
  auto p = loop_program(50);
  const auto img = link::link_program(compile(p));
  const auto report = wcet::analyze_wcet(img, {});
  std::ostringstream os;
  wcet::render_report(report, os, /*with_blocks=*/true);
  const std::string s = os.str();
  EXPECT_NE(s.find("worst-case path blocks"), std::string::npos);
  EXPECT_NE(s.find("contribution"), std::string::npos);
}

TEST(Trace, ExecutionTraceListsInstructions) {
  auto p = loop_program(2);
  const auto img = link::link_program(compile(p));
  std::ostringstream trace;
  sim::SimConfig cfg;
  cfg.trace = &trace;
  sim::Simulator s(img, cfg);
  const auto run = s.run();
  const std::string t = trace.str();
  // One line per executed instruction (BL pairs are one line).
  const auto lines = static_cast<uint64_t>(
      std::count(t.begin(), t.end(), '\n'));
  EXPECT_EQ(lines + 1, run.instructions); // BL counts twice in instructions
  EXPECT_NE(t.find("push"), std::string::npos);
  EXPECT_NE(t.find("halt"), std::string::npos);
  EXPECT_NE(t.find("bl.hi"), std::string::npos);
}

// A traced run executes one instruction at a time through the one-op
// fallback; its trace must equal the seed simulator's byte for byte.
TEST(Trace, MatchesReferenceTraceByteForByte) {
  const auto adpcm = workloads::WorkloadRegistry::instance().benchmark("adpcm");
  const std::pair<const char*, link::Image> cases[] = {
      {"loop_program", link::link_program(compile(loop_program(5)))},
      {"adpcm", link::link_program(adpcm->module, {}, {})}};
  for (const auto& [name, img] : cases) {
    std::ostringstream want, got;
    sim::SimConfig cfg;
    cfg.collect_profile = true;
    cfg.trace = &want;
    const uint64_t runs = reference::simulator_runs();
    const auto ref = reference::simulate(img, cfg);
    EXPECT_EQ(reference::simulator_runs(), runs + 1) << name;
    cfg.trace = &got;
    sim::Simulator s(img, cfg);
    const auto run = s.run();
    EXPECT_GT(want.str().size(), 0u) << name;
    EXPECT_TRUE(got.str() == want.str()) << name;
    EXPECT_EQ(run.cycles, ref.cycles) << name;
    EXPECT_TRUE(run.profile == ref.profile) << name;
    EXPECT_EQ(s.fallback_instructions(), run.instructions) << name;
  }
}

// The trace `run adpcm --trace` writes to stderr, pinned by its FNV-1a 64
// digest (the reference simulator renders its trace with the production
// disassembler, so parity alone cannot pin the text). sha256 of the same
// bytes: 694598b58e977a8ff2b4035b1ca5169e1612abe922bb0549ffd63fc3ac17cea1.
TEST(Trace, AdpcmTraceIsPinned) {
  const auto adpcm = workloads::WorkloadRegistry::instance().benchmark("adpcm");
  const link::Image img = link::link_program(adpcm->module, {}, {});
  std::ostringstream trace;
  sim::SimConfig cfg;
  cfg.trace = &trace;
  (void)sim::simulate(img, cfg);
  const std::string t = trace.str();
  EXPECT_EQ(std::count(t.begin(), t.end(), '\n'), 47741);
  uint64_t fnv = 0xcbf29ce484222325ull;
  for (const char c : t) {
    fnv ^= static_cast<unsigned char>(c);
    fnv *= 0x100000001b3ull;
  }
  EXPECT_EQ(fnv, 0x1f6ad09d7b5314b4ull);
}

} // namespace
} // namespace spmwcet
