// End-to-end WCET analyzer tests. The central soundness property: for every
// program and memory configuration, the analyzed WCET must be >= the
// simulated cycle count, and for deterministic single-path programs in
// uncached configurations it must be exactly equal (simulator and analyzer
// share the timing model).
#include <gtest/gtest.h>

#include "link/layout.h"
#include "minic/codegen.h"
#include "sim/simulator.h"
#include "wcet/analyzer.h"

namespace spmwcet {
namespace {

using namespace minic;

struct Built {
  link::Image img;
  sim::SimResult sim;
  wcet::WcetReport wcet;
};

Built run_both(const ProgramDef& prog, link::LinkOptions opts = {},
               link::SpmAssignment spm = {},
               wcet::AnalyzerConfig acfg = {},
               sim::SimConfig scfg = {}) {
  Built b{link::link_program(compile(prog), opts, spm), {}, {}};
  scfg.cache = acfg.cache;
  b.sim = sim::simulate(b.img, scfg);
  b.wcet = wcet::analyze_wcet(b.img, acfg);
  return b;
}

ProgramDef straight_line_program() {
  ProgramDef p;
  p.add_global({.name = "r", .type = ElemType::I32, .count = 4});
  auto& f = p.add_function("main", {}, false);
  f.body = block({});
  f.body->body.push_back(store("r", cst(0), add(cst(3), cst(4))));
  f.body->body.push_back(store("r", cst(1), mul(cst(6), cst(7))));
  f.body->body.push_back(store("r", cst(2), shl(cst(1), cst(10))));
  f.body->body.push_back(store("r", cst(3), sub(cst(100), cst(58))));
  f.body->body.push_back(ret());
  return p;
}

ProgramDef counted_loop_program(int n) {
  ProgramDef p;
  p.add_global({.name = "acc", .type = ElemType::I32, .count = 1});
  auto& f = p.add_function("main", {}, false);
  f.body = block({});
  f.body->body.push_back(assign("s", cst(0)));
  std::vector<StmtPtr> loop;
  loop.push_back(assign("s", add(var("s"), var("i"))));
  f.body->body.push_back(for_("i", cst(0), cst(n), 1, block(std::move(loop))));
  f.body->body.push_back(gassign("acc", var("s")));
  f.body->body.push_back(ret());
  return p;
}

ProgramDef branchy_program() {
  // Data-dependent branches through a lookup table: the simulator executes
  // one path; the analyzer must cover the longest.
  ProgramDef p;
  p.add_global({.name = "tab", .type = ElemType::I32, .count = 8,
                .init = {5, 3, 7, 1, 2, 6, 0, 4}});
  p.add_global({.name = "acc", .type = ElemType::I32, .count = 1});
  auto& f = p.add_function("main", {}, false);
  f.body = block({});
  f.body->body.push_back(assign("s", cst(0)));
  std::vector<StmtPtr> loop;
  loop.push_back(assign("v", idx("tab", var("i"))));
  // Uneven branches: the "then" side does more work.
  loop.push_back(if_(
      gt(var("v"), cst(3)),
      block([] {
        std::vector<StmtPtr> v;
        v.push_back(assign("s", add(var("s"), mul(var("v"), var("v")))));
        v.push_back(assign("s", add(var("s"), cst(17))));
        return v;
      }()),
      assign("s", add(var("s"), cst(1)))));
  f.body->body.push_back(for_("i", cst(0), cst(8), 1, block(std::move(loop))));
  f.body->body.push_back(gassign("acc", var("s")));
  f.body->body.push_back(ret());
  return p;
}

// ---- exactness for single-path programs, uncached --------------------------

TEST(Wcet, StraightLineExactWithoutCache) {
  const auto b = run_both(straight_line_program());
  EXPECT_EQ(b.wcet.wcet, b.sim.cycles);
}

TEST(Wcet, CountedLoopExactWithoutCache) {
  const auto b = run_both(counted_loop_program(25));
  EXPECT_EQ(b.wcet.wcet, b.sim.cycles);
}

TEST(Wcet, CallChainExactWithoutCache) {
  ProgramDef p;
  p.add_global({.name = "r", .type = ElemType::I32, .count = 1});
  auto& sq = p.add_function("sq", {"x"}, true);
  sq.body = block({});
  sq.body->body.push_back(ret(mul(var("x"), var("x"))));
  auto& f = p.add_function("main", {}, false);
  f.body = block({});
  f.body->body.push_back(
      gassign("r", add(call("sq", [] {
                std::vector<ExprPtr> a;
                a.push_back(cst(9));
                return a;
              }()),
                       cst(1))));
  f.body->body.push_back(ret());
  const auto b = run_both(p);
  EXPECT_EQ(b.wcet.wcet, b.sim.cycles);
}

// ---- soundness over branches ------------------------------------------------

TEST(Wcet, BranchyProgramSoundAndTight) {
  const auto b = run_both(branchy_program());
  EXPECT_GE(b.wcet.wcet, b.sim.cycles);
  // The analyzer assumes every iteration takes the long branch; with 4 of 8
  // values above 3 the overestimate exists but must stay moderate.
  EXPECT_LT(b.wcet.wcet, b.sim.cycles * 2);
}

TEST(Wcet, WorstCaseInputClosesTheGap) {
  // With all-large table values, the simulated path *is* the worst case.
  ProgramDef p;
  p.add_global({.name = "tab", .type = ElemType::I32, .count = 8,
                .init = {9, 9, 9, 9, 9, 9, 9, 9}});
  p.add_global({.name = "acc", .type = ElemType::I32, .count = 1});
  auto& f = p.add_function("main", {}, false);
  f.body = block({});
  f.body->body.push_back(assign("s", cst(0)));
  std::vector<StmtPtr> loop;
  loop.push_back(assign("v", idx("tab", var("i"))));
  loop.push_back(if_(
      gt(var("v"), cst(3)),
      block([] {
        std::vector<StmtPtr> v;
        v.push_back(assign("s", add(var("s"), mul(var("v"), var("v")))));
        v.push_back(assign("s", add(var("s"), cst(17))));
        return v;
      }()),
      assign("s", add(var("s"), cst(1)))));
  f.body->body.push_back(for_("i", cst(0), cst(8), 1, block(std::move(loop))));
  f.body->body.push_back(gassign("acc", var("s")));
  f.body->body.push_back(ret());
  const auto b = run_both(p);
  EXPECT_GE(b.wcet.wcet, b.sim.cycles);
  // Both arms of the comparison are compiled; the not-taken arm's branch
  // shape differs slightly, so allow a tiny relative slack (< 2 %).
  EXPECT_LE(static_cast<double>(b.wcet.wcet),
            static_cast<double>(b.sim.cycles) * 1.02);
}

// ---- scratchpad scaling ------------------------------------------------------

TEST(Wcet, SpmReducesWcetAsMuchAsSimulation) {
  ProgramDef p = counted_loop_program(50);
  const auto mod = compile(p);
  link::LinkOptions opts;
  opts.spm_size = 8192;

  const auto img_main = link::link_program(mod, opts, {});
  link::SpmAssignment spm;
  spm.functions.insert("main");
  spm.globals.insert("acc");
  const auto img_spm = link::link_program(mod, opts, spm);

  const auto sim_main = sim::simulate(img_main, {});
  const auto sim_spm = sim::simulate(img_spm, {});
  const auto wcet_main = wcet::analyze_wcet(img_main, {});
  const auto wcet_spm = wcet::analyze_wcet(img_spm, {});

  EXPECT_EQ(wcet_main.wcet, sim_main.cycles);
  EXPECT_EQ(wcet_spm.wcet, sim_spm.cycles);
  EXPECT_LT(wcet_spm.wcet, wcet_main.wcet);
  // The paper's Figure 3a/4 claim: the WCET/ACET ratio is constant across
  // scratchpad sizes (here exactly 1 in both configurations).
  const double ratio_main =
      static_cast<double>(wcet_main.wcet) / static_cast<double>(sim_main.cycles);
  const double ratio_spm =
      static_cast<double>(wcet_spm.wcet) / static_cast<double>(sim_spm.cycles);
  EXPECT_NEAR(ratio_main, ratio_spm, 1e-9);
}

// ---- cache soundness ----------------------------------------------------------

class WcetCacheSoundness : public ::testing::TestWithParam<uint32_t> {};

TEST_P(WcetCacheSoundness, WcetCoversSimulation) {
  const uint32_t cache_bytes = GetParam();
  cache::CacheConfig ccfg;
  ccfg.size_bytes = cache_bytes;
  ccfg.line_bytes = 16;
  ccfg.assoc = 1;
  ccfg.unified = true;

  for (auto* gen : {&straight_line_program, &branchy_program}) {
    ProgramDef p = gen();
    wcet::AnalyzerConfig acfg;
    acfg.cache = ccfg;
    const auto b = run_both(p, {}, {}, acfg);
    EXPECT_GE(b.wcet.wcet, b.sim.cycles)
        << "cache " << cache_bytes << " bytes";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, WcetCacheSoundness,
                         ::testing::Values(64u, 128u, 256u, 1024u, 8192u));

TEST(Wcet, CacheWcetStaysHighWhileSimulationImproves) {
  // The paper's Figure 3b: simulation benefits from a big cache, the
  // MUST-only WCET barely moves.
  ProgramDef p = counted_loop_program(200);
  cache::CacheConfig small;
  small.size_bytes = 64;
  cache::CacheConfig big;
  big.size_bytes = 8192;

  wcet::AnalyzerConfig asmall;
  asmall.cache = small;
  wcet::AnalyzerConfig abig;
  abig.cache = big;

  const auto bs = run_both(p, {}, {}, asmall);
  const auto bb = run_both(p, {}, {}, abig);

  EXPECT_LT(bb.sim.cycles, bs.sim.cycles); // simulation improves
  const double ratio_small =
      static_cast<double>(bs.wcet.wcet) / static_cast<double>(bs.sim.cycles);
  const double ratio_big =
      static_cast<double>(bb.wcet.wcet) / static_cast<double>(bb.sim.cycles);
  EXPECT_GT(ratio_big, ratio_small); // overestimation grows with cache size
}

TEST(Wcet, PersistenceTightensCacheWcet) {
  ProgramDef p = counted_loop_program(100);
  cache::CacheConfig ccfg;
  ccfg.size_bytes = 1024;

  wcet::AnalyzerConfig must_only;
  must_only.cache = ccfg;
  wcet::AnalyzerConfig with_pers = must_only;
  with_pers.with_persistence = true;

  const auto b1 = run_both(p, {}, {}, must_only);
  const auto b2 = run_both(p, {}, {}, with_pers);
  EXPECT_GE(b2.sim.cycles, 0u);
  EXPECT_LE(b2.wcet.wcet, b1.wcet.wcet);   // persistence can only tighten
  EXPECT_GE(b2.wcet.wcet, b2.sim.cycles);  // and stays sound
}

// ---- error handling ------------------------------------------------------------

TEST(Wcet, MissingLoopBoundIsRejected) {
  ProgramDef p = counted_loop_program(10);
  const auto img = link::link_program(compile(p), {}, {});
  wcet::Annotations empty; // no loop bounds at all
  EXPECT_THROW(wcet::analyze_wcet(img, {}, &empty), AnnotationError);
}

TEST(Wcet, RecursionIsRejected) {
  ProgramDef p;
  auto& f = p.add_function("rec", {"n"}, true);
  f.body = block({});
  f.body->body.push_back(if_(le(var("n"), cst(0)), ret(cst(0))));
  f.body->body.push_back(ret(call("rec", [] {
    std::vector<ExprPtr> a;
    a.push_back(cst(0));
    return a;
  }())));
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  m.body->body.push_back(expr_stmt(call("rec", [] {
    std::vector<ExprPtr> a;
    a.push_back(cst(3));
    return a;
  }())));
  m.body->body.push_back(ret());
  const auto img = link::link_program(compile(p), {}, {});
  EXPECT_THROW(wcet::analyze_wcet(img, {}), ProgramError);
  // With a cache, the analysis first converges over the cyclic supergraph;
  // the path analysis still refuses the view.
  wcet::AnalyzerConfig cached;
  cached.cache = cache::CacheConfig{};
  EXPECT_THROW(wcet::analyze_wcet(img, cached), ProgramError);
}

TEST(Wcet, ReportContainsPerFunctionBreakdown) {
  ProgramDef p;
  p.add_global({.name = "r", .type = ElemType::I32, .count = 1});
  auto& h = p.add_function("helper", {"x"}, true);
  h.body = block({});
  h.body->body.push_back(ret(add(var("x"), cst(1))));
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  m.body->body.push_back(gassign("r", call("helper", [] {
    std::vector<ExprPtr> a;
    a.push_back(cst(5));
    return a;
  }())));
  m.body->body.push_back(ret());
  const auto b = run_both(p);
  EXPECT_EQ(b.wcet.functions.count("main"), 1u);
  EXPECT_EQ(b.wcet.functions.count("helper"), 1u);
  EXPECT_EQ(b.wcet.functions.count("_start"), 1u);
  EXPECT_GT(b.wcet.functions.at("main").wcet,
            b.wcet.functions.at("helper").wcet);
  EXPECT_EQ(b.wcet.wcet, b.wcet.functions.at("_start").wcet);
}

} // namespace
} // namespace spmwcet
