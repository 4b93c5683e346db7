// Fast-path coverage for the simulator hot-path overhauls: field-exact
// parity between the block-tier (superblock threaded code), fast
// (predecoded + flat-translation + interned profile) and legacy simulation
// paths on the paper benchmarks under both memory setups, SymbolIndex
// id-resolution edge cases, predecode-table bounds, and self-modifying-code
// invalidation at both the predecode and compiled-block level.
#include <gtest/gtest.h>

#include "alloc/allocator.h"
#include "isa/decode.h"
#include "isa/encode.h"
#include "link/layout.h"
#include "minic/codegen.h"
#include "sim/predecode.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

namespace spmwcet::sim {
namespace {

void expect_same_result(const SimResult& fast, const SimResult& legacy,
                        const std::string& what) {
  EXPECT_EQ(fast.cycles, legacy.cycles) << what;
  EXPECT_EQ(fast.instructions, legacy.instructions) << what;
  EXPECT_EQ(fast.cache_hits, legacy.cache_hits) << what;
  EXPECT_EQ(fast.cache_misses, legacy.cache_misses) << what;
  EXPECT_EQ(fast.output, legacy.output) << what;
  EXPECT_EQ(fast.profile.stack, legacy.profile.stack) << what;
  EXPECT_EQ(fast.profile.other, legacy.profile.other) << what;
  ASSERT_EQ(fast.profile.symbols.size(), legacy.profile.symbols.size())
      << what;
  for (const auto& [name, counts] : legacy.profile.symbols) {
    const AccessCounts* got = fast.profile.find(name);
    ASSERT_NE(got, nullptr) << what << ": missing symbol " << name;
    EXPECT_EQ(*got, counts) << what << ": symbol " << name;
  }
  EXPECT_TRUE(fast.profile == legacy.profile) << what;
}

SimResult run_with(const link::Image& img, bool fast,
                   std::optional<cache::CacheConfig> cache = {},
                   bool block_tier = true) {
  SimConfig cfg;
  cfg.collect_profile = true;
  cfg.fast_path = fast;
  cfg.cache = cache;
  cfg.block_tier = block_tier;
  return simulate(img, cfg);
}

/// A block-tier run that asserts the tier and its stack window engaged.
SimResult run_tier(const link::Image& img, SimConfig cfg,
                   const std::string& what) {
  Simulator s(img, cfg);
  EXPECT_TRUE(s.block_tier_active()) << what;
  const SimResult r = s.run();
  EXPECT_TRUE(s.stack_window_active()) << what;
  return r;
}

SimConfig profiling() {
  SimConfig cfg;
  cfg.collect_profile = true;
  return cfg;
}

// The overhauled simulator must reproduce the seed path field-exactly on
// every paper benchmark under both memory setups of the evaluation: the
// scratchpad branch (profile-driven allocation, no cache) and the cache
// branch (no-assignment image, unified cache).
TEST(SimFastPath, ParityOnPaperBenchmarksBothSetups) {
  for (const auto& wl : workloads::cached_paper_benchmarks()) {
    // Scratchpad setup at a mid-size capacity, the paper's main flow.
    link::LinkOptions opts;
    opts.spm_size = 1024;
    const link::Image profile_img = link::link_program(wl->module, {}, {});
    const auto profile = run_with(profile_img, /*fast=*/false).profile;
    const auto alloc =
        alloc::allocate_energy_optimal(wl->module, profile, opts.spm_size);
    const link::Image spm_img =
        link::link_program(wl->module, opts, alloc.assignment);
    const SimResult legacy_spm = run_with(spm_img, false);
    expect_same_result(run_tier(spm_img, profiling(), wl->name + "/spm"),
                       legacy_spm, wl->name + "/spm/block-tier");
    expect_same_result(
        run_tier(profile_img, profiling(), wl->name + "/canonical"),
        run_with(profile_img, false), wl->name + "/canonical/block-tier");
    expect_same_result(run_with(spm_img, true, {}, /*block_tier=*/false),
                       legacy_spm, wl->name + "/spm/fast");

    // Cache setup: unified 1 KiB direct-mapped over the no-assignment image.
    cache::CacheConfig ccfg;
    ccfg.size_bytes = 1024;
    expect_same_result(run_with(profile_img, true, ccfg),
                       run_with(profile_img, false, ccfg),
                       wl->name + "/cache");

    // Profiling disabled (the inner simulation of a sweep point).
    SimConfig plain_legacy;
    plain_legacy.fast_path = false;
    const SimResult plain_ref = simulate(spm_img, plain_legacy);
    SimConfig plain;
    plain.fast_path = true;
    expect_same_result(run_tier(spm_img, plain, wl->name + "/plain"),
                       plain_ref, wl->name + "/plain/block-tier");
    plain.block_tier = false;
    expect_same_result(simulate(spm_img, plain), plain_ref,
                       wl->name + "/plain/fast");
  }
}

TEST(SymbolIndexIds, BoundariesGapsAndAdjacency) {
  using namespace minic;
  ProgramDef p;
  // Odd-sized byte array forces an alignment gap before the next global;
  // two I32 globals laid out back to back exercise adjacency.
  p.add_global({.name = "bytes", .type = ElemType::I8, .count = 3});
  p.add_global({.name = "a", .type = ElemType::I32, .count = 4});
  p.add_global({.name = "b", .type = ElemType::I32, .count = 4});
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  m.body->body.push_back(store("a", cst(0), cst(1)));
  const auto img = link::link_program(compile(p));
  const SymbolIndex idx(img);

  ASSERT_EQ(idx.size(), img.symbols.size());
  for (const auto& s : img.symbols) {
    // First and last byte of every symbol resolve to its own id; one past
    // the end never does.
    const int at_lo = idx.find_id(s.addr);
    ASSERT_GE(at_lo, 0) << s.name;
    EXPECT_EQ(idx.symbol(at_lo).name, s.name);
    const int at_last = idx.find_id(s.addr + s.size - 1);
    ASSERT_GE(at_last, 0) << s.name;
    EXPECT_EQ(idx.symbol(at_last).name, s.name);
    const int past = idx.find_id(s.addr + s.size);
    if (past >= 0) EXPECT_NE(idx.symbol(past).name, s.name);
    // find() and find_id() agree everywhere.
    EXPECT_EQ(idx.find(s.addr), &idx.symbol(at_lo));
  }

  // The alignment gap after the odd-sized global belongs to no symbol.
  const link::Symbol* bytes = img.find_symbol("bytes");
  ASSERT_NE(bytes, nullptr);
  const link::Symbol* a = img.find_symbol("a");
  ASSERT_NE(a, nullptr);
  ASSERT_GT(a->addr, bytes->addr + bytes->size) << "expected a gap";
  for (uint32_t addr = bytes->addr + bytes->size; addr < a->addr; ++addr)
    EXPECT_EQ(idx.find_id(addr), -1) << "gap byte " << addr;

  // Far outside any symbol (the stack window) resolves to nothing.
  EXPECT_EQ(idx.find_id(img.initial_sp - 4), -1);
  EXPECT_EQ(idx.find_id(0), -1);
}

TEST(CodeTable, CoversExactlyTheCodeRegions) {
  const auto wl = workloads::WorkloadRegistry::instance().benchmark("adpcm");
  const link::Image img = link::link_program(wl->module, {}, {});
  const SymbolIndex idx(img);
  const CodeTable table(img, idx);

  CodeTable::Hit hit;
  bool saw_code = false, saw_pool = false;
  for (const auto& r : img.regions.regions()) {
    const bool is_code = r.kind == link::RegionKind::MainCode ||
                         r.kind == link::RegionKind::SpmCode;
    for (uint32_t addr = r.lo & ~1u; addr + 2 <= r.hi; addr += 2) {
      if (is_code) {
        saw_code = true;
        ASSERT_TRUE(table.lookup(addr, hit)) << "code halfword " << addr;
        // The predecoded entry is exactly what fetch+decode would produce.
        EXPECT_EQ(*hit.ins, isa::decode(img.read16(addr))) << addr;
        EXPECT_EQ(hit.cls, link::mem_class(r.kind)) << addr;
        // Odd pc never hits the table (the legacy path traps it).
        EXPECT_FALSE(table.lookup(addr + 1, hit));
      } else {
        // Pools, data, stack: not predecoded, legacy fallback.
        EXPECT_FALSE(table.lookup(addr, hit)) << "non-code " << addr;
        if (r.kind == link::RegionKind::LiteralPool) saw_pool = true;
      }
    }
  }
  EXPECT_TRUE(saw_code);
  EXPECT_TRUE(saw_pool) << "expected at least one literal pool in adpcm";
  // Outside every region.
  EXPECT_FALSE(table.lookup(0, hit));
  EXPECT_FALSE(table.lookup(img.initial_sp - 4, hit));
}

/// Hand-assembled program that overwrites one of its own instructions
/// (placeholder `MOVI r3, #7` -> `MOVI r3, #42`) and then executes it.
/// Exercises the store-to-code invalidation of the predecode table; the
/// legacy path decodes from memory every fetch and is exact by definition.
minic::ObjModule selfmod_module(uint32_t target_addr) {
  using isa::Instr;
  using isa::Op;
  const uint16_t patched =
      isa::encode(Instr{.op = Op::MOVI, .rd = 3, .imm = 42});
  minic::ObjFunction f;
  f.name = "main";
  auto push_ins = [&](Instr ins) {
    minic::ObjInstr oi;
    oi.ins = ins;
    f.code.push_back(oi);
  };
  push_ins(Instr{.op = Op::PUSH, .sub = 1, .imm = 0});
  // r0 = target address, r1 = patched halfword (8-bit immediates + shifts).
  push_ins(Instr{.op = Op::MOVI, .rd = 0,
                 .imm = static_cast<int32_t>((target_addr >> 8) & 0xff)});
  push_ins(Instr{.op = Op::SHIFTI, .sub = 0, .rd = 0, .imm = 8});
  push_ins(Instr{.op = Op::ADDI, .rd = 0,
                 .imm = static_cast<int32_t>(target_addr & 0xff)});
  push_ins(Instr{.op = Op::MOVI, .rd = 1,
                 .imm = static_cast<int32_t>((patched >> 8) & 0xff)});
  push_ins(Instr{.op = Op::SHIFTI, .sub = 0, .rd = 1, .imm = 8});
  push_ins(Instr{.op = Op::ADDI, .rd = 1,
                 .imm = static_cast<int32_t>(patched & 0xff)});
  push_ins(Instr{.op = Op::STRH, .rd = 1, .rn = 0, .imm = 0});
  // Index 8: the placeholder the store above rewrites before execution.
  push_ins(Instr{.op = Op::MOVI, .rd = 3, .imm = 7});
  push_ins(Instr{.op = Op::SYS,
                 .sub = static_cast<uint8_t>(isa::SysFn::OUT),
                 .rd = 3});
  push_ins(Instr{.op = Op::POP, .sub = 1, .imm = 0});
  minic::ObjModule mod;
  mod.functions.push_back(std::move(f));
  return mod;
}

TEST(CodeTable, SelfModifyingStoreInvalidatesPredecode) {
  // Two-pass link: learn main's address with placeholder immediates, then
  // rebuild with the real target (layout is deterministic and the
  // instruction count does not change).
  const link::Image probe = link::link_program(selfmod_module(0));
  const link::Symbol* main_sym = probe.find_symbol("main");
  ASSERT_NE(main_sym, nullptr);
  const uint32_t target = main_sym->addr + 8 * 2;
  ASSERT_LT(target, 0x10000u) << "two-byte immediate construction";
  const link::Image img = link::link_program(selfmod_module(target));

  const auto legacy = run_with(img, /*fast=*/false);
  ASSERT_EQ(legacy.output.size(), 1u);
  EXPECT_EQ(legacy.output[0], 42) << "the store must patch the placeholder";
  expect_same_result(run_with(img, /*fast=*/true), legacy,
                     "selfmod/block-tier");
  expect_same_result(run_with(img, /*fast=*/true, {}, /*block_tier=*/false),
                     legacy, "selfmod/fast");
}

/// Loop that patches an instruction in an *earlier*, already-executed
/// compiled block: iteration 1 runs the placeholder block (prints 7), then
/// a later block overwrites the placeholder halfword; iteration 2 re-enters
/// the patched address (prints 42). Under the block tier the store lands in
/// a block that is not the one currently executing, so it must invalidate
/// it and force the re-entry onto the per-instruction path.
minic::ObjModule selfmod_loop_module(uint32_t target_addr) {
  using isa::Instr;
  using isa::Op;
  const uint16_t patched =
      isa::encode(Instr{.op = Op::MOVI, .rd = 3, .imm = 42});
  minic::ObjFunction f;
  f.name = "main";
  const int loop = f.new_label();
  const int skip = f.new_label();
  auto push_ins = [&](Instr ins, int label = -1) {
    minic::ObjInstr oi;
    oi.ins = ins;
    oi.label = label;
    f.code.push_back(oi);
  };
  push_ins(Instr{.op = Op::PUSH, .sub = 1, .imm = 0});
  push_ins(Instr{.op = Op::MOVI, .rd = 4, .imm = 0});
  f.bind_label(loop);
  // Index 2: the placeholder; the unconditional branch below ends its
  // block, so the patching store sits in a different compiled block.
  push_ins(Instr{.op = Op::MOVI, .rd = 3, .imm = 7});
  push_ins(Instr{.op = Op::SYS,
                 .sub = static_cast<uint8_t>(isa::SysFn::OUT),
                 .rd = 3});
  push_ins(Instr{.op = Op::B}, skip);
  f.bind_label(skip);
  // r0 = placeholder address, r1 = patched halfword.
  push_ins(Instr{.op = Op::MOVI, .rd = 0,
                 .imm = static_cast<int32_t>((target_addr >> 8) & 0xff)});
  push_ins(Instr{.op = Op::SHIFTI, .sub = 0, .rd = 0, .imm = 8});
  push_ins(Instr{.op = Op::ADDI, .rd = 0,
                 .imm = static_cast<int32_t>(target_addr & 0xff)});
  push_ins(Instr{.op = Op::MOVI, .rd = 1,
                 .imm = static_cast<int32_t>((patched >> 8) & 0xff)});
  push_ins(Instr{.op = Op::SHIFTI, .sub = 0, .rd = 1, .imm = 8});
  push_ins(Instr{.op = Op::ADDI, .rd = 1,
                 .imm = static_cast<int32_t>(patched & 0xff)});
  push_ins(Instr{.op = Op::STRH, .rd = 1, .rn = 0, .imm = 0});
  push_ins(Instr{.op = Op::ADDI, .rd = 4, .imm = 1});
  push_ins(Instr{.op = Op::CMPI, .rd = 4, .imm = 2});
  push_ins(Instr{.op = Op::BCC,
                 .sub = static_cast<uint8_t>(isa::Cond::LT)},
           loop);
  push_ins(Instr{.op = Op::POP, .sub = 1, .imm = 0});
  minic::ObjModule mod;
  mod.functions.push_back(std::move(f));
  return mod;
}

TEST(BlockTier, StoreIntoExecutedBlockInvalidatesAndStaysFieldExact) {
  const link::Image probe = link::link_program(selfmod_loop_module(0));
  const link::Symbol* main_sym = probe.find_symbol("main");
  ASSERT_NE(main_sym, nullptr);
  const uint32_t target = main_sym->addr + 2 * 2;
  ASSERT_LT(target, 0x10000u) << "two-byte immediate construction";
  const link::Image img = link::link_program(selfmod_loop_module(target));

  SimConfig legacy_cfg;
  legacy_cfg.collect_profile = true;
  legacy_cfg.fast_path = false;
  Simulator legacy_sim(img, legacy_cfg);
  const SimResult legacy = legacy_sim.run();
  ASSERT_EQ(legacy.output.size(), 2u);
  EXPECT_EQ(legacy.output[0], 7) << "first pass runs the placeholder";
  EXPECT_EQ(legacy.output[1], 42) << "second pass runs the patched copy";

  SimConfig fast_cfg;
  fast_cfg.collect_profile = true;
  fast_cfg.fast_path = true;
  fast_cfg.block_tier = false;
  Simulator fast_sim(img, fast_cfg);
  EXPECT_FALSE(fast_sim.block_tier_active());
  expect_same_result(fast_sim.run(), legacy, "selfmod-loop/fast");
  EXPECT_EQ(fast_sim.block_invalidations(), 0u) << "tier off: no blocks";

  SimConfig tier_cfg;
  tier_cfg.collect_profile = true;
  tier_cfg.fast_path = true;
  Simulator tier_sim(img, tier_cfg);
  ASSERT_TRUE(tier_sim.block_tier_active());
  expect_same_result(tier_sim.run(), legacy, "selfmod-loop/block-tier");
  // Exactly one valid->invalid transition: the first STRH retires the
  // placeholder block; iteration 2's identical store hits a block that is
  // already invalid and must not recount.
  EXPECT_EQ(tier_sim.block_invalidations(), 1u);
}

/// A module of hand-written functions (the entry is `main`): begin() opens
/// a function, ins() appends to the last one opened.
struct HandModule {
  minic::ObjModule mod;
  void begin(const std::string& name) {
    mod.functions.emplace_back();
    mod.functions.back().name = name;
  }
  void ins(isa::Instr i, const std::string& callee = {}) {
    minic::ObjInstr oi;
    oi.ins = i;
    oi.callee = callee;
    mod.functions.back().code.push_back(oi);
  }
};

/// Unbounded recursion: every frame pushes nine words until the stack runs
/// below its region into unmapped memory.
minic::ObjModule overflow_module() {
  using isa::Instr;
  using isa::Op;
  HandModule m;
  m.begin("main");
  m.ins(Instr{.op = Op::PUSH, .sub = 1, .imm = 0});
  m.ins(Instr{.op = Op::BL_HI}, "f");
  m.ins(Instr{.op = Op::POP, .sub = 1, .imm = 0});
  m.begin("f");
  m.ins(Instr{.op = Op::PUSH, .sub = 1, .imm = 0xff});
  m.ins(Instr{.op = Op::BL_HI}, "f");
  m.ins(Instr{.op = Op::POP, .sub = 1, .imm = 0xff});
  return std::move(m.mod);
}

/// An SP-relative load above the stack top, where nothing is mapped.
minic::ObjModule unmapped_load_module() {
  using isa::Instr;
  using isa::Op;
  HandModule m;
  m.begin("main");
  m.ins(Instr{.op = Op::PUSH, .sub = 1, .imm = 0});
  m.ins(Instr{.op = Op::LDR_SP, .rd = 0, .imm = 2});
  m.ins(Instr{.op = Op::POP, .sub = 1, .imm = 0});
  return std::move(m.mod);
}

/// A word store two bytes into the stack region: misaligned.
minic::ObjModule misaligned_store_module() {
  using isa::Instr;
  using isa::Op;
  const uint32_t stack_lo =
      link::LinkOptions{}.stack_top - link::LinkOptions{}.stack_reserve;
  HandModule m;
  m.begin("main");
  m.ins(Instr{.op = Op::PUSH, .sub = 1, .imm = 0});
  m.ins(Instr{.op = Op::MOVI, .rd = 0,
              .imm = static_cast<int32_t>(stack_lo >> 12)});
  m.ins(Instr{.op = Op::SHIFTI, .sub = 0, .rd = 0, .imm = 12});
  m.ins(Instr{.op = Op::ADDI, .rd = 0, .imm = 2});
  m.ins(Instr{.op = Op::STR, .rd = 1, .rn = 0, .imm = 0});
  m.ins(Instr{.op = Op::POP, .sub = 1, .imm = 0});
  return std::move(m.mod);
}

/// The runaway loop: the instruction budget trap.
minic::ObjModule runaway_module() {
  using namespace minic;
  ProgramDef p;
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  std::vector<StmtPtr> loop;
  loop.push_back(assign("x", cst(0)));
  m.body->body.push_back(while_(cst(1), 1000, block(std::move(loop))));
  return compile(p);
}

TEST(SimFastPath, TrapsMatchLegacyPath) {
  struct Case {
    const char* name;
    minic::ObjModule mod;
    const char* trap; ///< expected start of what()
  };
  std::vector<Case> cases;
  cases.push_back({"runaway", runaway_module(), "instruction budget"});
  cases.push_back(
      {"stack overflow", overflow_module(), "access to unmapped address"});
  cases.push_back({"unmapped sp load", unmapped_load_module(),
                   "access to unmapped address"});
  cases.push_back({"misaligned store", misaligned_store_module(),
                   "misaligned store of 4 bytes"});
  struct Mode {
    bool fast;
    bool block_tier;
    const char* name;
  };
  for (const Case& c : cases) {
    const link::Image img = link::link_program(c.mod);
    std::string legacy_what;
    for (const Mode mode : {Mode{false, false, "legacy"},
                            Mode{true, false, "fast"},
                            Mode{true, true, "block-tier"}}) {
      const std::string what = std::string(c.name) + "/" + mode.name;
      SimConfig cfg;
      cfg.collect_profile = true;
      cfg.fast_path = mode.fast;
      cfg.block_tier = mode.block_tier;
      cfg.max_instructions = 100'000;
      Simulator s(img, cfg);
      std::string got;
      try {
        s.run();
        ADD_FAILURE() << what << ": no trap";
      } catch (const SimulationError& e) {
        got = e.what();
      }
      if (!mode.fast) {
        legacy_what = got;
        EXPECT_EQ(got.rfind(c.trap, 0), 0u) << what << ": " << got;
      } else {
        EXPECT_EQ(got, legacy_what) << what;
      }
      // The block tier traps with its stack window engaged: the faulting
      // SP-relative accesses left the window for the translated path.
      EXPECT_EQ(s.stack_window_active(), mode.block_tier) << what;
    }
  }
}

// Images whose stack window proof fails run through the translated
// accesses, field-identical to the seed path, with the window off: a global
// linked into the 64 KiB profile stack window, and a stack top below 64 KiB
// (the profile window would wrap below address zero, so it is empty).
TEST(SimFastPath, FailedStackWindowProofKeepsParity) {
  using namespace minic;
  ProgramDef p;
  p.add_global({.name = "a", .type = ElemType::I32, .count = 8});
  auto& m = p.add_function("main", {}, false);
  m.body = block({});
  std::vector<StmtPtr> loop;
  loop.push_back(store("a", var("i"), add(idx("a", var("i")), var("i"))));
  loop.push_back(assign("i", add(var("i"), cst(1))));
  m.body->body.push_back(assign("i", cst(0)));
  m.body->body.push_back(
      while_(lt(var("i"), cst(8)), 8, block(std::move(loop))));
  const ObjModule mod = compile(p);

  link::LinkOptions in_window;
  in_window.data_base = in_window.stack_top - 0x8000;
  link::LinkOptions low_stack;
  low_stack.data_base = 0x4000;
  low_stack.stack_top = 0xc000;
  for (const auto& [name, opts] :
       {std::pair{"global in window", in_window},
        std::pair{"low stack", low_stack}}) {
    const link::Image img = link::link_program(mod, opts);
    Simulator tier(img, profiling());
    ASSERT_TRUE(tier.block_tier_active()) << name;
    const SimResult got = tier.run();
    EXPECT_FALSE(tier.stack_window_active()) << name;
    expect_same_result(got, run_with(img, /*fast=*/false), name);
    EXPECT_GT(got.profile.symbols.at("a").total(), 0u) << name;
  }
}

} // namespace
} // namespace spmwcet::sim
