// Parity of the simulator's one executor (compiled blocks plus the one-op
// fallback, sim/block_table.h) against the seed interpreter
// reference::simulate: field-exact cycles, instructions, cache statistics,
// outputs, profiles and trap messages on the paper benchmarks under every
// memory setup, hand-built trap programs and self-modifying code; plus
// SymbolIndex id-resolution edge cases and the block table's span bounds.
#include <gtest/gtest.h>

#include <algorithm>

#include "alloc/allocator.h"
#include "isa/encode.h"
#include "link/layout.h"
#include "minic/codegen.h"
#include "program/decoded_image.h"
#include "reference/simulator.h"
#include "sim/simulator.h"
#include "support/diag.h"
#include "workloads/workload.h"

namespace spmwcet::sim {
namespace {

void expect_same_result(const SimResult& got, const SimResult& want,
                        const std::string& what) {
  EXPECT_EQ(got.cycles, want.cycles) << what;
  EXPECT_EQ(got.instructions, want.instructions) << what;
  EXPECT_EQ(got.cache_hits, want.cache_hits) << what;
  EXPECT_EQ(got.cache_misses, want.cache_misses) << what;
  EXPECT_EQ(got.output, want.output) << what;
  EXPECT_EQ(got.profile.stack, want.profile.stack) << what;
  EXPECT_EQ(got.profile.other, want.profile.other) << what;
  ASSERT_EQ(got.profile.symbols.size(), want.profile.symbols.size()) << what;
  for (const auto& [name, counts] : want.profile.symbols) {
    const AccessCounts* c = got.profile.find(name);
    ASSERT_NE(c, nullptr) << what << ": missing symbol " << name;
    EXPECT_EQ(*c, counts) << what << ": symbol " << name;
  }
  EXPECT_TRUE(got.profile == want.profile) << what;
}

/// A production run held field-exact against the reference, with what the
/// production simulator reports about how it ran.
struct Checked {
  SimResult result;
  uint64_t fallback = 0;
  bool window = false;
  uint64_t invalidations = 0;
};

Checked expect_parity(const link::Image& img, const SimConfig& cfg,
                      const std::string& what) {
  const uint64_t runs = reference::simulator_runs();
  const SimResult want = reference::simulate(img, cfg);
  EXPECT_EQ(reference::simulator_runs(), runs + 1) << what;
  Simulator s(img, cfg);
  SimResult got = s.run();
  expect_same_result(got, want, what);
  return {std::move(got), s.fallback_instructions(), s.stack_window_active(),
          s.block_invalidations()};
}

SimConfig profiling(std::optional<cache::CacheConfig> cache = {}) {
  SimConfig cfg;
  cfg.collect_profile = true;
  cfg.cache = cache;
  return cfg;
}

/// A 1 KiB direct-mapped cache, unified or instruction-only.
cache::CacheConfig kib_cache(bool unified) {
  cache::CacheConfig c;
  c.size_bytes = 1024;
  c.unified = unified;
  return c;
}

// Every paper benchmark under every memory setup of the evaluation: the
// canonical profiling run, an SPM 1024 placement (with and without
// profiling), and a 1 KiB unified and instruction-only cache over the
// canonical image. Each run is field-identical to the reference and ran
// entirely in compiled blocks with the stack window engaged.
TEST(SimFastPath, ParityOnPaperBenchmarksBothSetups) {
  for (const auto& wl : workloads::cached_paper_benchmarks()) {
    link::LinkOptions opts;
    opts.spm_size = 1024;
    const link::Image canonical = link::link_program(wl->module, {}, {});
    const Checked profile =
        expect_parity(canonical, profiling(), wl->name + "/canonical");
    const auto alloc = alloc::allocate_energy_optimal(
        wl->module, profile.result.profile, opts.spm_size);
    const link::Image placed =
        link::link_program(wl->module, opts, alloc.assignment);
    const std::pair<const char*, Checked> runs[] = {
        {"canonical", profile},
        {"spm", expect_parity(placed, profiling(), wl->name + "/spm")},
        {"spm/plain", expect_parity(placed, {}, wl->name + "/spm/plain")},
        {"cache", expect_parity(canonical, profiling(kib_cache(true)),
                                wl->name + "/cache")},
        {"icache", expect_parity(canonical, profiling(kib_cache(false)),
                                 wl->name + "/icache")}};
    for (const auto& [what, run] : runs) {
      EXPECT_EQ(run.fallback, 0u) << wl->name << "/" << what;
      EXPECT_TRUE(run.window) << wl->name << "/" << what;
    }
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

TEST(BlockTable, SpansCoverExactlyTheCodeRegions) {
  const auto wl = workloads::WorkloadRegistry::instance().benchmark("adpcm");
  const link::Image img = link::link_program(wl->module, {}, {});
  const SymbolIndex idx(img);
  const BlockTable table(program::DecodedImage(img), idx, img);

  bool saw_code = false, saw_pool = false;
  for (const auto& r : img.regions.regions()) {
    const bool is_code = r.kind == link::RegionKind::MainCode ||
                         r.kind == link::RegionKind::SpmCode;
    for (uint32_t addr = r.lo & ~1u; addr + 2 <= r.hi; addr += 2) {
      // An odd pc never starts a block: the one-op fallback traps it.
      EXPECT_EQ(table.find(addr + 1), -1) << addr + 1;
      if (is_code) {
        saw_code = true;
        EXPECT_TRUE(table.covers(addr, 2)) << "code halfword " << addr;
      } else if (r.kind == link::RegionKind::LiteralPool) {
        // Pools between functions lie inside a span but start no block.
        saw_pool = true;
        EXPECT_EQ(table.find(addr), -1) << "pool " << addr;
      } else {
        EXPECT_FALSE(table.covers(addr, 2)) << "data " << addr;
        EXPECT_EQ(table.find(addr), -1) << "data " << addr;
      }
    }
  }
  EXPECT_TRUE(saw_code);
  EXPECT_TRUE(saw_pool) << "expected at least one literal pool in adpcm";
  // Every function entry starts a block; nothing outside the regions does.
  for (const auto& sym : img.symbols)
    if (sym.is_function) EXPECT_GE(table.find(sym.addr), 0) << sym.name;
  EXPECT_FALSE(table.covers(0, 2));
  EXPECT_EQ(table.find(img.initial_sp - 4), -1);
}

/// Hand-assembled program that overwrites one of its own instructions
/// (placeholder `MOVI r3, #7` -> `patched`, by default `MOVI r3, #42`) in
/// the block it is executing and then executes it. The reference decodes
/// from memory on every fetch and is exact by definition.
minic::ObjModule selfmod_module(
    uint32_t target_addr,
    uint16_t patched = isa::encode(
        isa::Instr{.op = isa::Op::MOVI, .rd = 3, .imm = 42})) {
  using isa::Instr;
  using isa::Op;
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

/// Address of selfmod_module's placeholder. Two-pass link: learn main's
/// address with placeholder immediates (layout is deterministic and the
/// instruction count does not depend on them).
uint32_t selfmod_target() {
  const link::Image probe = link::link_program(selfmod_module(0));
  const link::Symbol* main_sym = probe.find_symbol("main");
  SPMWCET_CHECK(main_sym != nullptr);
  const uint32_t target = main_sym->addr + 8 * 2;
  SPMWCET_CHECK_MSG(target < 0x10000u, "two-byte immediate construction");
  return target;
}

TEST(BlockTier, StoreIntoExecutingBlockAbortsAndStaysFieldExact) {
  const link::Image img = link::link_program(selfmod_module(selfmod_target()));

  const Checked run = expect_parity(img, profiling(), "selfmod");
  ASSERT_EQ(run.result.output, std::vector<int32_t>{42})
      << "the store must patch the placeholder";
  EXPECT_EQ(run.invalidations, 1u);
  // The patched instruction and the rest of its block run one at a time.
  EXPECT_GT(run.fallback, 0u);
}

// The same abort under a cache and under a reuse recorder: the aborted
// block reports its precomputed fetch runs only through the store's
// halfword, which must reach the cache or recorder exactly as the seed
// simulator's per-access stream does.
TEST(BlockTier, StoreIntoExecutingBlockKeepsTheObservedStream) {
  const link::Image img = link::link_program(selfmod_module(selfmod_target()));
  for (const bool unified : {true, false}) {
    const std::string what =
        std::string("selfmod ") + (unified ? "unified" : "icache");
    EXPECT_EQ(expect_parity(img, profiling(kib_cache(unified)), what)
                  .invalidations,
              1u);
    for (uint32_t assoc = 1; assoc <= 64; assoc *= 2) {
      cache::ReuseTable::Builder want_rec(img.regions, unified, assoc);
      SimConfig cfg;
      cfg.reuse = &want_rec;
      const SimResult want = reference::simulate(img, cfg);
      cache::ReuseTable::Builder got_rec(img.regions, unified, assoc);
      cfg.reuse = &got_rec;
      Simulator s(img, cfg);
      const SimResult got = s.run();
      EXPECT_EQ(s.block_invalidations(), 1u) << what;
      const cache::ReuseTable got_table = got_rec.finish(got.cycles);
      const cache::ReuseTable want_table = want_rec.finish(want.cycles);
      for (uint32_t size = 16 * assoc; size <= 1024; size *= 2) {
        cache::CacheConfig c;
        c.size_bytes = size;
        c.assoc = assoc;
        c.unified = unified;
        EXPECT_EQ(got_table.lookup(c), want_table.lookup(c))
            << what << " size " << size << " assoc " << assoc;
      }
    }
  }
}

/// Loop that patches an instruction in an *earlier*, already-executed
/// compiled block: iteration 1 runs the placeholder block (prints 7), then
/// a later block overwrites the placeholder halfword; iteration 2 re-enters
/// the patched address (prints 42). The store lands in a block that is not
/// the one currently executing, so it must invalidate it and force the
/// re-entry onto the one-op fallback.
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

  const Checked run = expect_parity(img, profiling(), "selfmod-loop");
  ASSERT_EQ(run.result.output, (std::vector<int32_t>{7, 42}))
      << "the first pass runs the placeholder, the second the patch";
  // Exactly one valid->invalid transition: the first STRH retires the
  // placeholder block; iteration 2's identical store hits a block that is
  // already invalid and must not recount.
  EXPECT_EQ(run.invalidations, 1u);
  EXPECT_GT(run.fallback, 0u);
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

/// Returns through a stacked odd word: POP {pc} lands on a misaligned pc.
minic::ObjModule odd_return_module() {
  using isa::Instr;
  using isa::Op;
  HandModule m;
  m.begin("main");
  m.ins(Instr{.op = Op::MOVI, .rd = 0, .imm = 1});
  m.ins(Instr{.op = Op::PUSH, .sub = 0, .imm = 1});
  m.ins(Instr{.op = Op::POP, .sub = 1, .imm = 0});
  return std::move(m.mod);
}

/// One hand-assembled program that runs every row of ops.def: each major
/// opcode with each legal sub value (ALU operations, shifts, register-offset
/// widths, conditions, system functions, flag bits), on a positive and a
/// negative left operand. Each row runs in its own function (keeping
/// literal pools in reach) that ends in `OUT r0`, called in turn from main.
/// The module is built by walking the table and switching on the format,
/// so a row added to the table runs here without a test edit. The code
/// generator leaves several rows out (it lowers subtraction to SUB3), so
/// only a program like this runs their handlers.
struct EveryOp {
  minic::ObjModule mod;
  std::vector<isa::Instr> printed; ///< per OUT: the row it follows
};

EveryOp every_op_module() {
  using isa::Format;
  using isa::Instr;
  using isa::Op;
  const auto emit = [](minic::ObjFunction& f, Instr ins, int label = -1,
                       int literal = -1, std::string callee = {}) {
    minic::ObjInstr oi;
    oi.ins = ins;
    oi.label = label;
    oi.literal = literal;
    oi.callee = std::move(callee);
    f.code.push_back(std::move(oi));
  };
  const auto adjsp = [](bool down, int32_t words) {
    return Instr{.op = Op::ADJSP, .sub = down, .imm = words};
  };
  const Instr push_lr{.op = Op::PUSH, .sub = 1, .imm = 0};
  const Instr pop_pc{.op = Op::POP, .sub = 1, .imm = 0};
  const Instr out_r0{.op = Op::SYS,
                     .sub = static_cast<uint8_t>(isa::SysFn::OUT)};
  EveryOp e;
  minic::ObjFunction main_fn;
  main_fn.name = "main";
  emit(main_fn, push_lr);
  emit(main_fn, adjsp(true, 4)); // scratch words for the SP-relative rows
  emit(main_fn, Instr{.op = Op::LDR_LIT, .rd = 6}, -1,
       main_fn.add_literal({.is_symbol = true, .symbol = "buf"}));
  emit(main_fn, Instr{.op = Op::MOVI, .rd = 7, .imm = 4});
  for (const bool negative : {false, true})
    for (uint8_t o = 0; o < std::size(isa::kOps); ++o)
      for (uint8_t sub = 0; sub < isa::kOps[o].subs.size(); ++sub) {
        const Op op = static_cast<Op>(o);
        Instr ins{.op = op, .sub = sub};
        // Every run ends in a return and the startup's halt, and every BL
        // pair carries a BL_LO.
        if (isa::is_halt(ins) || isa::is_return(ins) || op == Op::BL_LO)
          continue;
        minic::ObjFunction f;
        f.name = "row" + std::to_string(e.printed.size());
        emit(main_fn, Instr{.op = Op::BL_HI}, -1, -1, f.name);
        emit(f, push_lr);
        emit(f, Instr{.op = Op::MOVI, .rd = 0, .imm = 200});
        if (negative)
          emit(f, Instr{.op = Op::ALU,
                        .sub = static_cast<uint8_t>(isa::AluOp::NEG)});
        emit(f, Instr{.op = Op::MOVI, .rd = 1, .imm = 7});
        emit(f, Instr{.op = Op::MOVI, .rd = 2, .imm = 3});
        switch (isa::format(op)) {
          case Format::RdImm8: // [sp + 4] is main's scratch
            ins.imm = 1;
            emit(f, ins, -1,
                 isa::info(op).addr == isa::Addr::Lit
                     ? f.add_literal({.value = 0x12345678})
                     : -1);
            break;
          case Format::Alu:
            ins.rm = 1;
            emit(f, ins);
            break;
          case Format::R3:
            ins.rn = 1;
            ins.rm = 2;
            emit(f, ins);
            break;
          case Format::RI3:
            ins.rn = 1;
            ins.imm = 5;
            emit(f, ins);
            break;
          case Format::Shift:
            ins.imm = 3;
            emit(f, ins);
            break;
          case Format::Mem5: // buf + imm * scale
            ins.rn = 6;
            ins.imm = 1;
            emit(f, ins);
            break;
          case Format::Rx: // buf + 4
            ins.rn = 6;
            ins.rm = 7;
            emit(f, ins);
            break;
          case Format::AdjSp: // and back
            ins.imm = 2;
            emit(f, ins);
            emit(f, adjsp(!sub, 2));
            break;
          case Format::RList: {
            // Balanced: a push is dropped, a pop reads reserved words.
            ins.imm = 0x10;
            const bool pop = op == Op::POP;
            const auto words = static_cast<int32_t>(isa::transfer_count(ins));
            if (pop) emit(f, adjsp(true, words));
            emit(f, ins);
            if (!pop) emit(f, adjsp(false, words));
            break;
          }
          case Format::Bcc:
          case Format::B: { // taken: skip the MOVI
            const int skip = f.new_label();
            if (op == Op::BCC) emit(f, Instr{.op = Op::CMPI, .imm = 100});
            emit(f, ins, skip);
            emit(f, Instr{.op = Op::MOVI, .rd = 0, .imm = 1});
            f.bind_label(skip);
            break;
          }
          case Format::BlHalf:
            emit(f, ins, -1, -1, "leaf");
            break;
          case Format::Sys:
            emit(f, ins);
            if (ins == out_r0) e.printed.push_back(ins);
            break;
        }
        emit(f, out_r0);
        emit(f, pop_pc);
        e.mod.functions.push_back(std::move(f));
        e.printed.push_back(ins);
      }
  emit(main_fn, adjsp(false, 4));
  emit(main_fn, pop_pc);
  e.mod.functions.push_back(std::move(main_fn));

  minic::ObjFunction leaf; // r0 += 1
  leaf.name = "leaf";
  emit(leaf, push_lr);
  emit(leaf, Instr{.op = Op::ADDI, .imm = 1});
  emit(leaf, pop_pc);
  e.mod.functions.push_back(std::move(leaf));
  // Sign bits in every byte and halfword the narrow loads read.
  e.mod.globals.push_back(
      {.name = "buf",
       .type = minic::ElemType::I32,
       .count = 4,
       .init = {static_cast<int32_t>(0x80f0ff80u),
                static_cast<int32_t>(0xff7f8001u)}});
  return e;
}

TEST(SimFastPath, EveryTableRowMatchesReference) {
  const EveryOp e = every_op_module();
  const link::Image img = link::link_program(e.mod);
  const Checked run = expect_parity(img, profiling(), "every op");
  // Straight-line fragments, each ending in OUT: one output per fragment
  // means every fragment ran.
  ASSERT_EQ(run.result.output.size(), e.printed.size());
  std::size_t rows = 0;
  for (const isa::OpInfo& o : isa::kOps) rows += o.subs.size();
  // Left to the returns, the startup's halt and every BL: POP{pc}, HALT
  // and BL_LO. The OUT row prints twice.
  EXPECT_EQ(e.printed.size(), 2 * (rows - 3 + 1));
  const isa::Instr sub{.op = isa::Op::ALU,
                       .sub = static_cast<uint8_t>(isa::AluOp::SUB),
                       .rm = 1};
  const auto at = std::find(e.printed.begin(), e.printed.end(), sub);
  ASSERT_NE(at, e.printed.end());
  EXPECT_EQ(run.result.output[at - e.printed.begin()], 193);
  EXPECT_EQ(run.fallback, 0u);
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

TEST(SimFastPath, TrapsMatchReference) {
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
  cases.push_back({"odd return", odd_return_module(), "misaligned fetch at 1"});
  // 0xffff is SYS function 7, outside the instruction set: the store
  // retires the executing block and the one-op path fetches the word.
  const uint32_t target = selfmod_target();
  const std::string invalid =
      "invalid instruction 0xffff at " + std::to_string(target);
  cases.push_back({"invalid word", selfmod_module(target, 0xffff),
                   invalid.c_str()});
  for (const Case& c : cases) {
    const link::Image img = link::link_program(c.mod);
    SimConfig cfg = profiling();
    // Ends one instruction into the runaway's three-instruction loop block.
    cfg.max_instructions = 100'001;
    const auto trap = [&](const auto& run) {
      try {
        run();
      } catch (const SimulationError& e) {
        return std::string(e.what());
      }
      ADD_FAILURE() << c.name << ": no trap";
      return std::string();
    };
    const uint64_t runs = reference::simulator_runs();
    const std::string want = trap([&] { reference::simulate(img, cfg); });
    EXPECT_EQ(reference::simulator_runs(), runs + 1) << c.name;
    EXPECT_EQ(want.rfind(c.trap, 0), 0u) << c.name << ": " << want;
    Simulator s(img, cfg);
    EXPECT_EQ(trap([&] { s.run(); }), want) << c.name;
    // The faulting SP-relative accesses left the stack window for the
    // translated path, which owns the traps.
    EXPECT_TRUE(s.stack_window_active()) << c.name;
    // The budget tail runs one instruction at a time, so the trap fires at
    // the same instruction as the reference's.
    if (std::string(c.name) == "runaway")
      EXPECT_GT(s.fallback_instructions(), 0u);
  }
}

// Images whose stack window proof fails run through the translated
// accesses, field-identical to the reference, with the window off: a global
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
    const Checked run = expect_parity(img, profiling(), name);
    EXPECT_FALSE(run.window) << name;
    EXPECT_EQ(run.fallback, 0u) << name;
    EXPECT_GT(run.result.profile.symbols.at("a").total(), 0u) << name;
  }
}

} // namespace
} // namespace spmwcet::sim
