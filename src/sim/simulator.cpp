#include "sim/simulator.h"

#include <cstdio>
#include <iomanip>
#include <ostream>
#include <string>

#include "isa/decode.h"
#include "isa/disasm.h"
#include "support/diag.h"

namespace spmwcet::sim {

using isa::Instr;
using isa::Op;

namespace {

/// Decodes a fetched halfword; one outside the instruction set traps.
Instr decode_fetched(uint32_t addr, uint16_t word) {
  try {
    return isa::decode(word);
  } catch (const ProgramError&) {
    char hw[8];
    std::snprintf(hw, sizeof hw, "0x%04x", word);
    throw SimulationError(std::string("invalid instruction ") + hw + " at " +
                          std::to_string(addr));
  }
}

} // namespace

Simulator::Simulator(link::Image img, const SimConfig& cfg)
    : image_(std::move(img)), cfg_(cfg), mem_(image_, cfg.cache),
      symbols_(image_) {
  if (cfg_.reuse != nullptr) mem_.observe_reuse(cfg_.reuse);
  sp_ = image_.initial_sp;
  pc_ = image_.entry;
  stack_slot_ = symbols_.stack_slot();
  other_slot_ = symbols_.other_slot();
  counts_.resize(symbols_.slot_count());
  stack_lo_ = image_.initial_sp - kStackWindowBytes;
  stack_hi_ = image_.initial_sp;
  if (cfg_.compiled_blocks != nullptr) {
    blocks_ = cfg_.compiled_blocks;
  } else if (cfg_.predecoded != nullptr) {
    blocks_ = &owned_blocks_.emplace(*cfg_.predecoded, symbols_, image_);
  } else {
    blocks_ = &owned_blocks_.emplace(program::DecodedImage(image_), symbols_,
                                     image_);
  }
  block_run_.reset(blocks_->block_count());
  blocks_->bind_literals(mem_, lit_ptrs_);
  if (cfg_.cache || cfg_.reuse != nullptr)
    blocks_->fetch_runs(fetch_runs_, run_first_);
}

SimResult simulate(const link::Image& img, const SimConfig& cfg) {
  Simulator s(img, cfg);
  return s.run();
}

/// Folds the dense per-id counters into the name-keyed profile. Only
/// touched symbols get an entry.
void Simulator::fold_profile() {
  for (std::size_t i = 0; i < symbols_.size(); ++i)
    if (counts_[i].total() != 0)
      profile_.symbols[symbols_.symbol(static_cast<int>(i)).name] +=
          counts_[i];
  profile_.stack = counts_[stack_slot_];
  profile_.other = counts_[other_slot_];
}

SimResult Simulator::run() {
  SimResult result;
  run_blocks(result);
  result.cycles = mem_.cycles();
  result.cache_hits = mem_.cache_hits();
  result.cache_misses = mem_.cache_misses();
  if (cfg_.collect_profile) fold_profile();
  result.profile = profile_;
  return result;
}

/// The dispatch loop: run whole compiled blocks where a valid one starts at
/// pc and the instruction budget admits all of it; everything else (gaps,
/// invalidated blocks, the budget tail, traced runs) goes one instruction
/// at a time through run_one(), which traps at exactly the instruction
/// that faults.
void Simulator::run_blocks(SimResult& result) {
  BlockCtx ctx;
  ctx.regs = regs_;
  ctx.sp = &sp_;
  ctx.lr = &lr_;
  ctx.flags = &flags_;
  ctx.halted = &halted_;
  ctx.mem = &mem_;
  ctx.counts = counts_.data();
  ctx.symbols = &symbols_;
  ctx.result = &result;
  ctx.table = blocks_;
  ctx.run = &block_run_;
  ctx.lit_ptrs = lit_ptrs_.data();
  ctx.stack_lo = stack_lo_;
  ctx.stack_hi = stack_hi_;
  ctx.stack_slot = stack_slot_;
  ctx.other_slot = other_slot_;
  ctx.profile = cfg_.collect_profile;
  ctx.observed = cfg_.cache.has_value() || cfg_.reuse != nullptr;
  ctx.runs = fetch_runs_.data();
  ctx.run_first = run_first_.data();
  // A stack top below the window size wraps stack_lo_ above stack_hi_: the
  // profile window is then empty, and nothing is proven about it.
  ctx.stack_clean =
      stack_lo_ < stack_hi_ && !symbols_.intersects(stack_lo_, stack_hi_);
  prove_stack_window(ctx);

  const bool traced = cfg_.trace != nullptr;
  while (!halted_) {
    const int bi = traced ? -1 : blocks_->find(pc_);
    if (bi >= 0 && block_run_.valid(bi) &&
        result.instructions + blocks_->instr_count(bi) <=
            cfg_.max_instructions) {
      result.instructions += blocks_->execute(bi, ctx);
      pc_ = ctx.next_pc;
      continue;
    }
    if (result.instructions >= cfg_.max_instructions)
      throw SimulationError("instruction budget exceeded (runaway program?)");
    const uint32_t n = run_one(ctx);
    result.instructions += n;
    fallback_ += n;
    pc_ = ctx.next_pc;
  }
}

/// The one-op fallback: fetches the halfword at pc through the memory
/// system (charging the fetch and owning its traps), profiles the fetch,
/// decodes it and runs it through BlockTable::execute_one. A BL_HI fetches
/// and checks its BL_LO half first.
uint32_t Simulator::run_one(BlockCtx& ctx) {
  const uint32_t iaddr = pc_;
  if (cfg_.collect_profile) ++counts_[symbols_.fetch_slot(iaddr)].fetch;
  const Instr ins = decode_fetched(iaddr, mem_.fetch(iaddr));
  if (cfg_.trace != nullptr) {
    *cfg_.trace << std::setw(10) << mem_.cycles() << "  0x" << std::hex
                << std::setw(6) << std::setfill('0') << iaddr << std::dec
                << std::setfill(' ') << "  " << isa::disassemble(ins, iaddr)
                << "\n";
  }
  Instr second;
  if (ins.op == Op::BL_HI) {
    if (cfg_.collect_profile) ++counts_[symbols_.fetch_slot(iaddr + 2)].fetch;
    second = decode_fetched(iaddr + 2, mem_.fetch(iaddr + 2));
    if (second.op != Op::BL_LO)
      throw SimulationError("BL_HI not followed by BL_LO");
  } else if (ins.op == Op::BL_LO) {
    throw SimulationError("stray BL_LO executed");
  }
  return blocks_->execute_one(ins, second, iaddr, ctx);
}

/// Engages the block tier's stack window (BlockCtx::win) when the stack
/// region is one main-memory arena run inside the symbol-free profile stack
/// window and overlaps no code span. Reads the region map and the arena
/// layout only, so the proof costs a few lookups per run.
void Simulator::prove_stack_window(BlockCtx& ctx) {
  const link::Region* r = image_.regions.find(image_.initial_sp - 4);
  // The stack region kind is always main memory (link::mem_class).
  if (r == nullptr || r->kind != link::RegionKind::Stack ||
      r->hi - r->lo < 4 || r->lo % 4 != 0)
    return;
  if (!ctx.stack_clean || r->lo < stack_lo_ || r->hi > stack_hi_) return;
  if (blocks_->covers(r->lo, r->hi - r->lo)) return;
  uint8_t* bytes = mem_.arena_bytes(r->lo, r->hi);
  if (bytes == nullptr) return;
  ctx.win = bytes;
  ctx.win_lo = r->lo;
  ctx.win_span = r->hi - r->lo - 3;
  stack_window_ = true;
}

const link::Symbol& Simulator::global(const std::string& name) const {
  const link::Symbol* sym = image_.find_symbol(name);
  if (sym == nullptr || sym->is_function)
    throw SimulationError("read_global: no such global: " + name);
  return *sym;
}

int64_t Simulator::read_global(const std::string& name, uint32_t index) const {
  return read_global(global(name), index);
}

int64_t Simulator::read_global(const link::Symbol& sym, uint32_t index) const {
  SPMWCET_CHECK_MSG(index < sym.count, "read_global: index out of range");
  const uint32_t bytes = sym.elem_bytes;
  const uint32_t v = mem_.peek(sym.addr + index * bytes, bytes);
  // Globals carry their signedness only in the MiniC AST; the image records
  // width. Interpret as signed for 1/2-byte elements unless the symbol is
  // marked unsigned via elem type conventions (see workloads). We expose
  // raw sign extension for I8/I16 patterns by convention: values are
  // returned sign-extended; unsigned users mask.
  if (bytes == 1) return static_cast<int8_t>(v);
  if (bytes == 2) return static_cast<int16_t>(v);
  return static_cast<int32_t>(v);
}

void Simulator::write_global(const std::string& name, uint32_t index,
                             int64_t value) {
  const link::Symbol* sym = image_.find_symbol(name);
  if (sym == nullptr || sym->is_function)
    throw SimulationError("write_global: no such global: " + name);
  SPMWCET_CHECK_MSG(index < sym->count, "write_global: index out of range");
  const uint32_t bytes = sym->elem_bytes;
  const uint32_t addr = sym->addr + index * bytes;
  mem_.poke(addr, bytes, static_cast<uint32_t>(value));
  // Data symbols never overlap code spans, but keep the compiled blocks
  // coherent even for exotic hand-built images.
  if (blocks_->covers(addr, bytes))
    blocks_->invalidate_overlapping(addr, bytes, block_run_);
}

} // namespace spmwcet::sim
