#include "sim/simulator.h"

#include <iomanip>
#include <ostream>

#include "isa/decode.h"
#include "isa/disasm.h"
#include "isa/timing.h"
#include "support/diag.h"

namespace spmwcet::sim {

using isa::AluOp;
using isa::Cond;
using isa::ExecTiming;
using isa::Instr;
using isa::Op;

namespace {
/// Profile window below initial_sp attributed to the stack — one
/// definition shared by the legacy and interned profile paths, whose
/// field-exact parity depends on it.
constexpr uint32_t kStackWindowBytes = 0x10000;
} // namespace

Simulator::Simulator(link::Image img, const SimConfig& cfg)
    : image_(std::move(img)), cfg_(cfg),
      mem_(image_, cfg.cache, cfg.fast_path), symbols_(image_) {
  if (cfg_.reuse != nullptr) mem_.observe_reuse(cfg_.reuse);
  sp_ = image_.initial_sp;
  pc_ = image_.entry;
  if (cfg_.fast_path) {
    // The translation tier folds per-instruction accounting into one
    // block-entry update, which is exact only when no access mutates cache
    // tag state mid-block and no per-instruction trace is requested.
    const bool tier = cfg_.block_tier && !cfg_.cache && cfg_.trace == nullptr;
    // When the tier must compile its own block table and no shared decode
    // was supplied, decode locally once and feed both tables.
    std::optional<program::DecodedImage> local_dec;
    const program::DecodedImage* dec = cfg_.predecoded;
    if (dec == nullptr && tier && cfg_.compiled_blocks == nullptr) {
      local_dec.emplace(image_);
      dec = &*local_dec;
    }
    if (dec != nullptr)
      code_.emplace(*dec, symbols_);
    else
      code_.emplace(image_, symbols_);
    stack_slot_ = symbols_.stack_slot();
    other_slot_ = symbols_.other_slot();
    counts_.resize(symbols_.slot_count());
    stack_lo_ = image_.initial_sp - kStackWindowBytes;
    stack_hi_ = image_.initial_sp;
    if (tier) {
      if (cfg_.compiled_blocks != nullptr) {
        blocks_ = cfg_.compiled_blocks;
      } else {
        owned_blocks_.emplace(*dec, symbols_, image_);
        blocks_ = &*owned_blocks_;
      }
      block_run_.reset(blocks_->block_count());
      blocks_->bind_literals(mem_, lit_ptrs_);
    }
  }
}

SimResult simulate(const link::Image& img, const SimConfig& cfg) {
  Simulator s(img, cfg);
  return s.run();
}

// Flag semantics live in block_table.h (flags_cond_holds/flags_set_sub) so
// the interpreter and the block-tier handlers share one definition.
bool Simulator::cond_holds(Cond c) const { return flags_cond_holds(flags_, c); }

void Simulator::set_flags_sub(uint32_t a, uint32_t b) {
  flags_set_sub(flags_, a, b);
}

void Simulator::profile_fetch(uint32_t addr) {
  if (!cfg_.collect_profile) return;
  const link::Symbol* sym = symbols_.find(addr);
  if (sym != nullptr && sym->is_function)
    ++profile_.symbols[sym->name].fetch;
  else
    ++profile_.other.fetch;
}

void Simulator::profile_data(uint32_t addr, uint32_t bytes, bool is_store) {
  if (!cfg_.collect_profile) return;
  AccessCounts* counts = nullptr;
  const link::Symbol* sym = symbols_.find(addr);
  if (sym != nullptr) {
    counts = &profile_.symbols[sym->name];
  } else if (addr >= image_.initial_sp - kStackWindowBytes &&
             addr < image_.initial_sp) {
    counts = &profile_.stack;
  } else {
    counts = &profile_.other;
  }
  if (is_store)
    counts->add_store(bytes);
  else
    counts->add_load(bytes);
}

void Simulator::profile_fetch_interned(uint32_t addr) {
  if (!cfg_.collect_profile) return;
  ++counts_[symbols_.fetch_slot(addr)].fetch;
}

void Simulator::profile_data_interned(uint32_t addr, uint32_t bytes,
                                      bool is_store) {
  if (!cfg_.collect_profile) return;
  const int id = symbols_.find_id(addr);
  AccessCounts& counts =
      counts_[id >= 0 ? static_cast<uint32_t>(id)
                      : (addr >= stack_lo_ && addr < stack_hi_ ? stack_slot_
                                                               : other_slot_)];
  if (is_store)
    counts.add_store(bytes);
  else
    counts.add_load(bytes);
}

/// Folds the dense per-id counters into the seed's name-keyed profile.
/// Only touched symbols get an entry — exactly the set the per-access map
/// insertion would have created.
void Simulator::fold_profile() {
  for (std::size_t i = 0; i < symbols_.size(); ++i)
    if (counts_[i].total() != 0)
      profile_.symbols[symbols_.symbol(static_cast<int>(i)).name] +=
          counts_[i];
  profile_.stack = counts_[stack_slot_];
  profile_.other = counts_[other_slot_];
}

isa::Instr Simulator::fetch_decoded(uint32_t addr) {
  if (cfg_.fast_path) {
    CodeTable::Hit hit;
    if (code_->lookup(addr, hit)) {
      if (cfg_.collect_profile) ++counts_[hit.fetch_slot].fetch;
      mem_.count_fetch(addr, hit.cls);
      return *hit.ins;
    }
    // Outside the predecoded spans (literal pools, gaps, data, misaligned
    // pc): the legacy fetch reproduces the seed's traps and timing.
    profile_fetch_interned(addr);
    return isa::decode(mem_.fetch(addr));
  }
  profile_fetch(addr);
  return isa::decode(mem_.fetch(addr));
}

SimResult Simulator::run() {
  SimResult result;
  if (blocks_ != nullptr) {
    run_blocks(result);
  } else {
    while (!halted_) {
      if (result.instructions >= cfg_.max_instructions)
        throw SimulationError(
            "instruction budget exceeded (runaway program?)");
      step(result);
      ++result.instructions;
    }
  }
  result.cycles = mem_.cycles();
  result.cache_hits = mem_.cache_hits();
  result.cache_misses = mem_.cache_misses();
  if (cfg_.fast_path && cfg_.collect_profile) fold_profile();
  result.profile = profile_;
  return result;
}

/// The translation-tier dispatch loop: run whole compiled blocks where a
/// valid one starts at pc and the instruction budget admits all of it;
/// everything else (gaps, invalidated blocks, the budget tail) goes through
/// the per-instruction step(), which traps at exactly the same instruction
/// the plain loop would.
void Simulator::run_blocks(SimResult& result) {
  BlockCtx ctx;
  ctx.regs = regs_;
  ctx.sp = &sp_;
  ctx.lr = &lr_;
  ctx.flags = &flags_;
  ctx.halted = &halted_;
  ctx.mem = &mem_;
  ctx.code = &*code_;
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
  ctx.reuse = cfg_.reuse;
  // A stack top below the window size wraps stack_lo_ above stack_hi_: the
  // profile window is then empty, and nothing is proven about it.
  ctx.stack_clean =
      stack_lo_ < stack_hi_ && !symbols_.intersects(stack_lo_, stack_hi_);
  prove_stack_window(ctx);

  while (!halted_) {
    const int bi = blocks_->find(pc_);
    if (bi >= 0 && block_run_.valid(bi) &&
        result.instructions + blocks_->instr_count(bi) <=
            cfg_.max_instructions) {
      result.instructions += blocks_->execute(bi, ctx);
      pc_ = ctx.next_pc;
      continue;
    }
    if (result.instructions >= cfg_.max_instructions)
      throw SimulationError("instruction budget exceeded (runaway program?)");
    step(result);
    ++result.instructions;
  }
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
  if (code_->covers(r->lo, r->hi - r->lo)) return;
  uint8_t* bytes = mem_.arena_bytes(r->lo, r->hi);
  if (bytes == nullptr) return;
  ctx.win = bytes;
  ctx.win_lo = r->lo;
  ctx.win_span = r->hi - r->lo - 3;
  stack_window_ = true;
}

void Simulator::step(SimResult& result) {
  const uint32_t iaddr = pc_;
  const Instr ins = fetch_decoded(iaddr);
  uint32_t next = iaddr + 2;

  if (cfg_.trace != nullptr) {
    *cfg_.trace << std::setw(10) << mem_.cycles() << "  0x" << std::hex
                << std::setw(6) << std::setfill('0') << iaddr << std::dec
                << std::setfill(' ') << "  " << isa::disassemble(ins, iaddr)
                << "\n";
  }

  const bool fast = cfg_.fast_path;
  auto reg = [&](isa::Reg r) -> uint32_t& { return regs_[r]; };
  auto timed_load = [&](uint32_t addr, uint32_t bytes, bool sign) {
    if (fast)
      profile_data_interned(addr, bytes, /*is_store=*/false);
    else
      profile_data(addr, bytes, /*is_store=*/false);
    uint32_t v = mem_.load(addr, bytes);
    if (sign && bytes < 4) {
      const uint32_t shift = 32 - 8 * bytes;
      v = static_cast<uint32_t>(static_cast<int32_t>(v << shift) >>
                                static_cast<int32_t>(shift));
    }
    return v;
  };
  auto timed_store = [&](uint32_t addr, uint32_t bytes, uint32_t v) {
    if (fast)
      profile_data_interned(addr, bytes, /*is_store=*/true);
    else
      profile_data(addr, bytes, /*is_store=*/true);
    mem_.store(addr, bytes, v);
    // Self-modifying store: re-decode the overwritten code halfwords so the
    // predecoded table keeps matching memory byte for byte, and retire any
    // compiled blocks built over the old bytes.
    if (fast && code_->covers(addr, bytes)) {
      code_->refresh(addr, bytes, mem_);
      if (blocks_ != nullptr)
        blocks_->invalidate_overlapping(addr, bytes, block_run_);
    }
  };

  switch (ins.op) {
    case Op::MOVI:
      reg(ins.rd) = static_cast<uint32_t>(ins.imm);
      break;
    case Op::ADDI:
      reg(ins.rd) += static_cast<uint32_t>(ins.imm);
      break;
    case Op::SUBI:
      reg(ins.rd) -= static_cast<uint32_t>(ins.imm);
      break;
    case Op::CMPI:
      set_flags_sub(reg(ins.rd), static_cast<uint32_t>(ins.imm));
      break;
    case Op::ALU: {
      const uint32_t a = reg(ins.rd);
      const uint32_t b = reg(ins.rm);
      mem_.add_cycles(ExecTiming::compute_extra(ins));
      switch (static_cast<AluOp>(ins.sub)) {
        case AluOp::ADD: reg(ins.rd) = a + b; break;
        case AluOp::SUB: reg(ins.rd) = a - b; break;
        case AluOp::AND: reg(ins.rd) = a & b; break;
        case AluOp::ORR: reg(ins.rd) = a | b; break;
        case AluOp::EOR: reg(ins.rd) = a ^ b; break;
        case AluOp::LSL: reg(ins.rd) = (b & 31u) == b ? (a << b) : 0; break;
        case AluOp::LSR: reg(ins.rd) = (b & 31u) == b ? (a >> b) : 0; break;
        case AluOp::ASR: {
          const uint32_t s = b > 31 ? 31 : b;
          reg(ins.rd) = static_cast<uint32_t>(static_cast<int32_t>(a) >>
                                              static_cast<int32_t>(s));
          break;
        }
        case AluOp::MUL: reg(ins.rd) = a * b; break;
        case AluOp::CMP: set_flags_sub(a, b); break;
        case AluOp::MOV: reg(ins.rd) = b; break;
        case AluOp::NEG: reg(ins.rd) = 0u - b; break;
        case AluOp::MVN: reg(ins.rd) = ~b; break;
        case AluOp::SDIV:
          if (b == 0) throw SimulationError("division by zero");
          reg(ins.rd) = static_cast<uint32_t>(static_cast<int32_t>(a) /
                                              static_cast<int32_t>(b));
          break;
        case AluOp::UDIV:
          if (b == 0) throw SimulationError("division by zero");
          reg(ins.rd) = a / b;
          break;
      }
      break;
    }
    case Op::ADD3:
      reg(ins.rd) = reg(ins.rn) + reg(ins.rm);
      break;
    case Op::SUB3:
      reg(ins.rd) = reg(ins.rn) - reg(ins.rm);
      break;
    case Op::ADDI3:
      reg(ins.rd) = reg(ins.rn) + static_cast<uint32_t>(ins.imm);
      break;
    case Op::SUBI3:
      reg(ins.rd) = reg(ins.rn) - static_cast<uint32_t>(ins.imm);
      break;
    case Op::SHIFTI: {
      const uint32_t a = reg(ins.rd);
      const auto s = static_cast<uint32_t>(ins.imm);
      switch (static_cast<isa::ShiftOp>(ins.sub)) {
        case isa::ShiftOp::LSL: reg(ins.rd) = a << s; break;
        case isa::ShiftOp::LSR: reg(ins.rd) = a >> s; break;
        case isa::ShiftOp::ASR:
          reg(ins.rd) = static_cast<uint32_t>(static_cast<int32_t>(a) >>
                                              static_cast<int32_t>(s));
          break;
      }
      break;
    }
    case Op::LDR:
      reg(ins.rd) = timed_load(reg(ins.rn) + static_cast<uint32_t>(ins.imm) * 4,
                               4, false);
      break;
    case Op::STR:
      timed_store(reg(ins.rn) + static_cast<uint32_t>(ins.imm) * 4, 4,
                  reg(ins.rd));
      break;
    case Op::LDRH:
      reg(ins.rd) = timed_load(reg(ins.rn) + static_cast<uint32_t>(ins.imm) * 2,
                               2, false);
      break;
    case Op::STRH:
      timed_store(reg(ins.rn) + static_cast<uint32_t>(ins.imm) * 2, 2,
                  reg(ins.rd));
      break;
    case Op::LDRB:
      reg(ins.rd) =
          timed_load(reg(ins.rn) + static_cast<uint32_t>(ins.imm), 1, false);
      break;
    case Op::STRB:
      timed_store(reg(ins.rn) + static_cast<uint32_t>(ins.imm), 1, reg(ins.rd));
      break;
    case Op::LDRSH:
      reg(ins.rd) = timed_load(reg(ins.rn) + static_cast<uint32_t>(ins.imm) * 2,
                               2, true);
      break;
    case Op::LDRSB:
      reg(ins.rd) =
          timed_load(reg(ins.rn) + static_cast<uint32_t>(ins.imm), 1, true);
      break;
    case Op::LDR_LIT:
      reg(ins.rd) = timed_load(
          isa::lit_base(iaddr) + static_cast<uint32_t>(ins.imm) * 4, 4, false);
      break;
    case Op::ADR:
      reg(ins.rd) = isa::lit_base(iaddr) + static_cast<uint32_t>(ins.imm) * 4;
      break;
    case Op::LDR_SP:
      reg(ins.rd) =
          timed_load(sp_ + static_cast<uint32_t>(ins.imm) * 4, 4, false);
      break;
    case Op::STR_SP:
      timed_store(sp_ + static_cast<uint32_t>(ins.imm) * 4, 4, reg(ins.rd));
      break;
    case Op::ADJSP:
      if (ins.sub)
        sp_ -= static_cast<uint32_t>(ins.imm) * 4;
      else
        sp_ += static_cast<uint32_t>(ins.imm) * 4;
      break;
    case Op::PUSH: {
      const uint32_t n = isa::transfer_count(ins);
      sp_ -= 4 * n;
      uint32_t addr = sp_;
      for (unsigned r = 0; r < 8; ++r)
        if (ins.imm & (1 << r)) {
          timed_store(addr, 4, regs_[r]);
          addr += 4;
        }
      if (ins.sub) timed_store(addr, 4, lr_);
      break;
    }
    case Op::POP: {
      uint32_t addr = sp_;
      for (unsigned r = 0; r < 8; ++r)
        if (ins.imm & (1 << r)) {
          regs_[r] = timed_load(addr, 4, false);
          addr += 4;
        }
      if (ins.sub) {
        next = timed_load(addr, 4, false);
        addr += 4;
        mem_.add_cycles(ExecTiming::return_penalty);
      }
      sp_ = addr;
      break;
    }
    case Op::BCC:
      if (cond_holds(static_cast<Cond>(ins.sub))) {
        next = isa::branch_target(iaddr, ins.imm);
        mem_.add_cycles(ExecTiming::taken_branch_penalty);
      }
      break;
    case Op::B:
      next = isa::branch_target(iaddr, ins.imm);
      mem_.add_cycles(ExecTiming::taken_branch_penalty);
      break;
    case Op::BL_HI: {
      const Instr lo = fetch_decoded(iaddr + 2);
      if (lo.op != Op::BL_LO)
        throw SimulationError("BL_HI not followed by BL_LO");
      lr_ = iaddr + 4;
      next = isa::branch_target(iaddr, isa::decode_bl(ins, lo));
      mem_.add_cycles(ExecTiming::call_penalty);
      ++result.instructions; // the pair counts as one extra halfword
      break;
    }
    case Op::BL_LO:
      throw SimulationError("stray BL_LO executed");
    case Op::LDX: {
      const uint32_t addr = reg(ins.rn) + reg(ins.rm);
      switch (static_cast<isa::LdxOp>(ins.sub)) {
        case isa::LdxOp::W: reg(ins.rd) = timed_load(addr, 4, false); break;
        case isa::LdxOp::H: reg(ins.rd) = timed_load(addr, 2, false); break;
        case isa::LdxOp::B: reg(ins.rd) = timed_load(addr, 1, false); break;
        case isa::LdxOp::SH: reg(ins.rd) = timed_load(addr, 2, true); break;
      }
      break;
    }
    case Op::STX: {
      const uint32_t addr = reg(ins.rn) + reg(ins.rm);
      switch (static_cast<isa::StxOp>(ins.sub)) {
        case isa::StxOp::W: timed_store(addr, 4, reg(ins.rd)); break;
        case isa::StxOp::H: timed_store(addr, 2, reg(ins.rd)); break;
        case isa::StxOp::B: timed_store(addr, 1, reg(ins.rd)); break;
      }
      break;
    }
    case Op::SYS:
      switch (static_cast<isa::SysFn>(ins.sub)) {
        case isa::SysFn::NOP:
          break;
        case isa::SysFn::HALT:
          halted_ = true;
          break;
        case isa::SysFn::OUT:
          result.output.push_back(static_cast<int32_t>(reg(ins.rd)));
          break;
      }
      break;
  }
  pc_ = next;
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
  // Data symbols never overlap code spans, but keep the tables coherent
  // even for exotic hand-built images.
  if (cfg_.fast_path && code_->covers(addr, bytes)) {
    code_->refresh(addr, bytes, mem_);
    if (blocks_ != nullptr)
      blocks_->invalidate_overlapping(addr, bytes, block_run_);
  }
}

} // namespace spmwcet::sim
