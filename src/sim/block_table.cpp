#include "sim/block_table.h"

#include <optional>

#include "isa/decode.h"
#include "sim/memory_system.h"
#include "sim/simulator.h"
#include "support/diag.h"

namespace spmwcet::sim {

using isa::AluOp;
using isa::Cond;
using isa::ExecTiming;
using isa::Instr;
using isa::MemClass;
using isa::MemTiming;
using isa::Op;

namespace {

// Threaded dispatch: every handler ends by tail-calling the next op's
// handler, so each handler body owns its indirect-jump site (see the
// MicroHandler comment in the header). Store handlers return early instead
// of chaining when the store invalidated the executing block.
#define SPMWCET_CHAIN return u[1].fn(ctx, u + 1)

// ---- handler building blocks ----------------------------------------------
// A timed access profiles first (dense slot resolution), then accesses the
// memory system (the inline try_* fast path, else the out-of-line call that
// owns the trap messages and the cache); a store into a code span then
// invalidates the blocks it overlaps.

inline void profile_access(BlockCtx& ctx, uint32_t addr, uint32_t bytes,
                           bool is_store) {
  AccessCounts* counts;
  if (ctx.stack_clean && addr - ctx.stack_lo < ctx.stack_hi - ctx.stack_lo) {
    // The stack window is proven symbol-free, so find_id would miss and
    // the window test would route here anyway — skip the binary search.
    counts = &ctx.counts[ctx.stack_slot];
  } else {
    const int id = ctx.symbols->find_id(addr);
    counts =
        &ctx.counts[id >= 0 ? static_cast<uint32_t>(id)
                            : (addr >= ctx.stack_lo && addr < ctx.stack_hi
                                   ? ctx.stack_slot
                                   : ctx.other_slot)];
  }
  if (is_store)
    counts->add_store(bytes);
  else
    counts->add_load(bytes);
}

/// Reports the executing block's fetch runs through load-bearing op `u`
/// to the memory system's cache or observer, so every load follows its own
/// op's fetch.
inline void report_fetches(BlockCtx& ctx, const MicroOp* u) {
  if (u->fetch_end > ctx.fetch_done) {
    ctx.mem->report_fetches(ctx.fetch_runs + ctx.fetch_done,
                            ctx.fetch_runs + u->fetch_end);
    ctx.fetch_done = u->fetch_end;
  }
}

template <uint32_t Bytes, bool Sign>
inline uint32_t timed_load(BlockCtx& ctx, const MicroOp* u, uint32_t addr) {
  if (ctx.profile) profile_access(ctx, addr, Bytes, /*is_store=*/false);
  if (ctx.observed) [[unlikely]] report_fetches(ctx, u);
  uint32_t v;
  if (!ctx.mem->try_load(addr, Bytes, v)) v = ctx.mem->load(addr, Bytes);
  if constexpr (Sign && Bytes < 4) {
    constexpr uint32_t shift = 32 - 8 * Bytes;
    v = static_cast<uint32_t>(static_cast<int32_t>(v << shift) >>
                              static_cast<int32_t>(shift));
  }
  return v;
}

template <uint32_t Bytes>
inline void timed_store(BlockCtx& ctx, const MicroOp& u, uint32_t addr,
                        uint32_t value) {
  if (ctx.profile) profile_access(ctx, addr, Bytes, /*is_store=*/true);
  if (!ctx.mem->try_store(addr, Bytes, value))
    ctx.mem->store(addr, Bytes, value);
  if (ctx.table->covers(addr, Bytes)) [[unlikely]] {
    // Self-modifying store: retire every compiled block the store overlaps.
    // If it hit the block being executed, finish this micro-op (a PUSH's
    // remaining stores must still happen — the instruction is atomic) and
    // abort the block; execution resumes at the next instruction.
    ctx.table->invalidate_overlapping(addr, Bytes, *ctx.run);
    if (addr < ctx.cur_hi && addr + Bytes > ctx.cur_lo) {
      ctx.stop = true;
      ctx.next_pc = u.iaddr + 2;
    }
  }
}

/// SP-relative word load: by offset inside the proven stack window (the
/// profile slot, cost and read report the translated path would produce),
/// else the ordinary timed load, which owns the traps.
inline uint32_t stack_load(BlockCtx& ctx, const MicroOp* u, uint32_t addr) {
  const uint32_t off = addr - ctx.win_lo;
  if (off >= ctx.win_span || (off & 3u) != 0) [[unlikely]]
    return timed_load<4, false>(ctx, u, addr);
  if (ctx.profile) ctx.counts[ctx.stack_slot].add_load(4);
  if (ctx.observed) [[unlikely]] {
    report_fetches(ctx, u);
    ctx.mem->charge_main_load(addr, 4);
  } else {
    ctx.mem->add_cycles(MemTiming::main_memory(4));
  }
  const uint8_t* p = ctx.win + off;
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

/// SP-relative word store, the stack_load counterpart. The window overlaps
/// no code span, so no block invalidation can follow.
inline void stack_store(BlockCtx& ctx, const MicroOp& u, uint32_t addr,
                        uint32_t value) {
  const uint32_t off = addr - ctx.win_lo;
  if (off >= ctx.win_span || (off & 3u) != 0) [[unlikely]] {
    timed_store<4>(ctx, u, addr, value);
    return;
  }
  if (ctx.profile) ctx.counts[ctx.stack_slot].add_store(4);
  ctx.mem->add_cycles(MemTiming::main_memory(4));
  uint8_t* p = ctx.win + off;
  p[0] = static_cast<uint8_t>(value);
  p[1] = static_cast<uint8_t>(value >> 8);
  p[2] = static_cast<uint8_t>(value >> 16);
  p[3] = static_cast<uint8_t>(value >> 24);
}

// ---- micro-op handlers -----------------------------------------------------
// One handler per fused operation. Immediates are pre-scaled into aux at
// compile time; compute extras, fetch costs and unconditional penalties are
// folded into the block's static_cycles, so handlers touch the cycle
// counter only for data-dependent costs (dynamic memory accesses, taken
// BCC).

/// Block sentinel: every block's op run ends here (after its terminator,
/// when one exists); returns control to BlockTable::execute.
void h_end(BlockCtx&, const MicroOp*) {}

void h_movi(BlockCtx& ctx, const MicroOp* u) {
  ctx.regs[u->ins.rd] = u->aux;
  SPMWCET_CHAIN;
}
void h_addi(BlockCtx& ctx, const MicroOp* u) {
  ctx.regs[u->ins.rd] += u->aux;
  SPMWCET_CHAIN;
}
void h_subi(BlockCtx& ctx, const MicroOp* u) {
  ctx.regs[u->ins.rd] -= u->aux;
  SPMWCET_CHAIN;
}
void h_cmpi(BlockCtx& ctx, const MicroOp* u) {
  flags_set_sub(*ctx.flags, ctx.regs[u->ins.rd], u->aux);
  SPMWCET_CHAIN;
}

template <AluOp A>
void h_alu(BlockCtx& ctx, const MicroOp* u) {
  const uint32_t a = ctx.regs[u->ins.rd];
  const uint32_t b = ctx.regs[u->ins.rm];
  if constexpr (A == AluOp::ADD) ctx.regs[u->ins.rd] = a + b;
  if constexpr (A == AluOp::SUB) ctx.regs[u->ins.rd] = a - b;
  if constexpr (A == AluOp::AND) ctx.regs[u->ins.rd] = a & b;
  if constexpr (A == AluOp::ORR) ctx.regs[u->ins.rd] = a | b;
  if constexpr (A == AluOp::EOR) ctx.regs[u->ins.rd] = a ^ b;
  if constexpr (A == AluOp::LSL)
    ctx.regs[u->ins.rd] = (b & 31u) == b ? (a << b) : 0;
  if constexpr (A == AluOp::LSR)
    ctx.regs[u->ins.rd] = (b & 31u) == b ? (a >> b) : 0;
  if constexpr (A == AluOp::ASR) {
    const uint32_t s = b > 31 ? 31 : b;
    ctx.regs[u->ins.rd] = static_cast<uint32_t>(static_cast<int32_t>(a) >>
                                                static_cast<int32_t>(s));
  }
  if constexpr (A == AluOp::MUL) ctx.regs[u->ins.rd] = a * b;
  if constexpr (A == AluOp::CMP) flags_set_sub(*ctx.flags, a, b);
  if constexpr (A == AluOp::MOV) ctx.regs[u->ins.rd] = b;
  if constexpr (A == AluOp::NEG) ctx.regs[u->ins.rd] = 0u - b;
  if constexpr (A == AluOp::MVN) ctx.regs[u->ins.rd] = ~b;
  if constexpr (A == AluOp::SDIV) {
    if (b == 0) throw SimulationError("division by zero");
    ctx.regs[u->ins.rd] = static_cast<uint32_t>(static_cast<int32_t>(a) /
                                                static_cast<int32_t>(b));
  }
  if constexpr (A == AluOp::UDIV) {
    if (b == 0) throw SimulationError("division by zero");
    ctx.regs[u->ins.rd] = a / b;
  }
  SPMWCET_CHAIN;
}

void h_add3(BlockCtx& ctx, const MicroOp* u) {
  ctx.regs[u->ins.rd] = ctx.regs[u->ins.rn] + ctx.regs[u->ins.rm];
  SPMWCET_CHAIN;
}
void h_sub3(BlockCtx& ctx, const MicroOp* u) {
  ctx.regs[u->ins.rd] = ctx.regs[u->ins.rn] - ctx.regs[u->ins.rm];
  SPMWCET_CHAIN;
}
void h_addi3(BlockCtx& ctx, const MicroOp* u) {
  ctx.regs[u->ins.rd] = ctx.regs[u->ins.rn] + u->aux;
  SPMWCET_CHAIN;
}
void h_subi3(BlockCtx& ctx, const MicroOp* u) {
  ctx.regs[u->ins.rd] = ctx.regs[u->ins.rn] - u->aux;
  SPMWCET_CHAIN;
}

template <isa::ShiftOp S>
void h_shifti(BlockCtx& ctx, const MicroOp* u) {
  const uint32_t a = ctx.regs[u->ins.rd];
  if constexpr (S == isa::ShiftOp::LSL) ctx.regs[u->ins.rd] = a << u->aux;
  if constexpr (S == isa::ShiftOp::LSR) ctx.regs[u->ins.rd] = a >> u->aux;
  if constexpr (S == isa::ShiftOp::ASR)
    ctx.regs[u->ins.rd] = static_cast<uint32_t>(
        static_cast<int32_t>(a) >> static_cast<int32_t>(u->aux));
  SPMWCET_CHAIN;
}

/// Register-addressed load/store: the address is rn plus the pre-scaled
/// immediate in aux, or rn + rm for the register-offset forms (Idx).
template <bool Idx>
inline uint32_t reg_address(const BlockCtx& ctx, const MicroOp* u) {
  return ctx.regs[u->ins.rn] + (Idx ? ctx.regs[u->ins.rm] : u->aux);
}

template <uint32_t Bytes, bool Sign, bool Idx>
void h_load(BlockCtx& ctx, const MicroOp* u) {
  ctx.regs[u->ins.rd] =
      timed_load<Bytes, Sign>(ctx, u, reg_address<Idx>(ctx, u));
  SPMWCET_CHAIN;
}
template <uint32_t Bytes, bool Idx>
void h_store(BlockCtx& ctx, const MicroOp* u) {
  timed_store<Bytes>(ctx, *u, reg_address<Idx>(ctx, u), ctx.regs[u->ins.rd]);
  if (ctx.stop) [[unlikely]] {
    ctx.stopped_at = u;
    return;
  }
  SPMWCET_CHAIN;
}

/// LDR_LIT whose target was pre-classified: cost and profile slot are
/// static, the pointer was bound once per simulator — no translation, no
/// symbol search. Under a reuse observer a main-memory literal reports
/// itself. Falls back to the ordinary timed load when binding failed
/// (exotic images, or reads cached).
void h_ldr_lit(BlockCtx& ctx, const MicroOp* u) {
  const uint8_t* p = ctx.lit_ptrs[u->aux2];
  if (p != nullptr) [[likely]] {
    if (ctx.observed && u->cost != MemTiming::scratchpad()) [[unlikely]] {
      report_fetches(ctx, u);
      ctx.mem->charge_main_load(u->aux, 4);
    } else {
      ctx.mem->add_cycles(u->cost);
    }
    if (ctx.profile) ctx.counts[u->slot].add_load(4);
    ctx.regs[u->ins.rd] =
        static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
        (static_cast<uint32_t>(p[2]) << 16) |
        (static_cast<uint32_t>(p[3]) << 24);
    SPMWCET_CHAIN;
  }
  if (ctx.profile) ctx.counts[u->slot].add_load(4);
  if (ctx.observed) report_fetches(ctx, u);
  ctx.regs[u->ins.rd] = ctx.mem->load(u->aux, 4);
  SPMWCET_CHAIN;
}

/// LDR_LIT whose target the region map could not classify (unmapped or
/// split ranges), or one compiled outside a block: the address and profile
/// slot are still static; the memory system owns the cost and the traps.
void h_ldr_lit_dyn(BlockCtx& ctx, const MicroOp* u) {
  if (ctx.profile) ctx.counts[u->slot].add_load(4);
  if (ctx.observed) report_fetches(ctx, u);
  uint32_t v;
  if (!ctx.mem->try_load(u->aux, 4, v)) v = ctx.mem->load(u->aux, 4);
  ctx.regs[u->ins.rd] = v;
  SPMWCET_CHAIN;
}

void h_adr(BlockCtx& ctx, const MicroOp* u) {
  ctx.regs[u->ins.rd] = u->aux;
  SPMWCET_CHAIN;
}

void h_ldr_sp(BlockCtx& ctx, const MicroOp* u) {
  ctx.regs[u->ins.rd] = stack_load(ctx, u, *ctx.sp + u->aux);
  SPMWCET_CHAIN;
}
void h_str_sp(BlockCtx& ctx, const MicroOp* u) {
  stack_store(ctx, *u, *ctx.sp + u->aux, ctx.regs[u->ins.rd]);
  if (ctx.stop) [[unlikely]] {
    ctx.stopped_at = u;
    return;
  }
  SPMWCET_CHAIN;
}
void h_adjsp(BlockCtx& ctx, const MicroOp* u) {
  *ctx.sp += u->aux;
  SPMWCET_CHAIN;
}

void h_push(BlockCtx& ctx, const MicroOp* u) {
  const uint32_t n = isa::transfer_count(u->ins);
  *ctx.sp -= 4 * n;
  uint32_t addr = *ctx.sp;
  for (unsigned r = 0; r < 8; ++r)
    if (u->ins.imm & (1 << r)) {
      stack_store(ctx, *u, addr, ctx.regs[r]);
      addr += 4;
    }
  if (u->ins.sub) stack_store(ctx, *u, addr, *ctx.lr);
  if (ctx.stop) [[unlikely]] {
    ctx.stopped_at = u;
    return;
  }
  SPMWCET_CHAIN;
}

void h_pop(BlockCtx& ctx, const MicroOp* u) {
  uint32_t addr = *ctx.sp;
  for (unsigned r = 0; r < 8; ++r)
    if (u->ins.imm & (1 << r)) {
      ctx.regs[r] = stack_load(ctx, u, addr);
      addr += 4;
    }
  *ctx.sp = addr;
  SPMWCET_CHAIN;
}

/// POP {...,pc} — block terminator; the return penalty is entry-folded.
void h_pop_pc(BlockCtx& ctx, const MicroOp* u) {
  uint32_t addr = *ctx.sp;
  for (unsigned r = 0; r < 8; ++r)
    if (u->ins.imm & (1 << r)) {
      ctx.regs[r] = stack_load(ctx, u, addr);
      addr += 4;
    }
  ctx.next_pc = stack_load(ctx, u, addr);
  addr += 4;
  *ctx.sp = addr;
  SPMWCET_CHAIN;
}

/// BCC — block terminator; only the taken edge pays its penalty, so it
/// stays dynamic. aux is the precomputed target.
void h_bcc(BlockCtx& ctx, const MicroOp* u) {
  if (flags_cond_holds(*ctx.flags, static_cast<Cond>(u->ins.sub))) {
    ctx.next_pc = u->aux;
    ctx.mem->add_cycles(ExecTiming::taken_branch_penalty);
  }
  SPMWCET_CHAIN;
}

/// B — block terminator; target and penalty are static (penalty folded).
void h_b(BlockCtx& ctx, const MicroOp* u) {
  ctx.next_pc = u->aux;
  SPMWCET_CHAIN;
}

/// Fused BL pair — block terminator. Target, both fetches and the call
/// penalty are static; only the link-register write remains.
void h_bl(BlockCtx& ctx, const MicroOp* u) {
  *ctx.lr = u->iaddr + 4;
  ctx.next_pc = u->aux;
  SPMWCET_CHAIN;
}

void h_nop(BlockCtx& ctx, const MicroOp* u) { SPMWCET_CHAIN; }
void h_halt(BlockCtx& ctx, const MicroOp* u) {
  *ctx.halted = true;
  SPMWCET_CHAIN;
}
void h_out(BlockCtx& ctx, const MicroOp* u) {
  ctx.result->output.push_back(static_cast<int32_t>(ctx.regs[u->ins.rd]));
  SPMWCET_CHAIN;
}

#undef SPMWCET_CHAIN

// ---- compile-time handler selection ----------------------------------------

MicroHandler alu_handler(AluOp a) {
  static constexpr MicroHandler kHandlers[] = {
#define T16_ALU(op, mnemonic) &h_alu<AluOp::op>,
#include "isa/ops.def"
  };
  return kHandlers[static_cast<uint8_t>(a)];
}

MicroHandler shift_handler(isa::ShiftOp s) {
  static constexpr MicroHandler kHandlers[] = {
#define T16_SHIFT(op, mnemonic) &h_shifti<isa::ShiftOp::op>,
#include "isa/ops.def"
  };
  return kHandlers[static_cast<uint8_t>(s)];
}

/// Handler of a register-addressed load or store, by the table's width and
/// signedness.
template <bool Idx>
MicroHandler mem_handler(const Instr& ins) {
  const uint32_t bytes = isa::mem_access_bytes(ins);
  if (isa::is_store(ins))
    return bytes == 4   ? &h_store<4, Idx>
           : bytes == 2 ? &h_store<2, Idx>
                        : &h_store<1, Idx>;
  if (bytes == 4) return &h_load<4, false, Idx>;
  if (isa::sign_extends(ins))
    return bytes == 2 ? &h_load<2, true, Idx> : &h_load<1, true, Idx>;
  return bytes == 2 ? &h_load<2, false, Idx> : &h_load<1, false, Idx>;
}

/// Fetch cycles of one halfword in a span of class `cls` with no cache; a
/// cache corrects main-memory fetches as the block reports them
/// (MemorySystem::report_fetches).
constexpr uint32_t fetch_cost(MemClass cls) {
  return cls == MemClass::Scratchpad ? MemTiming::scratchpad()
                                     : MemTiming::main_memory(2);
}

/// Profile slot a static data address resolves to — the compile-time
/// evaluation of profile_access's slot logic.
uint32_t static_data_slot(const SymbolIndex& symbols, uint32_t addr,
                          uint32_t stack_lo, uint32_t stack_hi) {
  const int id = symbols.find_id(addr);
  if (id >= 0) return static_cast<uint32_t>(id);
  return addr >= stack_lo && addr < stack_hi ? symbols.stack_slot()
                                             : symbols.other_slot();
}

/// Memory class of [addr, addr+bytes) if the range lies wholly inside one
/// mapped region (then the flat map classifies it identically); nullopt
/// otherwise.
std::optional<MemClass> classify_static(const link::Image& img, uint32_t addr,
                                        uint32_t bytes) {
  const link::Region* r = img.regions.find(addr);
  if (r == nullptr || addr + bytes > r->hi || addr + bytes < addr)
    return std::nullopt;
  return link::mem_class(r->kind);
}

/// The op compiler behind build() and execute_one(): one decoded
/// instruction at `iaddr` (a fused BL pair when `ins` is a BL_HI, `second`
/// its BL_LO half) becomes one micro-op. static_cost gets the compute extra
/// and the static penalties, no fetch cycles (build() folds those; the
/// one-op path charged them through MemorySystem::fetch). LDR_LIT compiles
/// to the dynamic handler, which build() upgrades to a bound literal where
/// the region map allows. Returns whether the op ends a block.
bool compile_op(const Instr& ins, const Instr& second, uint32_t iaddr,
                const SymbolIndex& symbols, uint32_t stack_lo,
                uint32_t stack_hi, MicroOp& u) {
  u.ins = ins;
  u.iaddr = iaddr;
  uint32_t cost = ExecTiming::compute_extra(ins);
  bool ends = false;
  switch (ins.op) {
    case Op::MOVI:
      u.fn = &h_movi;
      u.aux = static_cast<uint32_t>(ins.imm);
      break;
    case Op::ADDI:
      u.fn = &h_addi;
      u.aux = static_cast<uint32_t>(ins.imm);
      break;
    case Op::SUBI:
      u.fn = &h_subi;
      u.aux = static_cast<uint32_t>(ins.imm);
      break;
    case Op::CMPI:
      u.fn = &h_cmpi;
      u.aux = static_cast<uint32_t>(ins.imm);
      break;
    case Op::ALU:
      u.fn = alu_handler(static_cast<AluOp>(ins.sub));
      break;
    case Op::ADD3: u.fn = &h_add3; break;
    case Op::SUB3: u.fn = &h_sub3; break;
    case Op::ADDI3:
      u.fn = &h_addi3;
      u.aux = static_cast<uint32_t>(ins.imm);
      break;
    case Op::SUBI3:
      u.fn = &h_subi3;
      u.aux = static_cast<uint32_t>(ins.imm);
      break;
    case Op::SHIFTI:
      u.fn = shift_handler(static_cast<isa::ShiftOp>(ins.sub));
      u.aux = static_cast<uint32_t>(ins.imm);
      break;
    case Op::LDR_LIT:
      u.fn = &h_ldr_lit_dyn;
      u.aux = isa::lit_address(iaddr, ins);
      u.slot = static_data_slot(symbols, u.aux, stack_lo, stack_hi);
      break;
    case Op::ADR:
      u.fn = &h_adr;
      u.aux = isa::lit_address(iaddr, ins);
      break;
    case Op::LDR_SP:
      u.fn = &h_ldr_sp;
      u.aux = static_cast<uint32_t>(isa::scaled_imm(ins));
      break;
    case Op::STR_SP:
      u.fn = &h_str_sp;
      u.aux = static_cast<uint32_t>(isa::scaled_imm(ins));
      break;
    case Op::ADJSP:
      u.fn = &h_adjsp;
      u.aux = static_cast<uint32_t>(ins.sub ? -isa::scaled_imm(ins)
                                            : isa::scaled_imm(ins));
      break;
    case Op::PUSH: u.fn = &h_push; break;
    case Op::POP:
      if (ins.sub) {
        u.fn = &h_pop_pc;
        cost += ExecTiming::return_penalty;
        ends = true;
      } else {
        u.fn = &h_pop;
      }
      break;
    case Op::BCC:
      u.fn = &h_bcc;
      u.aux = isa::branch_target(iaddr, ins.imm);
      ends = true;
      break;
    case Op::B:
      u.fn = &h_b;
      u.aux = isa::branch_target(iaddr, ins.imm);
      cost += ExecTiming::taken_branch_penalty;
      ends = true;
      break;
    case Op::BL_HI:
      u.fn = &h_bl;
      u.aux = isa::branch_target(iaddr, isa::decode_bl(ins, second));
      cost += ExecTiming::call_penalty;
      u.units = 2;
      ends = true;
      break;
    case Op::BL_LO:
      // Unreachable: callers trap or end the block at a bare BL_LO, and
      // the fused BL consumes paired ones.
      SPMWCET_CHECK(false);
      break;
    case Op::SYS:
      switch (static_cast<isa::SysFn>(ins.sub)) {
        case isa::SysFn::NOP: u.fn = &h_nop; break;
        case isa::SysFn::HALT:
          u.fn = &h_halt;
          ends = true;
          break;
        case isa::SysFn::OUT: u.fn = &h_out; break;
      }
      break;
    default: {
      // Register-addressed loads and stores: width, signedness and the
      // scaled offset come from the table.
      const isa::Addr addr = isa::info(ins.op).addr;
      SPMWCET_CHECK(addr == isa::Addr::Reg || addr == isa::Addr::Idx);
      u.fn = addr == isa::Addr::Idx ? mem_handler<true>(ins)
                                    : mem_handler<false>(ins);
      u.aux = static_cast<uint32_t>(isa::scaled_imm(ins));
      break;
    }
  }
  u.static_cost = static_cast<uint8_t>(cost);
  return ends;
}

} // namespace

BlockTable::BlockTable(const program::DecodedImage& dec,
                       const SymbolIndex& symbols, const link::Image& img) {
  build(dec, symbols, img);
}

void BlockTable::build(const program::DecodedImage& dec,
                       const SymbolIndex& symbols, const link::Image& img) {
  const auto& spans = dec.spans();
  const uint32_t stack_hi = img.initial_sp;
  const uint32_t stack_lo = img.initial_sp - kStackWindowBytes;

  // Pass 1: mark block boundaries ("leaders"): every static branch/call
  // target and every post-terminator fall-through. Blocks never extend
  // through a leader, so every reachable jump target starts a block.
  std::vector<std::vector<uint8_t>> leader(spans.size());
  for (std::size_t si = 0; si < spans.size(); ++si)
    leader[si].assign(spans[si].ops.size(), 0);

  const auto mark = [&](uint32_t addr) {
    if ((addr & 1u) != 0) return;
    for (std::size_t si = 0; si < spans.size(); ++si) {
      const uint32_t off = addr - spans[si].lo; // wraps for addr < lo
      if (off < spans[si].len) {
        leader[si][off >> 1] = 1;
        return;
      }
    }
  };
  mark(img.entry);

  for (std::size_t si = 0; si < spans.size(); ++si) {
    const auto& s = spans[si];
    const std::size_t n = s.ops.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (!s.valid[i]) continue;
      const Instr& ins = s.ops[i];
      const uint32_t iaddr = s.lo + static_cast<uint32_t>(i) * 2;
      if (ins.op == Op::BCC || ins.op == Op::B) {
        mark(isa::branch_target(iaddr, ins.imm));
        if (i + 1 < n) leader[si][i + 1] = 1;
      } else if (ins.op == Op::BL_HI) {
        if (i + 1 < n && s.valid[i + 1] && s.ops[i + 1].op == Op::BL_LO)
          mark(isa::branch_target(iaddr, isa::decode_bl(ins, s.ops[i + 1])));
        if (i + 2 < n) leader[si][i + 2] = 1; // return address
      } else if (isa::is_return(ins) || isa::is_halt(ins)) {
        if (i + 1 < n) leader[si][i + 1] = 1;
      }
    }
  }

  // Pass 2: compile every span into back-to-back blocks. Each block is a
  // run of valid halfwords ending at the first terminator (BCC, B, fused
  // BL, POP{pc}, HALT), decode gap, leader, op-count cap, or span end.
  std::size_t total_halfwords = 0;
  for (const auto& s : spans) total_halfwords += s.ops.size();
  micro_.reserve(total_halfwords + total_halfwords / 2); // ops + sentinels

  for (std::size_t si = 0; si < spans.size(); ++si) {
    const auto& s = spans[si];
    const std::size_t n = s.ops.size();
    SpanIdx idx;
    idx.lo = s.lo;
    idx.len = s.len;
    idx.block_at.assign(n, -1);

    // Fetch-slot cursor: instruction addresses ascend within a span, so
    // one fetch_slot_span lookup serves a whole symbol/gap run instead of
    // one binary search per instruction (call-heavy images have large
    // symbol tables, and construction is charged to every simulation).
    uint32_t fs_lo = 0, fs_hi = 0, fs_slot = 0; // empty window: miss first
    const auto slot_at = [&](uint32_t addr) {
      if (addr - fs_lo >= fs_hi - fs_lo)
        fs_slot = symbols.fetch_slot_span(addr, fs_lo, fs_hi);
      return fs_slot;
    };

    std::size_t i = 0;
    while (i < n) {
      if (!s.valid[i] || s.ops[i].op == Op::BL_LO) {
        // Gaps (literal pools, padding) and bare BL_LO halves never start
        // a block; the one-op fallback runs them.
        ++i;
        continue;
      }

      Block b;
      b.lo = s.lo + static_cast<uint32_t>(i) * 2;
      b.first_op = static_cast<uint32_t>(micro_.size());
      // SPM code's fetches bypass every cache.
      b.main_code = s.cls != MemClass::Scratchpad;
      uint32_t seg_lo = b.lo, runs = 0; // fetch_runs' cuts, for fetch_end
      // Per-slot fetch counts, accumulated flat: a block has at most
      // kMaxBlockOps ops plus one extra fetch (the fused BL's second
      // halfword), so a stack array with a last-entry fast path (runs of
      // one function dominate) beats a node-allocating map.
      SlotCount fold[MicroOp::kMaxBlockOps + 1];
      uint32_t fold_n = 0;
      const auto fold_add = [&](uint32_t slot) {
        if (fold_n > 0 && fold[fold_n - 1].slot == slot) {
          ++fold[fold_n - 1].count;
          return;
        }
        for (uint32_t k = 0; k + 1 < fold_n; ++k)
          if (fold[k].slot == slot) {
            ++fold[k].count;
            return;
          }
        fold[fold_n++] = SlotCount{slot, 1};
      };

      std::size_t j = i;
      bool terminated = false;
      while (j < n && !terminated) {
        const Instr& ins = s.ops[j];
        const uint32_t iaddr = s.lo + static_cast<uint32_t>(j) * 2;
        if ((ins.op == Op::BL_HI &&
             !(j + 1 < n && s.valid[j + 1] && s.ops[j + 1].op == Op::BL_LO)) ||
            ins.op == Op::BL_LO) {
          // Unfusable BL or stray BL_LO: end the block before it; the
          // one-op fallback raises its trap.
          break;
        }

        MicroOp u;
        terminated =
            compile_op(ins, ins.op == Op::BL_HI ? s.ops[j + 1] : Instr{},
                       iaddr, symbols, stack_lo, stack_hi, u);
        u.fetch_slot = slot_at(iaddr);
        fold_add(u.fetch_slot);
        if (u.units == 2) {
          u.fetch_slot2 = slot_at(iaddr + 2);
          fold_add(u.fetch_slot2);
        }
        u.static_cost =
            static_cast<uint8_t>(u.static_cost + fetch_cost(s.cls) * u.units);
        if (b.main_code && (isa::is_load(ins) || ins.op == Op::POP)) {
          const uint32_t end = iaddr + 2u * u.units;
          runs += (end - 1) / FetchRun::kLineBytes -
                  seg_lo / FetchRun::kLineBytes + 1;
          seg_lo = end;
          SPMWCET_CHECK(runs <= UINT8_MAX);
          u.fetch_end = static_cast<uint8_t>(runs);
        }
        if (u.fn == &h_ldr_lit_dyn) {
          const auto cls = classify_static(img, u.aux, 4);
          if (cls && (u.aux & 3u) == 0) {
            u.fn = &h_ldr_lit;
            u.aux2 = static_cast<uint32_t>(lits_.size());
            u.cost = static_cast<uint8_t>(MemTiming::uncached(*cls, 4));
            lits_.push_back(LitRef{u.aux, 4});
          }
        }
        b.static_cycles += u.static_cost;
        b.instr_count += u.units;
        micro_.push_back(u);
        j += ins.op == Op::BL_HI ? 2 : 1;
        if (!terminated &&
            (j >= n || !s.valid[j] || leader[si][j] ||
             micro_.size() - b.first_op >= MicroOp::kMaxBlockOps))
          break;
      }

      if (micro_.size() == b.first_op) {
        // Empty block (leader on an unfusable BL_HI or stray BL_LO): no
        // entry; the dispatch loop falls back to the one-op path here.
        ++i;
        continue;
      }
      b.hi = s.lo + static_cast<uint32_t>(j) * 2;
      b.op_count = static_cast<uint32_t>(micro_.size()) - b.first_op;
      MicroOp end;
      end.fn = &h_end;
      micro_.push_back(end);
      b.fold_first = static_cast<uint32_t>(folds_.size());
      folds_.insert(folds_.end(), fold, fold + fold_n);
      b.fold_count = fold_n;
      idx.block_at[i] = static_cast<int32_t>(blocks_.size());
      blocks_.push_back(b);
      i = j;
    }
    span_idx_.push_back(std::move(idx));
  }
}

void BlockTable::fetch_runs(std::vector<FetchRun>& runs,
                            std::vector<uint32_t>& first) const {
  runs.clear();
  first.assign(1, 0);
  for (const Block& b : blocks_) {
    uint32_t lo = b.lo;
    const auto cut_segment = [&](uint32_t end) {
      for (; lo < end;) {
        const uint32_t line = lo / FetchRun::kLineBytes;
        const uint32_t stop =
            std::min<uint32_t>(end, (line + 1) * FetchRun::kLineBytes);
        runs.push_back(
            FetchRun{line, static_cast<uint16_t>(lo % FetchRun::kLineBytes),
                     static_cast<uint16_t>((stop - lo) / 2)});
        lo = stop;
      }
    };
    if (b.main_code) {
      const MicroOp* u = micro_.data() + b.first_op;
      for (const MicroOp* end = u + b.op_count; u != end; ++u)
        if (u->fetch_end != 0) cut_segment(u->iaddr + 2u * u->units);
      cut_segment(b.hi);
    }
    first.push_back(static_cast<uint32_t>(runs.size()));
  }
}

uint32_t BlockTable::execute(int index, BlockCtx& ctx) const {
  const Block& b = blocks_[static_cast<size_t>(index)];
  // Entry-folded accounting: one cycle add and one fetch-count add per
  // profile slot for the whole block, instead of per instruction.
  ctx.mem->add_cycles(b.static_cycles);
  if (ctx.profile) {
    const SlotCount* f = folds_.data() + b.fold_first;
    for (uint32_t k = 0; k < b.fold_count; ++k)
      ctx.counts[f[k].slot].fetch += f[k].count;
  }
  ctx.next_pc = b.hi; // fall-through default; terminators overwrite
  ctx.stop = false;
  ctx.cur_lo = b.lo;
  ctx.cur_hi = b.hi;
  if (ctx.observed) [[unlikely]] {
    ctx.fetch_runs = ctx.runs + ctx.run_first[index];
    ctx.fetch_done = 0;
  }

  const MicroOp* ops = micro_.data() + b.first_op;
  ops[0].fn(ctx, ops); // threaded chain; returns at h_end or an abort
  if (!ctx.stop) [[likely]] {
    if (ctx.observed) [[unlikely]]
      ctx.mem->report_fetches(ctx.fetch_runs + ctx.fetch_done,
                              ctx.runs + ctx.run_first[index + 1]);
    return b.instr_count;
  }

  // A store into this block: roll back the entry-folded accounting of the
  // unexecuted suffix; execution resumes at ctx.next_pc, through the
  // one-op fallback now that the block is invalid.
  const uint32_t k = static_cast<uint32_t>(ctx.stopped_at - ops);
  if (ctx.observed) {
    // Report the fetches through the aborting store's halfword; stores cut
    // no segment, so the last run may end part-way.
    const uint32_t end = ctx.stopped_at->iaddr + 2;
    const FetchRun* last = ctx.runs + ctx.run_first[index + 1];
    for (const FetchRun* r = ctx.fetch_runs + ctx.fetch_done; r != last; ++r) {
      FetchRun run = *r;
      if (run.lo() >= end) break;
      run.halfwords = static_cast<uint16_t>(
          std::min<uint32_t>(run.halfwords, (end - run.lo()) / 2));
      ctx.mem->report_fetches(&run, &run + 1);
    }
  }
  uint32_t executed = 0;
  for (uint32_t m = 0; m <= k; ++m) executed += ops[m].units;
  uint64_t cycles = 0;
  for (uint32_t m = k + 1; m < b.op_count; ++m) {
    cycles += ops[m].static_cost;
    if (ctx.profile) {
      --ctx.counts[ops[m].fetch_slot].fetch;
      if (ops[m].fetch_slot2 != MicroOp::kNoSlot)
        --ctx.counts[ops[m].fetch_slot2].fetch;
    }
  }
  ctx.mem->unwind_cycles(cycles);
  return executed;
}

uint32_t BlockTable::execute_one(const Instr& ins, const Instr& second,
                                 uint32_t iaddr, BlockCtx& ctx) const {
  MicroOp ops[2]; // the op and its h_end sentinel
  compile_op(ins, second, iaddr, *ctx.symbols, ctx.stack_lo, ctx.stack_hi,
             ops[0]);
  ops[1].fn = &h_end;
  ctx.mem->add_cycles(ops[0].static_cost);
  ctx.next_pc = iaddr + 2u * ops[0].units;
  ctx.fetch_done = 0; // no runs: the caller charged the fetches
  ctx.stop = false;
  ctx.cur_lo = ctx.cur_hi = 0; // no compiled block to abort
  ops[0].fn(ctx, ops);
  return ops[0].units;
}

void BlockTable::invalidate_overlapping(uint32_t addr, uint32_t bytes,
                                        BlockRun& run) const {
  // Blocks are sorted by lo and disjoint: the candidates are the last
  // block starting at or before addr plus every block starting inside the
  // stored range.
  std::size_t i = static_cast<std::size_t>(
      std::upper_bound(blocks_.begin(), blocks_.end(), addr,
                       [](uint32_t a, const Block& b) { return a < b.lo; }) -
      blocks_.begin());
  if (i > 0 && blocks_[i - 1].hi > addr) run.invalidate(i - 1);
  for (; i < blocks_.size() && blocks_[i].lo < addr + bytes; ++i)
    run.invalidate(i);
}

void BlockTable::bind_literals(const MemorySystem& mem,
                               std::vector<const uint8_t*>& out) const {
  out.assign(lits_.size(), nullptr);
  for (std::size_t i = 0; i < lits_.size(); ++i) {
    MemClass cls;
    out[i] = mem.flat_ptr(lits_[i].addr, lits_[i].bytes, cls);
  }
}

} // namespace spmwcet::sim
