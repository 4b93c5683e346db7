#include "sim/block_table.h"

#include <optional>

#include "isa/decode.h"
#include "sim/memory_system.h"
#include "sim/predecode.h"
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
// Each helper replicates one leg of Simulator::step()'s timed_load /
// timed_store lambdas exactly: profile first (interned slot resolution),
// then the memory-system access (the inline try_* fast path, else the
// out-of-line call that owns the exact trap messages), then for stores the
// predecode refresh + block invalidation.

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

/// Reports the executing block's fetches through the halfword at `through`
/// to the reuse observer, so every load follows its own op's fetch.
inline void report_fetches(BlockCtx& ctx, uint32_t through) {
  if (through >= ctx.fetch_next) {
    ctx.reuse->fetch_run(ctx.fetch_next, through + 2);
    ctx.fetch_next = through + 2;
  }
}

template <uint32_t Bytes, bool Sign>
inline uint32_t timed_load(BlockCtx& ctx, const MicroOp* u, uint32_t addr) {
  if (ctx.profile) profile_access(ctx, addr, Bytes, /*is_store=*/false);
  uint32_t v;
  if (!ctx.mem->try_load(addr, Bytes, v)) {
    // Observed reads always take this path (try_load declines them).
    if (ctx.reuse != nullptr) report_fetches(ctx, u->iaddr);
    v = ctx.mem->load(addr, Bytes);
  }
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
  if (ctx.code->covers(addr, Bytes)) [[unlikely]] {
    // Self-modifying store: keep the predecode table coherent (the PR 3
    // hook) and retire every compiled block the store overlaps. If it hit
    // the block being executed, finish this micro-op (a PUSH's remaining
    // stores must still happen — the instruction is atomic) and abort the
    // block; the interpreter resumes at the next instruction.
    ctx.code->refresh(addr, Bytes, *ctx.mem);
    ctx.table->invalidate_overlapping(addr, Bytes, *ctx.run);
    if (addr < ctx.cur_hi && addr + Bytes > ctx.cur_lo) {
      ctx.stop = true;
      ctx.next_pc = u.iaddr + 2;
    }
  }
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

template <uint32_t Bytes, bool Sign>
void h_load(BlockCtx& ctx, const MicroOp* u) {
  ctx.regs[u->ins.rd] =
      timed_load<Bytes, Sign>(ctx, u, ctx.regs[u->ins.rn] + u->aux);
  SPMWCET_CHAIN;
}
template <uint32_t Bytes>
void h_store(BlockCtx& ctx, const MicroOp* u) {
  timed_store<Bytes>(ctx, *u, ctx.regs[u->ins.rn] + u->aux,
                     ctx.regs[u->ins.rd]);
  if (ctx.stop) [[unlikely]] {
    ctx.stopped_at = u;
    return;
  }
  SPMWCET_CHAIN;
}

template <uint32_t Bytes, bool Sign>
void h_ldx(BlockCtx& ctx, const MicroOp* u) {
  ctx.regs[u->ins.rd] =
      timed_load<Bytes, Sign>(ctx, u, ctx.regs[u->ins.rn] + ctx.regs[u->ins.rm]);
  SPMWCET_CHAIN;
}
template <uint32_t Bytes>
void h_stx(BlockCtx& ctx, const MicroOp* u) {
  timed_store<Bytes>(ctx, *u, ctx.regs[u->ins.rn] + ctx.regs[u->ins.rm],
                     ctx.regs[u->ins.rd]);
  if (ctx.stop) [[unlikely]] {
    ctx.stopped_at = u;
    return;
  }
  SPMWCET_CHAIN;
}

/// LDR_LIT whose target was pre-classified: cost and profile slot are
/// static, the pointer was bound once per simulator — no translation, no
/// symbol search. Falls back to the ordinary timed load when binding
/// failed (exotic images, or reads observed).
void h_ldr_lit(BlockCtx& ctx, const MicroOp* u) {
  const uint8_t* p = ctx.lit_ptrs[u->aux2];
  if (p != nullptr) [[likely]] {
    ctx.mem->add_cycles(u->cost);
    if (ctx.profile) ctx.counts[u->slot].add_load(4);
    ctx.regs[u->ins.rd] =
        static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
        (static_cast<uint32_t>(p[2]) << 16) |
        (static_cast<uint32_t>(p[3]) << 24);
    SPMWCET_CHAIN;
  }
  if (ctx.profile) ctx.counts[u->slot].add_load(4);
  if (ctx.reuse != nullptr) report_fetches(ctx, u->iaddr);
  ctx.regs[u->ins.rd] = ctx.mem->load(u->aux, 4);
  SPMWCET_CHAIN;
}

/// LDR_LIT whose target the region map could not classify (unmapped or
/// split ranges): the address and profile slot are still static; the
/// memory system reproduces the exact legacy cost/trap behavior.
void h_ldr_lit_dyn(BlockCtx& ctx, const MicroOp* u) {
  if (ctx.profile) ctx.counts[u->slot].add_load(4);
  uint32_t v;
  if (!ctx.mem->try_load(u->aux, 4, v)) {
    if (ctx.reuse != nullptr) report_fetches(ctx, u->iaddr);
    v = ctx.mem->load(u->aux, 4);
  }
  ctx.regs[u->ins.rd] = v;
  SPMWCET_CHAIN;
}

void h_adr(BlockCtx& ctx, const MicroOp* u) {
  ctx.regs[u->ins.rd] = u->aux;
  SPMWCET_CHAIN;
}

void h_ldr_sp(BlockCtx& ctx, const MicroOp* u) {
  ctx.regs[u->ins.rd] = timed_load<4, false>(ctx, u, *ctx.sp + u->aux);
  SPMWCET_CHAIN;
}
void h_str_sp(BlockCtx& ctx, const MicroOp* u) {
  timed_store<4>(ctx, *u, *ctx.sp + u->aux, ctx.regs[u->ins.rd]);
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
      timed_store<4>(ctx, *u, addr, ctx.regs[r]);
      addr += 4;
    }
  if (u->ins.sub) timed_store<4>(ctx, *u, addr, *ctx.lr);
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
      ctx.regs[r] = timed_load<4, false>(ctx, u, addr);
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
      ctx.regs[r] = timed_load<4, false>(ctx, u, addr);
      addr += 4;
    }
  ctx.next_pc = timed_load<4, false>(ctx, u, addr);
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
  switch (a) {
    case AluOp::ADD: return &h_alu<AluOp::ADD>;
    case AluOp::SUB: return &h_alu<AluOp::SUB>;
    case AluOp::AND: return &h_alu<AluOp::AND>;
    case AluOp::ORR: return &h_alu<AluOp::ORR>;
    case AluOp::EOR: return &h_alu<AluOp::EOR>;
    case AluOp::LSL: return &h_alu<AluOp::LSL>;
    case AluOp::LSR: return &h_alu<AluOp::LSR>;
    case AluOp::ASR: return &h_alu<AluOp::ASR>;
    case AluOp::MUL: return &h_alu<AluOp::MUL>;
    case AluOp::CMP: return &h_alu<AluOp::CMP>;
    case AluOp::MOV: return &h_alu<AluOp::MOV>;
    case AluOp::NEG: return &h_alu<AluOp::NEG>;
    case AluOp::MVN: return &h_alu<AluOp::MVN>;
    case AluOp::SDIV: return &h_alu<AluOp::SDIV>;
    case AluOp::UDIV: return &h_alu<AluOp::UDIV>;
  }
  return nullptr;
}

/// Fetch cycles of one halfword in a span of class `cls` — what
/// MemorySystem::count_fetch charges with no cache configured (the tier is
/// disabled under a functional cache).
constexpr uint32_t fetch_cost(MemClass cls) {
  return cls == MemClass::Scratchpad ? MemTiming::scratchpad()
                                     : MemTiming::main_memory(2);
}

/// Profile slot a static data address resolves to — the compile-time
/// evaluation of Simulator::profile_data_interned's slot logic.
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

} // namespace

BlockTable::BlockTable(const program::DecodedImage& dec,
                       const SymbolIndex& symbols, const link::Image& img) {
  build(dec, symbols, img);
}

void BlockTable::build(const program::DecodedImage& dec,
                       const SymbolIndex& symbols, const link::Image& img) {
  const auto& spans = dec.spans();
  const uint32_t stack_hi = img.initial_sp;
  // Same stack window as the simulator's interned profiling
  // (kStackWindowBytes in simulator.cpp).
  const uint32_t stack_lo = img.initial_sp - 0x10000;

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
        // a block; the interpreter reproduces their traps.
        ++i;
        continue;
      }

      Block b;
      b.lo = s.lo + static_cast<uint32_t>(i) * 2;
      b.first_op = static_cast<uint32_t>(micro_.size());
      b.main_code = s.cls != MemClass::Scratchpad;
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
        if (ins.op == Op::BL_HI &&
            !(j + 1 < n && s.valid[j + 1] && s.ops[j + 1].op == Op::BL_LO)) {
          // Unfusable BL: end the block before it so the interpreter
          // raises "BL_HI not followed by BL_LO" exactly.
          break;
        }
        if (ins.op == Op::BL_LO) {
          // Stray BL_LO (no preceding BL_HI): end the block before it so
          // the interpreter raises "stray BL_LO executed" exactly.
          break;
        }

        MicroOp u;
        u.ins = ins;
        u.iaddr = iaddr;
        u.fetch_slot = slot_at(iaddr);
        uint32_t cost = fetch_cost(s.cls) + ExecTiming::compute_extra(ins);
        fold_add(u.fetch_slot);

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
            switch (static_cast<isa::ShiftOp>(ins.sub)) {
              case isa::ShiftOp::LSL: u.fn = &h_shifti<isa::ShiftOp::LSL>; break;
              case isa::ShiftOp::LSR: u.fn = &h_shifti<isa::ShiftOp::LSR>; break;
              case isa::ShiftOp::ASR: u.fn = &h_shifti<isa::ShiftOp::ASR>; break;
            }
            u.aux = static_cast<uint32_t>(ins.imm);
            break;
          case Op::LDR:
            u.fn = &h_load<4, false>;
            u.aux = static_cast<uint32_t>(ins.imm) * 4;
            break;
          case Op::STR:
            u.fn = &h_store<4>;
            u.aux = static_cast<uint32_t>(ins.imm) * 4;
            break;
          case Op::LDRH:
            u.fn = &h_load<2, false>;
            u.aux = static_cast<uint32_t>(ins.imm) * 2;
            break;
          case Op::STRH:
            u.fn = &h_store<2>;
            u.aux = static_cast<uint32_t>(ins.imm) * 2;
            break;
          case Op::LDRB:
            u.fn = &h_load<1, false>;
            u.aux = static_cast<uint32_t>(ins.imm);
            break;
          case Op::STRB:
            u.fn = &h_store<1>;
            u.aux = static_cast<uint32_t>(ins.imm);
            break;
          case Op::LDRSH:
            u.fn = &h_load<2, true>;
            u.aux = static_cast<uint32_t>(ins.imm) * 2;
            break;
          case Op::LDRSB:
            u.fn = &h_load<1, true>;
            u.aux = static_cast<uint32_t>(ins.imm);
            break;
          case Op::LDR_LIT: {
            const uint32_t addr =
                isa::lit_base(iaddr) + static_cast<uint32_t>(ins.imm) * 4;
            u.aux = addr;
            u.slot = static_data_slot(symbols, addr, stack_lo, stack_hi);
            const auto cls = classify_static(img, addr, 4);
            if (cls && (addr & 3u) == 0) {
              u.fn = &h_ldr_lit;
              u.aux2 = static_cast<uint32_t>(lits_.size());
              u.cost = static_cast<uint8_t>(MemTiming::uncached(*cls, 4));
              lits_.push_back(LitRef{addr, 4});
            } else {
              u.fn = &h_ldr_lit_dyn;
            }
            break;
          }
          case Op::ADR:
            u.fn = &h_adr;
            u.aux = isa::lit_base(iaddr) + static_cast<uint32_t>(ins.imm) * 4;
            break;
          case Op::LDR_SP:
            u.fn = &h_ldr_sp;
            u.aux = static_cast<uint32_t>(ins.imm) * 4;
            break;
          case Op::STR_SP:
            u.fn = &h_str_sp;
            u.aux = static_cast<uint32_t>(ins.imm) * 4;
            break;
          case Op::ADJSP:
            u.fn = &h_adjsp;
            u.aux = ins.sub ? 0u - static_cast<uint32_t>(ins.imm) * 4
                            : static_cast<uint32_t>(ins.imm) * 4;
            break;
          case Op::PUSH: u.fn = &h_push; break;
          case Op::POP:
            if (ins.sub) {
              u.fn = &h_pop_pc;
              cost += ExecTiming::return_penalty;
              terminated = true;
            } else {
              u.fn = &h_pop;
            }
            break;
          case Op::BCC:
            u.fn = &h_bcc;
            u.aux = isa::branch_target(iaddr, ins.imm);
            terminated = true;
            break;
          case Op::B:
            u.fn = &h_b;
            u.aux = isa::branch_target(iaddr, ins.imm);
            cost += ExecTiming::taken_branch_penalty;
            terminated = true;
            break;
          case Op::BL_HI: {
            u.fn = &h_bl;
            u.aux =
                isa::branch_target(iaddr, isa::decode_bl(ins, s.ops[j + 1]));
            u.fetch_slot2 = slot_at(iaddr + 2);
            fold_add(u.fetch_slot2);
            cost += fetch_cost(s.cls) + ExecTiming::call_penalty;
            u.units = 2;
            terminated = true;
            break;
          }
          case Op::BL_LO:
            // Unreachable: stray BL_LO halves end the block above and the
            // fused BL consumes paired ones.
            SPMWCET_CHECK(false);
            break;
          case Op::LDX:
            switch (static_cast<isa::LdxOp>(ins.sub)) {
              case isa::LdxOp::W: u.fn = &h_ldx<4, false>; break;
              case isa::LdxOp::H: u.fn = &h_ldx<2, false>; break;
              case isa::LdxOp::B: u.fn = &h_ldx<1, false>; break;
              case isa::LdxOp::SH: u.fn = &h_ldx<2, true>; break;
            }
            break;
          case Op::STX:
            switch (static_cast<isa::StxOp>(ins.sub)) {
              case isa::StxOp::W: u.fn = &h_stx<4>; break;
              case isa::StxOp::H: u.fn = &h_stx<2>; break;
              case isa::StxOp::B: u.fn = &h_stx<1>; break;
            }
            break;
          case Op::SYS:
            switch (static_cast<isa::SysFn>(ins.sub)) {
              case isa::SysFn::NOP: u.fn = &h_nop; break;
              case isa::SysFn::HALT:
                u.fn = &h_halt;
                terminated = true;
                break;
              case isa::SysFn::OUT: u.fn = &h_out; break;
            }
            break;
        }

        u.static_cost = static_cast<uint8_t>(cost);
        b.static_cycles += cost;
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
        // entry; the dispatch loop falls back to the interpreter here.
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
      compiled_instructions_ += b.instr_count;
      idx.block_at[i] = static_cast<int32_t>(blocks_.size());
      blocks_.push_back(b);
      i = j;
    }
    span_idx_.push_back(std::move(idx));
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
  // Scratchpad fetches bypass the cache: start past the block's end.
  if (ctx.reuse != nullptr) [[unlikely]]
    ctx.fetch_next = b.main_code ? b.lo : b.hi;

  const MicroOp* ops = micro_.data() + b.first_op;
  ops[0].fn(ctx, ops); // threaded chain; returns at h_end or an abort
  if (!ctx.stop) [[likely]] {
    if (ctx.reuse != nullptr) [[unlikely]] report_fetches(ctx, b.hi - 2);
    return b.instr_count;
  }

  // A store into this block: roll back the entry-folded accounting of the
  // unexecuted suffix, then let the interpreter resume at ctx.next_pc
  // against the refreshed predecode table.
  const uint32_t k = static_cast<uint32_t>(ctx.stopped_at - ops);
  if (ctx.reuse != nullptr) report_fetches(ctx, ctx.stopped_at->iaddr);
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
