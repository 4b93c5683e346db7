#include "wcet/loop_bounds.h"

#include <algorithm>
#include <optional>

#include "isa/decode.h"

namespace spmwcet::wcet {

using isa::AluOp;
using isa::Cond;
using isa::Instr;
using isa::Op;

namespace {

/// Scans backwards from instruction index `from` (exclusive) in `b` for the
/// constant definition of register `reg`: MOVI, LDR_LIT (pool constant),
/// or NEG of a constant-defined register.
std::optional<int64_t> const_def(const link::Image& img, const BasicBlock& b,
                                 std::size_t from, isa::Reg reg,
                                 int depth = 2) {
  if (depth == 0) return std::nullopt;
  for (std::size_t i = from; i-- > 0;) {
    const CfgInstr& ci = b.instrs[i];
    const Instr& ins = ci.ins;
    if (ins.op == Op::MOVI && ins.rd == reg) return ins.imm;
    if (ins.op == Op::LDR_LIT && ins.rd == reg) {
      return static_cast<int32_t>(img.read32(isa::lit_address(ci.addr, ins)));
    }
    if (ins.op == Op::ALU && static_cast<AluOp>(ins.sub) == AluOp::NEG &&
        ins.rd == reg) {
      const auto inner = const_def(img, b, i, ins.rm, depth - 1);
      if (inner) return -*inner;
      return std::nullopt;
    }
    // Any other write to `reg` defeats the pattern.
    const bool writes =
        (isa::is_load(ins) && ins.rd == reg) ||
        ((ins.op == Op::MOVI || ins.op == Op::ADDI || ins.op == Op::SUBI ||
          ins.op == Op::ALU || ins.op == Op::ADD3 || ins.op == Op::SUB3 ||
          ins.op == Op::ADDI3 || ins.op == Op::SUBI3 ||
          ins.op == Op::SHIFTI || ins.op == Op::ADR) &&
         ins.rd == reg);
    if (writes) return std::nullopt;
  }
  return std::nullopt;
}

struct HeaderPattern {
  int32_t slot = -1;
  int64_t limit = 0;
  Cond exit_cond = Cond::GE;
};

/// Matches the header: ldr rX,[sp,#slot] ... (const into rY) ... cmp rX,rY ;
/// bcc <cond>. Returns the exit condition in terms of "loop exits when
/// var <cond> limit holds".
std::optional<HeaderPattern> match_header(const link::Image& img,
                                          const Cfg& cfg, const BasicBlock& b,
                                          const Loop& loop) {
  if (b.instrs.size() < 3) return std::nullopt;
  const CfgInstr& term = b.instrs.back();
  if (term.ins.op != Op::BCC) return std::nullopt;

  // Find the CMP immediately before the branch.
  const std::size_t cmp_idx = b.instrs.size() - 2;
  const Instr& cmp = b.instrs[cmp_idx].ins;
  if (!(cmp.op == Op::ALU && static_cast<AluOp>(cmp.sub) == AluOp::CMP))
    return std::nullopt;

  // First operand must come from a stack slot load in this block.
  int32_t slot = -1;
  for (std::size_t i = cmp_idx; i-- > 0;) {
    const Instr& ins = b.instrs[i].ins;
    if (ins.op == Op::LDR_SP && ins.rd == cmp.rd) {
      slot = ins.imm;
      break;
    }
    if (ins.rd == cmp.rd) return std::nullopt; // redefined by something else
  }
  if (slot < 0) return std::nullopt;

  const auto limit = const_def(img, b, cmp_idx, cmp.rm);
  if (!limit) return std::nullopt;

  // Which edge leaves the loop?
  Cond cond = static_cast<Cond>(term.ins.sub);
  bool taken_exits = false;
  for (const int e : b.out_edges) {
    const CfgEdge& edge = cfg.edges[static_cast<std::size_t>(e)];
    const bool in_body = std::binary_search(loop.body.begin(), loop.body.end(),
                                            edge.to);
    if (edge.kind == EdgeKind::Taken) taken_exits = !in_body;
  }
  const Cond exit_cond = taken_exits ? cond : isa::negate(cond);
  return HeaderPattern{slot, *limit, exit_cond};
}

/// Matches the increment in a back-edge source block:
/// ldr r,[sp,#slot] ; addi/subi r,#k ; str r,[sp,#slot].
std::optional<int64_t> match_increment(const BasicBlock& b, int32_t slot) {
  for (std::size_t i = 0; i + 2 < b.instrs.size(); ++i) {
    const Instr& a = b.instrs[i].ins;
    const Instr& m = b.instrs[i + 1].ins;
    const Instr& s = b.instrs[i + 2].ins;
    if (a.op == Op::LDR_SP && a.imm == slot && s.op == Op::STR_SP &&
        s.imm == slot && s.rd == a.rd && m.rd == a.rd) {
      if (m.op == Op::ADDI) return m.imm;
      if (m.op == Op::SUBI) return -m.imm;
    }
  }
  return std::nullopt;
}

/// Matches the initialization in a loop-entry predecessor: the last store
/// to the slot whose value is a constant.
std::optional<int64_t> match_init(const link::Image& img, const BasicBlock& b,
                                  int32_t slot) {
  for (std::size_t i = b.instrs.size(); i-- > 0;) {
    const Instr& ins = b.instrs[i].ins;
    if (ins.op == Op::STR_SP && ins.imm == slot)
      return const_def(img, b, i, ins.rd);
  }
  return std::nullopt;
}

/// Iterations until `var exit_cond limit` becomes true, starting at init
/// and stepping by step. Returns nullopt if the loop cannot terminate this
/// way or the condition kind is unsupported.
std::optional<int64_t> derive_bound(int64_t init, int64_t limit, int64_t step,
                                    Cond exit_cond) {
  auto ceil_div = [](int64_t a, int64_t b) { return (a + b - 1) / b; };
  switch (exit_cond) {
    case Cond::GE: // continues while var < limit
      if (step <= 0) return std::nullopt;
      return init >= limit ? 0 : ceil_div(limit - init, step);
    case Cond::GT: // continues while var <= limit
      if (step <= 0) return std::nullopt;
      return init > limit ? 0 : (limit - init) / step + 1;
    case Cond::LE: // continues while var > limit
      if (step >= 0) return std::nullopt;
      return init <= limit ? 0 : ceil_div(init - limit, -step);
    case Cond::LT: // continues while var >= limit
      if (step >= 0) return std::nullopt;
      return init < limit ? 0 : (init - limit) / (-step) + 1;
    default:
      return std::nullopt; // EQ/NE/unsigned: not a counted loop
  }
}

} // namespace

std::map<uint32_t, DetectedBound> detect_loop_bounds(const link::Image& img,
                                                     const Cfg& cfg,
                                                     const LoopInfo& loops) {
  std::map<uint32_t, DetectedBound> out;
  for (const Loop& loop : loops.loops) {
    const BasicBlock& header =
        cfg.blocks[static_cast<std::size_t>(loop.header)];
    const auto hp = match_header(img, cfg, header, loop);
    if (!hp) continue;

    // Step: look in every back-edge source block; all must agree.
    std::optional<int64_t> step;
    bool conflict = false;
    for (const int e : loop.back_edges) {
      const int src = cfg.edges[static_cast<std::size_t>(e)].from;
      const auto s =
          match_increment(cfg.blocks[static_cast<std::size_t>(src)], hp->slot);
      if (!s) {
        conflict = true;
        break;
      }
      if (step && *step != *s) conflict = true;
      step = s;
    }
    if (conflict || !step) continue;

    // The slot must not be stored anywhere else inside the loop (other
    // than the matched increment) or the pattern is unsafe.
    bool foreign_store = false;
    for (const int bid : loop.body) {
      const BasicBlock& b = cfg.blocks[static_cast<std::size_t>(bid)];
      bool is_backedge_src = false;
      for (const int e : loop.back_edges)
        is_backedge_src |= cfg.edges[static_cast<std::size_t>(e)].from == bid;
      if (is_backedge_src) continue;
      for (const CfgInstr& ci : b.instrs) {
        if (ci.ins.op == Op::STR_SP && ci.ins.imm == hp->slot)
          foreign_store = true;
        if (ci.ins.op == Op::BL_HI) foreign_store = true; // calls may not
        // touch our frame, but a conservative bail keeps this sound even
        // for hand-written assembly.
      }
    }
    if (foreign_store) continue;

    // Init: every entry-edge source must initialize the slot to the same
    // constant.
    std::optional<int64_t> init;
    bool init_ok = true;
    for (const int e : loop.entry_edges) {
      const int src = cfg.edges[static_cast<std::size_t>(e)].from;
      const auto v =
          match_init(img, cfg.blocks[static_cast<std::size_t>(src)], hp->slot);
      if (!v || (init && *init != *v)) {
        init_ok = false;
        break;
      }
      init = v;
    }
    if (!init_ok || !init) continue;

    const auto bound = derive_bound(*init, hp->limit, *step, hp->exit_cond);
    if (!bound) continue;

    DetectedBound d;
    d.init = *init;
    d.limit = hp->limit;
    d.step = *step;
    d.exit_cond = hp->exit_cond;
    d.bound = *bound;
    out.emplace(header.first_addr, d);
  }
  return out;
}

} // namespace spmwcet::wcet
