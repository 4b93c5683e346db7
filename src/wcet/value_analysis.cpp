#include "wcet/value_analysis.h"

#include <optional>
#include <vector>

#include "isa/decode.h"
#include "support/diag.h"

namespace spmwcet::wcet {

using isa::AluOp;
using isa::Instr;
using isa::Op;

AbsVal AbsVal::join(const AbsVal& o) const {
  if (base == Base::Top || o.base == Base::Top) return top();
  if (base != o.base) return top();
  return AbsVal{base, iv.join(o.iv)};
}

namespace {

/// Register file + stack-pointer offset (relative to function entry).
struct State {
  std::array<AbsVal, isa::kNumRegs> regs;
  Interval sp_off = Interval::point(0);
  bool reachable = false;

  static State entry_state() {
    State s;
    s.reachable = true;
    // Parameters and scratch registers are unknown at entry.
    for (auto& r : s.regs) r = AbsVal::top();
    s.sp_off = Interval::point(0);
    return s;
  }

  State join(const State& o) const {
    if (!reachable) return o;
    if (!o.reachable) return *this;
    State r;
    r.reachable = true;
    for (std::size_t i = 0; i < regs.size(); ++i)
      r.regs[i] = regs[i].join(o.regs[i]);
    r.sp_off = sp_off.join(o.sp_off);
    return r;
  }

  State widen(const State& prev) const {
    if (!prev.reachable) return *this;
    State r = *this;
    for (std::size_t i = 0; i < regs.size(); ++i)
      if (r.regs[i].base == prev.regs[i].base && !r.regs[i].is_top())
        r.regs[i].iv = r.regs[i].iv.widen(prev.regs[i].iv);
    r.sp_off = r.sp_off.widen(prev.sp_off);
    return r;
  }

  bool operator==(const State& o) const = default;
};

class ValueAnalysis {
public:
  ValueAnalysis(const link::Image& img, Cfg& cfg, const Annotations& ann)
      : img_(img), cfg_(cfg), ann_(ann) {}

  /// Runs the fixpoint and writes every instruction's MemFacts into the
  /// analyzed CFG.
  void run() {
    cfg_.mem_resolved = false; // until every instruction is rewritten
    fixpoint();
    const link::RegionMap& regions = img_.regions;
    const link::Region* code = nullptr; // region of the last fetch
    for (BasicBlock& b : cfg_.blocks) {
      State s = in_[static_cast<std::size_t>(b.id)];
      for (CfgInstr& ci : b.instrs) {
        // A BL pair never straddles regions (decode keeps it inside the
        // function's code), so one lookup classifies both of its fetches.
        if (code == nullptr || ci.addr < code->lo || ci.addr >= code->hi) {
          code = regions.find(ci.addr);
          if (code == nullptr) (void)regions.classify(ci.addr); // throws
        }
        ci.mem = MemFacts{};
        ci.mem.fetch_spm =
            link::mem_class(code->kind) == isa::MemClass::Scratchpad;
        if (!s.reachable) continue;
        if (const std::optional<AddrInfo> info = resolve(ci, s)) {
          ci.mem.has_access = true;
          ci.mem.access = *info;
          classify_access(ci.mem);
        }
        transfer(ci, s);
      }
    }
    cfg_.mem_resolved = true;
  }

private:
  void fixpoint() {
    const std::size_t n = cfg_.blocks.size();
    in_.assign(n, State{});
    std::vector<int> join_count(n, 0);
    in_[0] = State::entry_state();
    std::vector<int> work{0};
    while (!work.empty()) {
      const int bid = work.back();
      work.pop_back();
      const auto& b = cfg_.blocks[static_cast<std::size_t>(bid)];
      State s = in_[static_cast<std::size_t>(bid)];
      if (!s.reachable) continue;
      for (const CfgInstr& ci : b.instrs) transfer(ci, s);
      for (const int e : b.out_edges) {
        const int succ = cfg_.edges[static_cast<std::size_t>(e)].to;
        const State merged = in_[static_cast<std::size_t>(succ)].join(s);
        State next = merged;
        if (++join_count[static_cast<std::size_t>(succ)] > 8)
          next = merged.widen(in_[static_cast<std::size_t>(succ)]);
        if (!(next == in_[static_cast<std::size_t>(succ)])) {
          in_[static_cast<std::size_t>(succ)] = next;
          work.push_back(succ);
        }
      }
    }
  }

  // ---- transfer -------------------------------------------------------------

  static AbsVal add_vals(const AbsVal& a, const AbsVal& b) {
    if (a.is_const() && b.is_const()) return AbsVal::constant(a.iv.add(b.iv));
    if (a.is_sp() && b.is_const()) return AbsVal::sp(a.iv.add(b.iv));
    if (a.is_const() && b.is_sp()) return AbsVal::sp(b.iv.add(a.iv));
    return AbsVal::top();
  }

  static AbsVal sub_vals(const AbsVal& a, const AbsVal& b) {
    if (a.is_const() && b.is_const()) return AbsVal::constant(a.iv.sub(b.iv));
    if (a.is_sp() && b.is_const()) return AbsVal::sp(a.iv.sub(b.iv));
    return AbsVal::top();
  }

  void transfer(const CfgInstr& ci, State& s) const {
    const Instr& ins = ci.ins;
    auto& regs = s.regs;
    switch (ins.op) {
      case Op::MOVI:
        regs[ins.rd] = AbsVal::point(ins.imm);
        break;
      case Op::ADDI:
        regs[ins.rd] = add_vals(regs[ins.rd], AbsVal::point(ins.imm));
        break;
      case Op::SUBI:
        regs[ins.rd] = sub_vals(regs[ins.rd], AbsVal::point(ins.imm));
        break;
      case Op::CMPI:
        break;
      case Op::ALU: {
        const AbsVal a = regs[ins.rd];
        const AbsVal b = regs[ins.rm];
        switch (static_cast<AluOp>(ins.sub)) {
          case AluOp::ADD: regs[ins.rd] = add_vals(a, b); break;
          case AluOp::SUB: regs[ins.rd] = sub_vals(a, b); break;
          case AluOp::MUL:
            regs[ins.rd] = a.is_const() && b.is_const()
                               ? AbsVal::constant(a.iv.mul(b.iv))
                               : AbsVal::top();
            break;
          case AluOp::LSL:
            regs[ins.rd] = a.is_const() && b.is_const()
                               ? AbsVal::constant(a.iv.shl(b.iv))
                               : AbsVal::top();
            break;
          case AluOp::LSR:
            regs[ins.rd] = a.is_const() && b.is_const()
                               ? AbsVal::constant(a.iv.lsr(b.iv))
                               : AbsVal::top();
            break;
          case AluOp::ASR:
            regs[ins.rd] = a.is_const() && b.is_const()
                               ? AbsVal::constant(a.iv.asr(b.iv))
                               : AbsVal::top();
            break;
          case AluOp::AND:
            regs[ins.rd] = a.is_const() && b.is_const()
                               ? AbsVal::constant(a.iv.band(b.iv))
                               : AbsVal::top();
            break;
          case AluOp::CMP:
            break;
          case AluOp::MOV:
            regs[ins.rd] = b;
            break;
          case AluOp::NEG:
            regs[ins.rd] = b.is_const() ? AbsVal::constant(b.iv.neg())
                                        : AbsVal::top();
            break;
          default:
            regs[ins.rd] = AbsVal::top();
        }
        break;
      }
      case Op::ADD3:
        regs[ins.rd] = add_vals(regs[ins.rn], regs[ins.rm]);
        break;
      case Op::SUB3:
        regs[ins.rd] = sub_vals(regs[ins.rn], regs[ins.rm]);
        break;
      case Op::ADDI3:
        regs[ins.rd] = add_vals(regs[ins.rn], AbsVal::point(ins.imm));
        break;
      case Op::SUBI3:
        regs[ins.rd] = sub_vals(regs[ins.rn], AbsVal::point(ins.imm));
        break;
      case Op::SHIFTI: {
        const AbsVal a = regs[ins.rd];
        if (!a.is_const()) {
          regs[ins.rd] = AbsVal::top();
          break;
        }
        const Interval k = Interval::point(ins.imm);
        switch (static_cast<isa::ShiftOp>(ins.sub)) {
          case isa::ShiftOp::LSL: regs[ins.rd] = AbsVal::constant(a.iv.shl(k)); break;
          case isa::ShiftOp::LSR: regs[ins.rd] = AbsVal::constant(a.iv.lsr(k)); break;
          case isa::ShiftOp::ASR: regs[ins.rd] = AbsVal::constant(a.iv.asr(k)); break;
        }
        break;
      }
      case Op::LDR_LIT: {
        const uint32_t addr = isa::lit_address(ci.addr, ins);
        // Literal pools are read-only; their contents are link-time
        // constants we can read straight from the image.
        regs[ins.rd] = AbsVal::point(static_cast<int32_t>(img_.read32(addr)));
        break;
      }
      case Op::ADR:
        regs[ins.rd] = AbsVal::point(isa::lit_address(ci.addr, ins));
        break;
      case Op::ADJSP: {
        const Interval k = Interval::point(isa::scaled_imm(ins));
        s.sp_off = ins.sub ? s.sp_off.sub(k) : s.sp_off.add(k);
        break;
      }
      case Op::PUSH:
        s.sp_off = s.sp_off.sub(
            Interval::point(4 * isa::transfer_count(ins)));
        break;
      case Op::POP: {
        for (unsigned r = 0; r < 8; ++r)
          if (ins.imm & (1 << r)) regs[r] = AbsVal::top();
        s.sp_off =
            s.sp_off.add(Interval::point(4 * isa::transfer_count(ins)));
        break;
      }
      case Op::BL_HI:
        // Calls clobber the caller-saved registers r0..r3 (MiniC calling
        // convention); r4..r7 are callee-saved.
        for (unsigned r = 0; r < 4; ++r) regs[r] = AbsVal::top();
        break;
      case Op::BCC:
      case Op::B:
      case Op::BL_LO:
      case Op::SYS:
        break;
      default: // the other loads and stores: memory contents are not tracked
        SPMWCET_CHECK(isa::is_load(ins) || isa::is_store(ins));
        if (isa::is_load(ins)) regs[ins.rd] = AbsVal::top();
    }
  }

  // ---- resolution -----------------------------------------------------------

  /// The memory classes an access may touch, from this image's regions.
  void classify_access(MemFacts& mem) const {
    const AddrInfo& info = mem.access;
    if (info.kind == AddrInfo::Kind::Exact) {
      const link::Region* r = img_.regions.find(info.lo);
      if (r == nullptr) return; // unmapped: exact_class() raises on use
      const bool spm = link::mem_class(r->kind) == isa::MemClass::Scratchpad;
      mem.may_spm = spm;
      mem.may_main = !spm;
    } else if (info.kind == AddrInfo::Kind::Range) {
      mem.may_main = img_.regions.intersects_class(info.lo, info.hi,
                                                   isa::MemClass::MainMemory);
      mem.may_spm = img_.regions.intersects_class(info.lo, info.hi,
                                                  isa::MemClass::Scratchpad);
    }
  }

  std::optional<AddrInfo> resolve(const CfgInstr& ci, const State& s) const {
    const Instr& ins = ci.ins;
    AddrInfo info;
    info.width = static_cast<uint8_t>(isa::mem_access_bytes(ins));
    info.is_store = isa::is_store(ins);

    if (ins.op == Op::PUSH || ins.op == Op::POP) {
      info.kind = AddrInfo::Kind::Stack;
      info.width = 4;
      info.accesses = static_cast<uint8_t>(isa::transfer_count(ins));
      info.is_store = ins.op == Op::PUSH;
      if (info.accesses == 0) return std::nullopt; // empty list: no traffic
    } else if (info.width == 0) {
      return std::nullopt; // not a memory instruction
    } else {
      switch (isa::info(ins.op).addr) {
        case isa::Addr::Lit:
          info.kind = AddrInfo::Kind::Exact;
          info.lo = info.hi = isa::lit_address(ci.addr, ins);
          break;
        case isa::Addr::Sp:
          info.kind = AddrInfo::Kind::Stack;
          break;
        case isa::Addr::Reg:
          info = base_plus_offset(s.regs[ins.rn],
                                  Interval::point(isa::scaled_imm(ins)), info);
          break;
        case isa::Addr::Idx: {
          const AbsVal& rn = s.regs[ins.rn];
          const AbsVal& rm = s.regs[ins.rm];
          if (rn.is_const() && rm.is_const())
            info = const_range(rn.iv.add(rm.iv), info);
          else if (rn.is_sp() || rm.is_sp())
            info.kind = AddrInfo::Kind::Stack;
          else
            info.kind = AddrInfo::Kind::Unknown;
          break;
        }
        case isa::Addr::None:
          SPMWCET_CHECK_MSG(false, "memory access without an address");
      }
    }

    // Intersect with the compiler's access hint, when present.
    if (const auto hint = ann_.access_range(ci.addr)) {
      if (info.kind == AddrInfo::Kind::Unknown) {
        info.kind = AddrInfo::Kind::Range;
        info.lo = hint->lo;
        info.hi = hint->hi;
      } else if (info.kind == AddrInfo::Kind::Exact ||
                 info.kind == AddrInfo::Kind::Range) {
        const uint32_t lo = std::max(info.lo, hint->lo);
        const uint32_t hi = std::min(info.hi, hint->hi);
        if (lo > hi)
          throw AnnotationError(
              "access hint contradicts value analysis at address " +
              std::to_string(ci.addr));
        info.lo = lo;
        info.hi = hi;
        if (info.lo == info.hi) info.kind = AddrInfo::Kind::Exact;
      }
    }
    return info;
  }

  AddrInfo base_plus_offset(const AbsVal& base, Interval off,
                            AddrInfo info) const {
    if (base.is_const()) return const_range(base.iv.add(off), info);
    if (base.is_sp()) {
      info.kind = AddrInfo::Kind::Stack;
      return info;
    }
    info.kind = AddrInfo::Kind::Unknown;
    return info;
  }

  AddrInfo const_range(const Interval& addr, AddrInfo info) const {
    if (addr.is_bottom() || addr.lo() < 0 || addr.hi() >= Interval::kInf ||
        addr.hi() > 0xffffffffLL) {
      info.kind = AddrInfo::Kind::Unknown;
      return info;
    }
    info.lo = static_cast<uint32_t>(addr.lo());
    info.hi = static_cast<uint32_t>(addr.hi());
    info.kind = addr.is_point() ? AddrInfo::Kind::Exact : AddrInfo::Kind::Range;
    return info;
  }

  const link::Image& img_;
  Cfg& cfg_;
  const Annotations& ann_;
  std::vector<State> in_;
};

} // namespace

void resolve_memory(const link::Image& img, Cfg& cfg, const Annotations& ann) {
  ValueAnalysis(img, cfg, ann).run();
}

void throw_unmapped(uint32_t addr) {
  throw SimulationError("access to unmapped address " + std::to_string(addr));
}

} // namespace spmwcet::wcet
