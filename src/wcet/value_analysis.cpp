#include "wcet/value_analysis.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "isa/decode.h"
#include "support/diag.h"

namespace spmwcet::wcet {

using isa::AluOp;
using isa::Instr;
using isa::Op;

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

  bool operator==(const State& o) const = default;
};

/// The fixpoint over one CFG. A symbol address stands for whatever
/// constant a placement gives it, so every step must be one the concrete
/// analysis takes on each of those constants alike — the same values and
/// the same state changes, which steer the worklist and the widening:
/// adding or subtracting constants, joining offsets from the same symbol,
/// widening (all exact under translation). Joining in-bounds offsets of
/// different symbols gives a Hull, whose concrete hull is the same in every
/// placement that orders those symbols alike (objects never overlap); the
/// pairs it ordered are recorded. Anything else a symbol reaches — a
/// non-affine operation, a join with a constant, a hull read or widened —
/// would have a placement-dependent concrete result; it marks the analysis
/// unplaceable.
class ValueAnalysis {
public:
  ValueAnalysis(const Cfg& cfg, const AddressSource& source)
      : cfg_(cfg), source_(source) {}

  std::optional<SymbolicFacts> run() {
    fixpoint();
    if (unplaceable_) return std::nullopt;
    SymbolicFacts out;
    uint32_t site = 0;
    for (const BasicBlock& b : cfg_.blocks) {
      State& s = in_[static_cast<std::size_t>(b.id)]; // last read of it
      for (const CfgInstr& ci : b.instrs) {
        if (s.reachable) {
          SymbolicAccess acc;
          acc.site = site;
          if (resolve(ci, s, acc)) out.accesses.push_back(acc);
          transfer(ci, s);
        }
        ++site;
      }
    }
    if (unplaceable_) return std::nullopt;
    out.accesses.shrink_to_fit(); // a workload keeps its facts resident
    std::sort(order_.begin(), order_.end());
    order_.erase(std::unique(order_.begin(), order_.end()), order_.end());
    out.order = std::move(order_);
    return out;
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
        State& old = in_[static_cast<std::size_t>(succ)];
        if (++join_count[static_cast<std::size_t>(succ)] > 8) {
          State next = old;
          join_into(next, s);
          next = widen(next, old);
          if (next == old) continue;
          old = next;
        } else if (!join_into(old, s)) {
          continue;
        }
        work.push_back(succ);
      }
    }
  }

  // ---- lattice --------------------------------------------------------------

  /// `off` lies within symbol `sym`'s object.
  bool in_bounds(uint32_t sym, const Interval& off) const {
    return !off.is_bottom() && off.lo() >= 0 &&
           off.hi() < static_cast<int64_t>(source_.symbol_size(sym));
  }

  /// One end of a hull: an in-bounds offset from a symbol.
  struct End {
    uint32_t sym;
    int64_t off;
  };

  /// Whether end `a` lies below end `b` in this placement; recording the
  /// order of their symbols when they differ.
  bool below(const End& a, const End& b) {
    if (a.sym == b.sym) return a.off < b.off;
    const bool lower =
        source_.symbol_address(a.sym) < source_.symbol_address(b.sym);
    order_.emplace_back(lower ? a.sym : b.sym, lower ? b.sym : a.sym);
    return lower;
  }

  /// The join of the state value `old` with an incoming `in`.
  AbsVal join(const AbsVal& old, const AbsVal& in) {
    if (old.is_top() || in.is_top()) return AbsVal::top();
    if (old.base == in.base && old.sym == in.sym && !old.is_hull())
      return AbsVal{old.base, old.sym, old.iv.join(in.iv)};
    // Sp against an address is top, as in a concrete image.
    if (!old.is_address() || !in.is_address()) return AbsVal::top();
    // A concrete image joins the addresses into their hull, whose ends are
    // the lowest and highest of the joined ends.
    const auto ends = [&](const AbsVal& v, End& lo, End& hi) {
      if (v.is_hull()) {
        lo = {v.sym, v.iv.lo()};
        hi = {v.sym2, v.iv2.hi()};
        return true;
      }
      lo = {v.sym, v.iv.lo()};
      hi = {v.sym, v.iv.hi()};
      return v.is_sym() && in_bounds(v.sym, v.iv);
    };
    End old_lo{}, old_hi{}, in_lo{}, in_hi{};
    if (ends(old, old_lo, old_hi) && ends(in, in_lo, in_hi)) {
      const End lo = below(in_lo, old_lo) ? in_lo : old_lo;
      const End hi = below(old_hi, in_hi) ? in_hi : old_hi;
      return AbsVal{AbsVal::Base::Hull, lo.sym, Interval::point(lo.off),
                    hi.sym, Interval::point(hi.off)};
    }
    unplaceable_ = true;
    return AbsVal::top();
  }

  /// Joins `in` into `old` in place; whether `old` changed.
  bool join_into(State& old, const State& in) {
    if (!in.reachable) return false;
    if (!old.reachable) {
      old = in;
      return true;
    }
    bool changed = false;
    for (std::size_t i = 0; i < old.regs.size(); ++i) {
      const AbsVal v = join(old.regs[i], in.regs[i]);
      if (!(v == old.regs[i])) {
        old.regs[i] = v;
        changed = true;
      }
    }
    const Interval sp = old.sp_off.join(in.sp_off);
    if (!(sp == old.sp_off)) {
      old.sp_off = sp;
      changed = true;
    }
    return changed;
  }

  State widen(const State& cur, const State& prev) {
    if (!prev.reachable) return cur;
    State r = cur;
    for (std::size_t i = 0; i < r.regs.size(); ++i) {
      AbsVal& v = r.regs[i];
      const AbsVal& p = prev.regs[i];
      // A concrete image widens a grown hull to infinity, which no hull
      // end expresses.
      if (v.is_hull() && !(v == p)) unplaceable_ = true;
      if (v.base == p.base && v.sym == p.sym && !v.is_top() && !v.is_hull())
        v.iv = v.iv.widen(p.iv);
    }
    r.sp_off = r.sp_off.widen(prev.sp_off);
    return r;
  }

  // ---- transfer -------------------------------------------------------------

  /// Top for an operation a concrete image computes as a constant whenever
  /// both operands are addresses: if a symbol is among them, its result
  /// depends on the placement.
  AbsVal opaque(const AbsVal& a, const AbsVal& b) {
    if (a.is_address() && b.is_address() && (a.is_placed() || b.is_placed()))
      unplaceable_ = true;
    return AbsVal::top();
  }

  AbsVal add_vals(const AbsVal& a, const AbsVal& b) {
    if (a.is_const() && b.is_const()) return AbsVal::constant(a.iv.add(b.iv));
    if (a.is_sp() && b.is_const()) return AbsVal::sp(a.iv.add(b.iv));
    if (a.is_const() && b.is_sp()) return AbsVal::sp(b.iv.add(a.iv));
    if (a.is_sym() && b.is_const())
      return AbsVal::symbol(a.sym, a.iv.add(b.iv));
    if (a.is_const() && b.is_sym())
      return AbsVal::symbol(b.sym, b.iv.add(a.iv));
    // sp + symbol is sp-relative in a concrete image.
    if ((a.is_placed() && b.is_sp()) || (a.is_sp() && b.is_placed()))
      unplaceable_ = true;
    return opaque(a, b);
  }

  AbsVal sub_vals(const AbsVal& a, const AbsVal& b) {
    if (a.is_const() && b.is_const()) return AbsVal::constant(a.iv.sub(b.iv));
    if (a.is_sp() && b.is_const()) return AbsVal::sp(a.iv.sub(b.iv));
    if (a.is_sym() && b.is_const())
      return AbsVal::symbol(a.sym, a.iv.sub(b.iv));
    if (a.is_sym() && b.is_sym() && a.sym == b.sym)
      return AbsVal::constant(a.iv.sub(b.iv));
    if (a.is_sp() && b.is_placed()) unplaceable_ = true;
    return opaque(a, b);
  }

  /// A constant-only operation: exact on two constants, top otherwise.
  template <typename F>
  AbsVal const_op(const AbsVal& a, const AbsVal& b, F f) {
    if (a.is_const() && b.is_const()) return AbsVal::constant(f(a.iv, b.iv));
    return opaque(a, b);
  }

  void transfer(const CfgInstr& ci, State& s) {
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
            regs[ins.rd] = const_op(a, b, [](const Interval& x,
                                             const Interval& y) {
              return x.mul(y);
            });
            break;
          case AluOp::LSL:
            regs[ins.rd] = const_op(a, b, [](const Interval& x,
                                             const Interval& y) {
              return x.shl(y);
            });
            break;
          case AluOp::LSR:
            regs[ins.rd] = const_op(a, b, [](const Interval& x,
                                             const Interval& y) {
              return x.lsr(y);
            });
            break;
          case AluOp::ASR:
            regs[ins.rd] = const_op(a, b, [](const Interval& x,
                                             const Interval& y) {
              return x.asr(y);
            });
            break;
          case AluOp::AND:
            regs[ins.rd] = const_op(a, b, [](const Interval& x,
                                             const Interval& y) {
              return x.band(y);
            });
            break;
          case AluOp::CMP:
            break;
          case AluOp::MOV:
            regs[ins.rd] = b;
            break;
          case AluOp::NEG:
            regs[ins.rd] = b.is_const() ? AbsVal::constant(b.iv.neg())
                                        : opaque(b, b);
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
          regs[ins.rd] = opaque(a, a);
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
      case Op::LDR_LIT:
        // Literal pools are read-only link-time constants.
        regs[ins.rd] = known(source_.pool_word(isa::lit_address(ci.addr, ins)));
        break;
      case Op::ADR:
        regs[ins.rd] =
            known(source_.code_address(isa::lit_address(ci.addr, ins)));
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

  /// The source's value, or top (and unplaceable) when it has none.
  AbsVal known(const std::optional<AbsVal>& v) {
    if (v) return *v;
    unplaceable_ = true;
    return AbsVal::top();
  }

  // ---- resolution -----------------------------------------------------------

  /// An address `v` plus `off`, as the access's target.
  static void set_address(SymbolicAccess& acc, const AbsVal& v,
                          const Interval& off) {
    acc.kind = SymbolicAccess::Kind::Addr;
    acc.sym = v.is_sym() ? v.sym : kAbsolute;
    acc.off = v.iv.add(off);
  }

  /// Fills `acc` with the data access of `ci` in state `s`; false when the
  /// instruction moves no data.
  bool resolve(const CfgInstr& ci, const State& s, SymbolicAccess& acc) {
    using Kind = SymbolicAccess::Kind;
    const Instr& ins = ci.ins;
    acc.width = static_cast<uint8_t>(isa::mem_access_bytes(ins));
    acc.is_store = isa::is_store(ins);

    if (ins.op == Op::PUSH || ins.op == Op::POP) {
      acc.width = 4;
      acc.accesses = static_cast<uint8_t>(isa::transfer_count(ins));
      acc.is_store = ins.op == Op::PUSH;
      acc.kind = Kind::Stack;
      return acc.accesses != 0; // an empty list moves no data
    }
    if (acc.width == 0) return false; // not a memory instruction
    switch (isa::info(ins.op).addr) {
      case isa::Addr::Lit:
        set_address(acc,
                    known(source_.code_address(isa::lit_address(ci.addr, ins))),
                    Interval::point(0));
        break;
      case isa::Addr::Sp:
        acc.kind = Kind::Stack;
        break;
      case isa::Addr::Reg: {
        const AbsVal& base = s.regs[ins.rn];
        if (base.is_hull()) unplaceable_ = true;
        if (base.is_address())
          set_address(acc, base, Interval::point(isa::scaled_imm(ins)));
        else
          acc.kind = base.is_sp() ? Kind::Stack : Kind::Unknown;
        break;
      }
      case isa::Addr::Idx: {
        const AbsVal& rn = s.regs[ins.rn];
        const AbsVal& rm = s.regs[ins.rm];
        if (rn.is_address() && rm.is_address()) {
          if ((rn.is_placed() && rm.is_placed()) || rn.is_hull() ||
              rm.is_hull())
            unplaceable_ = true;
          set_address(acc, rn.is_sym() ? rn : rm,
                      rn.is_sym() ? rm.iv : rn.iv);
        } else {
          acc.kind = rn.is_sp() || rm.is_sp() ? Kind::Stack : Kind::Unknown;
        }
        break;
      }
      case isa::Addr::None:
        SPMWCET_CHECK_MSG(false, "memory access without an address");
    }
    if (const auto hint = source_.hint(ci.addr)) {
      acc.has_hint = true;
      acc.hint = *hint;
    }
    return true;
  }

  const Cfg& cfg_;
  const AddressSource& source_;
  std::vector<State> in_;
  std::vector<std::pair<uint32_t, uint32_t>> order_;
  bool unplaceable_ = false;
};

/// The access at its placed address: the concrete analysis' AddrInfo.
AddrInfo place_access(const SymbolicAccess& acc, uint32_t instr_addr,
                      std::span<const uint32_t> symbol_addr) {
  const auto placed = [&](uint32_t sym) -> uint32_t {
    return sym == kAbsolute ? 0u : symbol_addr[sym];
  };
  AddrInfo info;
  info.width = acc.width;
  info.accesses = acc.accesses;
  info.is_store = acc.is_store;
  switch (acc.kind) {
    case SymbolicAccess::Kind::Addr: {
      const Interval addr =
          acc.sym == kAbsolute
              ? acc.off
              : acc.off.add(Interval::point(placed(acc.sym)));
      if (addr.is_bottom() || addr.lo() < 0 || addr.hi() >= Interval::kInf ||
          addr.hi() > 0xffffffffLL) {
        info.kind = AddrInfo::Kind::Unknown;
      } else {
        info.lo = static_cast<uint32_t>(addr.lo());
        info.hi = static_cast<uint32_t>(addr.hi());
        info.kind =
            addr.is_point() ? AddrInfo::Kind::Exact : AddrInfo::Kind::Range;
      }
      break;
    }
    case SymbolicAccess::Kind::Stack: info.kind = AddrInfo::Kind::Stack; break;
    case SymbolicAccess::Kind::Unknown: info.kind = AddrInfo::Kind::Unknown; break;
  }

  // Intersect with the compiler's access hint, when present.
  if (acc.has_hint) {
    const uint32_t hint_lo = acc.hint.lo + placed(acc.hint.sym);
    const uint32_t hint_hi = acc.hint.hi + placed(acc.hint.sym);
    if (info.kind == AddrInfo::Kind::Unknown) {
      info.kind = AddrInfo::Kind::Range;
      info.lo = hint_lo;
      info.hi = hint_hi;
    } else if (info.kind == AddrInfo::Kind::Exact ||
               info.kind == AddrInfo::Kind::Range) {
      const uint32_t lo = std::max(info.lo, hint_lo);
      const uint32_t hi = std::min(info.hi, hint_hi);
      if (lo > hi)
        throw AnnotationError(
            "access hint contradicts value analysis at address " +
            std::to_string(instr_addr));
      info.lo = lo;
      info.hi = hi;
      if (info.lo == info.hi) info.kind = AddrInfo::Kind::Exact;
    }
  }
  return info;
}

/// The memory classes an access may touch, from the placement's regions.
void classify_access(const link::RegionMap& regions, MemFacts& mem) {
  const AddrInfo& info = mem.access;
  if (info.kind == AddrInfo::Kind::Exact) {
    const link::Region* r = regions.find(info.lo);
    if (r == nullptr) return; // unmapped: exact_class() raises on use
    const bool spm = link::mem_class(r->kind) == isa::MemClass::Scratchpad;
    mem.may_spm = spm;
    mem.may_main = !spm;
  } else if (info.kind == AddrInfo::Kind::Range) {
    mem.may_main =
        regions.intersects_class(info.lo, info.hi, isa::MemClass::MainMemory);
    mem.may_spm =
        regions.intersects_class(info.lo, info.hi, isa::MemClass::Scratchpad);
  }
}

/// The concrete image as an AddressSource: pool words are the image's
/// bytes, code addresses and hints are absolute.
class ImageSource final : public AddressSource {
public:
  ImageSource(const link::Image& img, const Annotations& ann)
      : img_(img), ann_(ann) {}

  std::optional<AbsVal> pool_word(uint32_t addr) const override {
    return AbsVal::point(static_cast<int32_t>(img_.read32(addr)));
  }
  std::optional<AbsVal> code_address(uint32_t addr) const override {
    return AbsVal::point(addr);
  }
  std::optional<SymbolRange> hint(uint32_t addr) const override {
    const auto range = ann_.access_range(addr);
    if (!range) return std::nullopt;
    return SymbolRange{kAbsolute, range->lo, range->hi};
  }
  uint32_t symbol_size(uint32_t) const override { return no_symbols(); }
  uint32_t symbol_address(uint32_t) const override { return no_symbols(); }

private:
  static uint32_t no_symbols() {
    SPMWCET_CHECK_MSG(false, "an image's own contents name no symbols");
    return 0;
  }

  const link::Image& img_;
  const Annotations& ann_;
};

} // namespace

std::optional<SymbolicFacts> analyze_accesses(const Cfg& cfg,
                                              const AddressSource& source) {
  return ValueAnalysis(cfg, source).run();
}

void place_memory(const Cfg& cfg, std::span<const SymbolicAccess> accesses,
                  std::span<const uint32_t> symbol_addr,
                  const link::RegionMap& regions, uint32_t delta,
                  std::vector<MemFacts>& facts) {
  uint32_t site = 0;
  auto next = accesses.begin(); // the next instruction with an access
  const link::Region* code = nullptr; // region of the last fetch
  for (const BasicBlock& b : cfg.blocks) {
    for (const CfgInstr& ci : b.instrs) {
      // A BL pair never straddles regions (decode keeps it inside the
      // function's code), so one lookup classifies both of its fetches.
      const uint32_t addr = ci.addr + delta;
      if (code == nullptr || addr < code->lo || addr >= code->hi) {
        code = regions.find(addr);
        if (code == nullptr) (void)regions.classify(addr); // throws
      }
      MemFacts& mem = facts.emplace_back();
      mem.fetch_spm = link::mem_class(code->kind) == isa::MemClass::Scratchpad;
      if (next != accesses.end() && next->site == site) {
        mem.has_access = true;
        mem.access = place_access(*next++, addr, symbol_addr);
        classify_access(regions, mem);
      }
      ++site;
    }
  }
  SPMWCET_CHECK(next == accesses.end());
}

void resolve_memory(const link::Image& img, const Cfg& cfg,
                    const Annotations& ann, std::vector<MemFacts>& facts) {
  const ImageSource source(img, ann);
  // An image's own contents hold no symbols, so the analysis always places.
  const auto analysis = analyze_accesses(cfg, source);
  SPMWCET_CHECK(analysis.has_value());
  place_memory(cfg, analysis->accesses, {}, img.regions, 0, facts);
}

void throw_unmapped(uint32_t addr) {
  throw SimulationError("access to unmapped address " + std::to_string(addr));
}

} // namespace spmwcet::wcet
