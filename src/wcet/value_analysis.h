// Interval-domain value analysis over the reconstructed CFG, used to
// resolve the effective addresses of data accesses (aiT's value analysis
// stage). Registers carry either a constant interval, an offset from the
// function-entry stack pointer, an offset from a symbol's address, or top.
// Literal-pool loads, pc-relative addresses and the compiler's access hints
// come from an AddressSource: read straight out of one image they are
// constants (resolve_memory), while the relocatable program reads them as
// symbol references through the link's relocations, so one fixpoint serves
// every placement that keeps the symbol order it relied on (wcet/frontend.h,
// bind_placement).
//
// The result of the stage is one SymbolicAccess per instruction; placing it
// (place_memory) writes every instruction's MemFacts into the CFG — the
// memory class of its own fetch and, for a memory instruction, an AddrInfo
// (an exact address, a bounded range from the analysis, the compiler's
// access hints or their intersection, a stack-relative access, or unknown)
// plus the memory classes that access may touch. These are the layout
// facts of one bound image, resolved once; block timing and cache analysis
// read them per visit and never look at registers or the region map.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "link/image.h"
#include "support/interval.h"
#include "wcet/annotations.h"
#include "wcet/cfg.h"

namespace spmwcet::wcet {

/// Symbol id of an absolute value (no symbol: the offset is the address).
inline constexpr uint32_t kAbsolute = UINT32_MAX;

/// Abstract register value.
struct AbsVal {
  /// Hull: the join of offsets within different symbols' objects, which a
  /// concrete image holds as the constant hull of their addresses: from
  /// `iv`'s point past symbol `sym` up to `iv2`'s point past symbol `sym2`.
  enum class Base : uint8_t { Const, Sp, Sym, Hull, Top };
  Base base = Base::Top;
  uint32_t sym = 0; ///< Sym: the symbol id; Hull: the lowest (0 otherwise)
  /// Const: the value; Sp: offset from the entry sp; Sym: offset from the
  /// symbol's address; Hull: the point offset of the hull's low end.
  Interval iv;
  uint32_t sym2 = 0; ///< Hull: the symbol of the hull's high end
  Interval iv2;      ///< Hull: the point offset of the high end

  static AbsVal top() { return AbsVal{}; }
  static AbsVal point(int64_t v) {
    return AbsVal{Base::Const, 0, Interval::point(v)};
  }
  static AbsVal constant(Interval iv) { return AbsVal{Base::Const, 0, iv}; }
  static AbsVal sp(Interval off) { return AbsVal{Base::Sp, 0, off}; }
  static AbsVal symbol(uint32_t id, Interval off) {
    return AbsVal{Base::Sym, id, off};
  }

  bool is_const() const { return base == Base::Const; }
  bool is_sp() const { return base == Base::Sp; }
  bool is_sym() const { return base == Base::Sym; }
  bool is_hull() const { return base == Base::Hull; }
  bool is_top() const { return base == Base::Top; }
  /// Depends on where symbols land.
  bool is_placed() const { return is_sym() || is_hull(); }
  /// What concrete images hold as Const.
  bool is_address() const { return is_const() || is_placed(); }

  bool operator==(const AbsVal& o) const = default;
};

/// An inclusive address range relative to symbol `sym` (kAbsolute: the
/// bounds are the addresses). Bounds wrap like the link's 32-bit ones.
struct SymbolRange {
  uint32_t sym = kAbsolute;
  uint32_t lo = 0;
  uint32_t hi = 0;
};

/// One instruction's data access as the value analysis derives it, before
/// a placement fixes the symbol addresses.
struct SymbolicAccess {
  enum class Kind : uint8_t {
    Addr,    ///< `off` from symbol `sym` (kAbsolute: an absolute interval)
    Stack,   ///< sp-relative (incl. PUSH/POP transfers)
    Unknown, ///< unbounded
  };
  // Ordered to pack: every workload keeps one per data access.
  uint32_t site = 0; ///< the instruction's ordinal in its CFG
  uint32_t sym = kAbsolute;
  Kind kind = Kind::Unknown;
  uint8_t width = 4;
  uint8_t accesses = 1;
  bool is_store = false;
  bool has_hint = false;
  SymbolRange hint; ///< the compiler's access hint, when has_hint
  Interval off;
};

/// What the value analysis reads besides registers.
class AddressSource {
public:
  virtual ~AddressSource() = default;
  /// The literal-pool word at `addr`, as LDR_LIT loads it; nullopt when
  /// the word's value depends on the placement in a way no symbol names.
  virtual std::optional<AbsVal> pool_word(uint32_t addr) const = 0;
  /// The code address `addr` (ADR results, LDR_LIT's own access); nullopt
  /// as for pool_word.
  virtual std::optional<AbsVal> code_address(uint32_t addr) const = 0;
  /// The access hint of the instruction at `addr`, if any.
  virtual std::optional<SymbolRange> hint(uint32_t addr) const = 0;
  /// Bytes of the object symbol `sym` names. Objects never overlap, so two
  /// symbols' in-bounds addresses are ordered like the symbols.
  virtual uint32_t symbol_size(uint32_t sym) const = 0;
  /// Where symbol `sym` lands in the placement the analysis is for; only
  /// compared with another symbol's address, to order the two.
  virtual uint32_t symbol_address(uint32_t sym) const = 0;
};

/// What the value analysis derives for one CFG.
struct SymbolicFacts {
  /// The data accesses in instruction order, each with its instruction's
  /// ordinal (blocks in id order, instructions in block order): loads and
  /// stores, PUSH/POP with a non-empty list, in reachable blocks only.
  std::vector<SymbolicAccess> accesses;
  /// Symbol pairs (a, b) whose order the analysis relied on, with a below
  /// b: joining different symbols' addresses grows a concrete hull
  /// depending on their order, and that steers the fixpoint. The facts
  /// hold for every placement that keeps each pair in this order.
  std::vector<std::pair<uint32_t, uint32_t>> order;
};

/// Runs the fixpoint over `cfg`. Returns nullopt when a symbol address
/// reached an operation the symbolic domain cannot express — a non-affine
/// operation, a join with a constant or of out-of-bounds offsets, a read of
/// a hull — or the source could not express a value, where a concrete
/// image's facts could depend on where the symbol lands beyond the order.
std::optional<SymbolicFacts> analyze_accesses(const Cfg& cfg,
                                              const AddressSource& source);

/// Writes every instruction's MemFacts into `cfg` from `accesses`
/// (SymbolicFacts::accesses of the CFG) at the addresses `symbol_addr` gives each
/// symbol id, classified by `regions`, and marks the CFG resolved, which
/// the back end (cache analysis, block timing) requires. An instruction
/// outside every region raises the SimulationError of an unmapped access;
/// an access hint that contradicts the analysis raises AnnotationError.
void place_memory(Cfg& cfg, std::span<const SymbolicAccess> accesses,
                  std::span<const uint32_t> symbol_addr,
                  const link::RegionMap& regions);

/// Runs the fixpoint over `cfg` on `img`'s own contents and records every
/// instruction's MemFacts in place (CfgInstr::mem): the fetch's memory class
/// for every instruction, and for each load/store (including PUSH/POP) in a
/// reachable block its resolved access and the classes that access may
/// touch. Marks the CFG resolved. Hint ranges from `ann` are intersected
/// with analysis results; an empty intersection raises AnnotationError
/// (inconsistent annotation).
void resolve_memory(const link::Image& img, Cfg& cfg, const Annotations& ann);

} // namespace spmwcet::wcet
