// Interval-domain value analysis over the reconstructed CFG, used to
// resolve the effective addresses of data accesses (aiT's value analysis
// stage). Registers carry either a constant interval, an offset from the
// function-entry stack pointer, or top. Literal-pool loads read their
// constant straight out of the image, which is how global addresses become
// known to the analyzer without relocation info.
//
// The result of the stage is written into the CFG itself: every
// instruction gets its MemFacts — the memory class of its own fetch and,
// for a memory instruction, an AddrInfo (an exact address, a bounded range
// from the analysis, the compiler's access hints or their intersection, a
// stack-relative access, or unknown) plus the memory classes that access
// may touch. These are the layout facts of one bound image, resolved once;
// block timing and cache analysis read them per visit and never look at
// registers or the region map.
#pragma once

#include <array>
#include <cstdint>

#include "link/image.h"
#include "support/interval.h"
#include "wcet/annotations.h"
#include "wcet/cfg.h"

namespace spmwcet::wcet {

/// Abstract register value.
struct AbsVal {
  enum class Base : uint8_t { Const, Sp, Top };
  Base base = Base::Top;
  Interval iv; ///< meaningful for Const (value) and Sp (offset from entry sp)

  static AbsVal top() { return AbsVal{}; }
  static AbsVal point(int64_t v) {
    return AbsVal{Base::Const, Interval::point(v)};
  }
  static AbsVal constant(Interval iv) { return AbsVal{Base::Const, iv}; }
  static AbsVal sp(Interval off) { return AbsVal{Base::Sp, off}; }

  bool is_const() const { return base == Base::Const; }
  bool is_sp() const { return base == Base::Sp; }
  bool is_top() const { return base == Base::Top; }

  AbsVal join(const AbsVal& o) const;
  bool operator==(const AbsVal& o) const = default;
};

/// Runs the fixpoint over `cfg` and records every instruction's MemFacts in
/// place (CfgInstr::mem): the fetch's memory class for every instruction,
/// and for each load/store (including PUSH/POP) in a reachable block its
/// resolved access and the classes that access may touch. Marks the CFG
/// resolved, which the back end (cache analysis, block timing) requires.
/// Hint ranges from `ann` are intersected with analysis results; an empty
/// intersection raises AnnotationError (inconsistent annotation).
void resolve_memory(const link::Image& img, Cfg& cfg, const Annotations& ann);

} // namespace spmwcet::wcet
