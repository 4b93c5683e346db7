// Per-instruction memory facts: what the back end needs to know about an
// instruction's memory traffic in one bound image or placement. The value
// analysis (wcet/value_analysis.h) resolves them once per view into its
// facts vector (ProgramView::facts), one per instruction site in site
// order; the view's site table (wcet/site_table.h) is priced from them, so
// cache analysis, block timing and the report's site statistics never
// consult the region map or an address table.
#pragma once

#include <cstdint>

#include "isa/timing.h"

namespace spmwcet::wcet {

/// How a memory instruction's effective address resolved.
struct AddrInfo {
  enum class Kind : uint8_t {
    Exact,   ///< single known address
    Range,   ///< one access somewhere in [lo, hi]
    Stack,   ///< sp-relative (incl. PUSH/POP transfers)
    Unknown, ///< unbounded — analyzer must assume the worst
  };
  Kind kind = Kind::Unknown;
  uint8_t width = 4;    ///< bytes per element access
  uint8_t accesses = 1; ///< number of element accesses (PUSH/POP: n words)
  bool is_store = false;
  uint32_t lo = 0; ///< Exact: the address; Range: inclusive bounds
  uint32_t hi = 0;

  bool operator==(const AddrInfo&) const = default;
};

/// Raises the SimulationError of an access to the unmapped `addr`, as
/// RegionMap::classify does.
[[noreturn]] void throw_unmapped(uint32_t addr);

struct MemFacts {
  /// The resolved data access; meaningful only when has_access.
  AddrInfo access;
  /// A load/store (PUSH/POP with a non-empty list included) in a block the
  /// value analysis reached.
  bool has_access = false;
  /// The instruction's own halfwords sit on the scratchpad (its fetches
  /// bypass any cache).
  bool fetch_spm = false;
  /// Memory classes the access may touch: for Exact the class of its
  /// address (neither when the address is unmapped), for Range every class
  /// the range overlaps. Unset for Stack/Unknown, which are main memory.
  bool may_main = false;
  bool may_spm = false;

  bool operator==(const MemFacts&) const = default;

  /// Class of an Exact access; an unmapped address raises the same
  /// SimulationError RegionMap::classify does.
  isa::MemClass exact_class() const {
    if (may_spm) return isa::MemClass::Scratchpad;
    if (may_main) return isa::MemClass::MainMemory;
    throw_unmapped(access.lo);
  }
};

} // namespace spmwcet::wcet
