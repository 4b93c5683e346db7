// The linked executable image: encoded bytes per segment, symbol table,
// entry point, region map, and the analyzer-facing annotations (loop bounds
// and access hints) translated from positional to absolute addresses.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "link/region_map.h"

namespace spmwcet::link {

/// A linked symbol (function or global).
struct Symbol {
  std::string name;
  uint32_t addr = 0;
  uint32_t size = 0; ///< bytes (function: code + pool)
  bool is_function = false;
  uint32_t elem_bytes = 4; ///< globals: element width
  bool read_only = false;
  uint32_t count = 1; ///< globals: element count
};

/// A contiguous byte range loaded at a fixed address.
struct Segment {
  uint32_t base = 0;
  std::vector<uint8_t> bytes;
};

/// The executable, as both the simulator's load input and the WCET
/// analyzer's subject (the analyzer decodes instructions straight from the
/// segment bytes, exactly like aiT works on the final binary).
class Image {
public:
  std::vector<Segment> segments;
  uint32_t entry = 0;      ///< address of the start stub
  uint32_t initial_sp = 0; ///< top of stack
  /// Bytes the scratchpad objects span from the scratchpad base, alignment
  /// included: what the link's capacity check compares (0 = none placed).
  uint32_t spm_extent = 0;
  RegionMap regions;
  std::vector<Symbol> symbols;

  /// Loop-bound annotations: address of the loop-header instruction ->
  /// maximum back-edge traversals per loop entry.
  std::map<uint32_t, int64_t> loop_bounds;

  /// Flow facts: loop-header address -> maximum summed back-edge
  /// traversals per invocation of the containing function (triangular
  /// nests; absent = no cap beyond loop_bounds).
  std::map<uint32_t, int64_t> loop_totals;

  /// Access hints: address of a load/store instruction -> name of the
  /// global symbol it accesses (the paper's automated array-address
  /// annotations).
  std::map<uint32_t, std::string> access_hints;

  const Symbol* find_symbol(const std::string& name) const;
  /// Symbol whose [addr, addr+size) contains `addr`, or nullptr.
  const Symbol* symbol_at(uint32_t addr) const;

  /// Byte accessors used by the analyzer and the loader. Throw
  /// SimulationError when the address is not inside any segment.
  uint8_t read8(uint32_t addr) const;
  uint16_t read16(uint32_t addr) const;
  uint32_t read32(uint32_t addr) const;

  /// True if `addr` is within a loaded segment.
  bool contains(uint32_t addr) const;

private:
  const Segment* segment_of(uint32_t addr, uint32_t bytes) const;
};

} // namespace spmwcet::link
