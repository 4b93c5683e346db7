// WCET annotations: loop bounds and data-access address ranges.
//
// In the paper these are the user-supplied (but automatically generated)
// aiT annotation files: loop bounds the tool cannot derive, plus the
// possible address ranges of array accesses whose effective address is data
// dependent. Here they are produced mechanically by the MiniC compiler and
// carried through the image; this module materializes them for the
// analyzer and allows manual overrides (for hand-written or stripped
// images).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "link/image.h"

namespace spmwcet::wcet {

/// Inclusive byte range a data access may touch.
struct AccessRange {
  uint32_t lo = 0;
  uint32_t hi = 0;
};

class Annotations {
public:
  /// Extracts loop bounds and access hints from the image (hints name
  /// symbols; they are resolved to address ranges via the symbol table).
  static Annotations from_image(const link::Image& img);

  /// Manual overrides — mirror aiT's annotation file entries.
  void set_loop_bound(uint32_t header_addr, int64_t bound);
  /// Flow fact: total back-edge executions per function invocation.
  void set_loop_total(uint32_t header_addr, int64_t total);
  void set_access_range(uint32_t instr_addr, uint32_t lo, uint32_t hi);

  std::optional<int64_t> loop_bound(uint32_t header_addr) const;
  std::optional<int64_t> loop_total(uint32_t header_addr) const;
  std::optional<AccessRange> access_range(uint32_t instr_addr) const;

  const std::map<uint32_t, int64_t>& loop_bounds() const {
    return loop_bounds_;
  }

private:
  std::map<uint32_t, int64_t> loop_bounds_;
  std::map<uint32_t, int64_t> loop_totals_;
  std::map<uint32_t, AccessRange> access_ranges_;
};

} // namespace spmwcet::wcet
