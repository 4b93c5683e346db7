// The linker: places functions and globals into main memory and/or the
// scratchpad, relaxes out-of-range conditional branches, lays out literal
// pools, encodes everything to bytes, and emits the region map plus the
// WCET annotations (loop bounds, access hints) at absolute addresses.
//
// Scratchpad allocation is a pure link decision (SpmAssignment), exactly as
// in the paper: the compiler output is identical, only object placement
// changes, and with it every access latency.
#pragma once

#include <map>
#include <set>
#include <string>

#include "link/image.h"
#include "minic/obj.h"

namespace spmwcet::link {

/// Address-space shape. Defaults model a small ARM7 board: main memory at
/// zero (code, data, stack), scratchpad at 2 MiB (within BL's +/-4 MiB
/// span of the main code region, like a real TCM base address would be).
struct LinkOptions {
  uint32_t code_base = 0x00000100;
  uint32_t data_base = 0x00040000;
  uint32_t stack_top = 0x00080000;
  uint32_t stack_reserve = 0x00004000;
  uint32_t main_size = 0x00100000;
  uint32_t spm_base = 0x00200000;
  uint32_t spm_size = 0; ///< bytes; 0 = no scratchpad present
};

/// Which memory objects live on the scratchpad.
struct SpmAssignment {
  std::set<std::string> functions;
  std::set<std::string> globals;
  auto operator<=>(const SpmAssignment&) const = default;
};

/// Exact post-layout sizes of every allocatable memory object (function
/// code + literal pool, global data), used by the knapsack allocator.
struct ObjectSizes {
  std::map<std::string, uint32_t> function_bytes;
  std::map<std::string, uint32_t> global_bytes;
};

/// Links `mod` into an executable image.
/// Throws ProgramError on unresolved symbols, capacity overflow, or
/// un-relaxable branches.
Image link_program(const minic::ObjModule& mod, const LinkOptions& opts = {},
                   const SpmAssignment& spm = {});

/// Throws the link's capacity-overflow ProgramError when placed objects
/// spanning `extent` bytes (Image::spm_extent) overflow a scratchpad of
/// `spm_size` bytes. The capacity only gates this check: the image itself
/// does not depend on it.
void check_spm_capacity(uint32_t extent, uint32_t spm_size);

/// Computes object sizes without producing an image.
ObjectSizes measure(const minic::ObjModule& mod);

} // namespace spmwcet::link
