// The linker: places functions and globals into main memory and/or the
// scratchpad, relaxes out-of-range conditional branches, lays out literal
// pools, encodes everything to bytes, and emits the region map plus the
// WCET annotations (loop bounds, access hints) at absolute addresses.
//
// A link runs in three steps that are public on their own: lay_out relaxes
// and measures every function (position-independent, once per module),
// assign_addresses places the laid-out objects for one SpmAssignment, and
// link_program encodes the image at those addresses. The analyzer binds a
// placement from the first two alone (wcet::bind_placement), and the
// allocator sizes its candidates from lay_out, without an image.
//
// Scratchpad allocation is a pure link decision (SpmAssignment), exactly as
// in the paper: the compiler output is identical, only object placement
// changes, and with it every access latency.
#pragma once

#include <set>
#include <span>
#include <string>
#include <vector>

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

/// Where a laid-out function's code and literal pool sit relative to its
/// base. Relaxation is function-relative, so this holds at any address.
struct FunctionExtent {
  uint32_t code_bytes = 0;  ///< instructions only
  uint32_t pool_off = 0;    ///< aligned offset of the literal pool
  uint32_t total_bytes = 0; ///< code + pool
};

/// One function relaxed and measured: its body after branch relaxation and
/// the offsets of its items.
struct LaidOutFunction {
  minic::ObjFunction fn;          ///< after relaxation
  std::vector<uint32_t> item_off; ///< byte offset of each item (+ the end)
  FunctionExtent extent;
};

/// Every function of a module laid out, in module order.
struct ModuleLayout {
  std::vector<LaidOutFunction> functions;

  /// The functions' extents, in module order: all that placing them needs.
  std::vector<FunctionExtent> extents() const;
};

/// Relaxes and measures every function of `mod`. Throws ProgramError when a
/// function is too large for its unconditional branches.
ModuleLayout lay_out(const minic::ObjModule& mod);

/// Where one SpmAssignment puts every object of a laid-out module: the
/// link's address assignment, without encoding anything.
struct AddressMap {
  std::vector<uint32_t> function_base; ///< module function order
  std::vector<uint32_t> global_addr;   ///< module global order
  std::vector<uint8_t> function_spm;   ///< 1 = placed on the scratchpad
  std::vector<uint8_t> global_spm;
  /// Bytes the scratchpad objects span from the scratchpad base, alignment
  /// included (Image::spm_extent of the link).
  uint32_t spm_extent = 0;
};

/// Assigns addresses to the functions of `mod`, laid out with `extents`
/// (ModuleLayout::extents), and its globals under `spm`, with every check
/// and error message of link_program: unknown assigned names, an undefined
/// entry, main-memory overflow and scratchpad capacity.
AddressMap assign_addresses(const minic::ObjModule& mod,
                            std::span<const FunctionExtent> extents,
                            const LinkOptions& opts, const SpmAssignment& spm);

/// The region map link_program emits for `addrs` (finalized).
RegionMap build_region_map(const minic::ObjModule& mod,
                           std::span<const FunctionExtent> extents,
                           const LinkOptions& opts, const AddressMap& addrs);

/// Links `mod` into an executable image.
/// Throws ProgramError on unresolved symbols, capacity overflow, or
/// un-relaxable branches.
Image link_program(const minic::ObjModule& mod, const LinkOptions& opts = {},
                   const SpmAssignment& spm = {});

/// Links `mod` from its lay_out (`layout`), which a caller linking many
/// placements of one module computes once.
Image link_program(const minic::ObjModule& mod, const ModuleLayout& layout,
                   const LinkOptions& opts, const SpmAssignment& spm);

/// Throws the link's capacity-overflow ProgramError when placed objects
/// spanning `extent` bytes (Image::spm_extent) overflow a scratchpad of
/// `spm_size` bytes. The capacity only gates this check: the image itself
/// does not depend on it.
void check_spm_capacity(uint32_t extent, uint32_t spm_size);

} // namespace spmwcet::link
