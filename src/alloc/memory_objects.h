// Memory objects: the unit of scratchpad allocation, exactly as in the
// paper — whole functions (code + literal pool) and global data elements.
// Each object's knapsack weight is its linked size; its value is the
// profiled energy benefit of serving its accesses from the scratchpad.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "energy/energy_model.h"
#include "link/layout.h"
#include "minic/obj.h"
#include "sim/profile.h"

namespace spmwcet::alloc {

struct MemoryObject {
  std::string name;
  bool is_function = false;
  uint32_t size_bytes = 0;
  /// Profiled access count (fetches for functions, loads+stores for data).
  uint64_t accesses = 0;
  /// Energy saved per run if this object lives on the scratchpad (nJ).
  double benefit_nj = 0.0;
};

/// Builds the allocation candidates for `mod`, whose functions lay out with
/// `extents` (link::ModuleLayout::extents), from a profiling run.
/// Functions account for their instruction fetches and their literal-pool
/// loads (32-bit, attributed to the function symbol by the profiler);
/// globals account for their data loads and stores by width.
std::vector<MemoryObject>
collect_objects(const minic::ObjModule& mod,
                std::span<const link::FunctionExtent> extents,
                const sim::AccessProfile& profile,
                const energy::EnergyModel& em);

} // namespace spmwcet::alloc
