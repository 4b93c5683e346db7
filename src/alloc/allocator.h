// Scratchpad allocation strategies.
//
// * allocate_energy_optimal — the paper's flow (Steinke DATE'02): profile a
//   main-memory-only run, compute per-object energy benefits, solve the
//   knapsack exactly (the DP of alloc/knapsack.h, for every table size),
//   and emit the link-time SPM assignment.
// * allocate_wcet_driven — the paper's future-work idea: choose objects to
//   minimize the *analyzed WCET* rather than profiled energy, via greedy
//   best-improvement-per-byte trials, each priced by the caller.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "alloc/knapsack.h"
#include "alloc/memory_objects.h"
#include "link/layout.h"

namespace spmwcet::alloc {

struct AllocationResult {
  link::SpmAssignment assignment;
  std::vector<MemoryObject> chosen;
  double benefit_nj = 0.0;
  uint32_t used_bytes = 0;
};

/// Energy-optimal static allocation from a profiling run; lays `mod` out to
/// size its functions.
AllocationResult allocate_energy_optimal(const minic::ObjModule& mod,
                                         const sim::AccessProfile& profile,
                                         uint32_t spm_capacity,
                                         const energy::EnergyModel& em = {});

/// The same solve over a precomputed candidate table (collect_objects of
/// the profile). The table does not depend on the capacity, so a sweep
/// builds it once per workload and solves each size against it.
AllocationResult allocate_energy_optimal(
    const std::vector<MemoryObject>& objects, uint32_t spm_capacity);

/// WCET-driven greedy allocation: each round adds the untaken object (tried
/// in table order, with 4 bytes of alignment slack) whose trial most
/// reduces `wcet_of` per byte, the lowest index on ties; a trial that throws
/// ProgramError (it overflows the capacity) is skipped, and the greedy stops
/// when none improves. Reads only the objects' names, sizes and kinds.
AllocationResult allocate_wcet_driven(
    const std::vector<MemoryObject>& objects, uint32_t spm_capacity,
    const std::function<uint64_t(const link::SpmAssignment&)>& wcet_of);

} // namespace spmwcet::alloc
