// Scratchpad allocation strategies.
//
// * allocate_energy_optimal — the paper's flow (Steinke DATE'02): profile a
//   main-memory-only run, compute per-object energy benefits, solve the
//   knapsack exactly, and emit the link-time SPM assignment.
// * allocate_wcet_driven — the paper's future-work idea: choose objects to
//   minimize the *analyzed WCET* rather than profiled energy, via greedy
//   best-improvement-per-byte re-analysis.
#pragma once

#include <cstdint>
#include <vector>

#include "alloc/knapsack.h"
#include "alloc/memory_objects.h"
#include "link/layout.h"
#include "wcet/analyzer.h"

namespace spmwcet::alloc {

struct AllocationResult {
  link::SpmAssignment assignment;
  std::vector<MemoryObject> chosen;
  double benefit_nj = 0.0;
  uint32_t used_bytes = 0;
};

/// Energy-optimal static allocation from a profiling run.
AllocationResult allocate_energy_optimal(const minic::ObjModule& mod,
                                         const sim::AccessProfile& profile,
                                         uint32_t spm_capacity,
                                         const energy::EnergyModel& em = {});

/// The same solve over a precomputed candidate table (collect_objects of
/// the profile). The table does not depend on the capacity, so a sweep
/// builds it once per workload and solves each size against it.
AllocationResult allocate_energy_optimal(
    const std::vector<MemoryObject>& objects, uint32_t spm_capacity);

/// WCET-driven greedy allocation: repeatedly adds the object whose
/// placement most reduces the analyzed WCET per byte, re-linking and
/// re-analyzing after each candidate evaluation. `opts` supplies the
/// address-space shape (its spm_size is overridden by `spm_capacity`).
AllocationResult allocate_wcet_driven(const minic::ObjModule& mod,
                                      uint32_t spm_capacity,
                                      link::LinkOptions opts = {});

} // namespace spmwcet::alloc
